"""Reference augmentation draws: one molecule graph walked on its own.

The library draws a view of molecule ``i`` of a packed corpus by walking
the pack's ``bonds_by_source()`` rows.  This module keeps the walk that it
replaced, over a graph's sorted, duplicate-free neighbour lists
(:func:`graph_oracle.adjacency`) and its edge list, which the tests compare
with it draw for draw.  The counting rules are the library's own.
"""

from __future__ import annotations

import math

import numpy as np

from graph_oracle import adjacency
from molcontrast.augment import (
    COMPOSE_ALL,
    MASK_DELETE,
    SUBGRAPH_RANDOM,
    AugmentSpec,
    _choose,
    _count,
    _random_ratio,
    _sample,
)
from molcontrast.graph import MoleculeGraph


def grow_region(g: MoleculeGraph, p: float, rng: np.random.Generator) -> set[int]:
    """``_count(p, n)`` atoms grown by breadth-first search, each level
    shuffled, from a fresh uniform origin whenever a component runs out."""
    neighbours = adjacency(g)
    n = g.num_nodes
    target = _count(p, n)
    masked: set[int] = set()
    while len(masked) < target:
        unmasked = [v for v in range(n) if v not in masked]
        origin = unmasked[int(rng.integers(len(unmasked)))]
        level = [origin]
        while level and len(masked) < target:
            frontier: list[int] = []
            for v in level:
                if len(masked) >= target:
                    break
                if v in masked:
                    continue
                masked.add(v)
                frontier.extend(u for u in neighbours[v] if u not in masked)
            level = [u for u in dict.fromkeys(frontier) if u not in masked]
            rng.shuffle(level)
    return masked


def inside(g: MoleculeGraph, masked: set[int]) -> set[int]:
    """Positions of the edges with both endpoints masked."""
    return {i for i, e in enumerate(g.edges) if e.u in masked and e.v in masked}


def draw_compose(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator
) -> tuple[set[int], set[int]]:
    """Subgraph removal at a random ratio, then mask and delete top-ups."""
    n, m = g.num_nodes, g.num_edges
    masked = grow_region(g, _random_ratio(spec, rng), rng)
    dropped = inside(g, masked)
    need = math.ceil(spec.mask_ratio * n - 1e-9) - len(masked)
    if need > 0:
        pool = [v for v in range(n) if v not in masked]
        extra = _choose(rng, len(pool), min(need, len(pool)))
        masked.update(pool[i] for i in extra)
    need = math.ceil(spec.delete_ratio * m - 1e-9) - len(
        {(g.edges[i].u, g.edges[i].v) for i in dropped}
    )
    if need > 0:
        surviving = [i for i in range(m) if i not in dropped]
        extra = _choose(rng, len(surviving), min(need, len(surviving)))
        dropped.update(surviving[i] for i in extra)
    return masked, dropped


def draw_view(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator
) -> tuple[set[int], set[int]]:
    """The masked atoms and the positions in ``g.edges`` of the dropped
    bonds of one view of ``g``."""
    if spec.strategy == MASK_DELETE:
        masked = _sample(rng, g.num_nodes, spec.mask_ratio)
        return masked, _sample(rng, g.num_edges, spec.delete_ratio)
    if spec.strategy == COMPOSE_ALL:
        return draw_compose(g, spec, rng)
    p = _random_ratio(spec, rng) if spec.strategy == SUBGRAPH_RANDOM else spec.subgraph_ratio
    masked = grow_region(g, p, rng)
    return masked, inside(g, masked)
