"""Stochastic graph augmentation: atom masking, bond deletion, subgraph removal.

Every draw takes an explicit ``numpy.random.Generator`` so corpus-level
drivers can derive one stream per molecule and stay deterministic no matter
how work is scheduled.  Masked atoms are replaced by the reserved mask token
(atomic number 119, chirality cleared); deleted bonds vanish from the edge
list.  Node count and indexing never change.

:func:`draw_view` makes a view's random calls and returns the masked atoms
and the positions of the dropped bonds; :func:`augment_view` builds that view
as one new graph, straight from its source graph.  Training builds no view
graphs: :meth:`~molcontrast.encoder.GraphBatch.gather` edits the drawn sets
into the index arrays of a corpus packed once.

Counts follow a half-up rounding rule: an operator with ratio ``p > 0`` on
``n`` candidates acts on ``k = min(n, max(1, floor(p * n + 0.5)))`` of them,
and ``p = 0`` is the identity and draws nothing.  The compose strategy
instead tops up until fractions reach their targets, which is a ceiling rule;
see :func:`_draw_compose`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import MoleculeGraph, mask_token

__all__ = [
    "STRATEGIES",
    "MASK_DELETE",
    "SUBGRAPH_RANDOM",
    "SUBGRAPH",
    "COMPOSE_ALL",
    "AugmentSpec",
    "AugmentedView",
    "draw_view",
    "augment_view",
    "augment_pair",
    "derive_rng",
]

# Strategy 1: independent atom masking then bond deletion.
MASK_DELETE = "mask_delete"
# Strategy 2: subgraph removal with ratio drawn uniformly from [0, p].
SUBGRAPH_RANDOM = "subgraph_random"
# Strategy 3: subgraph removal at a fixed ratio.
SUBGRAPH = "subgraph"
# Strategy 4: subgraph removal (random ratio), then mask and delete top-ups.
COMPOSE_ALL = "compose_all"

STRATEGIES = (MASK_DELETE, SUBGRAPH_RANDOM, SUBGRAPH, COMPOSE_ALL)


@dataclass(frozen=True)
class AugmentSpec:
    strategy: str = SUBGRAPH
    mask_ratio: float = 0.25
    delete_ratio: float = 0.25
    subgraph_ratio: float = 0.25

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )
        for name in ("mask_ratio", "delete_ratio", "subgraph_ratio"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class AugmentedView:
    """One augmented copy of a molecule plus what was changed."""

    graph: MoleculeGraph
    masked_nodes: frozenset[int]
    deleted_edges: frozenset[tuple[int, int]]
    source_index: int = 0


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for a (seed, context...) tuple."""
    entropy = [seed, *key]
    if 0 <= min(entropy) and max(entropy) < 1 << 32:
        # The words SeedSequence splits these ints into, as one array: the
        # same state, without coercing each int in Python.
        entropy = np.array(entropy, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _count(p: float, n: int) -> int:
    """Half-up rounded action count: 0 when p == 0, else at least 1."""
    if p <= 0 or n == 0:
        return 0
    return min(n, max(1, math.floor(p * n + 0.5)))


def _random_ratio(spec: AugmentSpec, rng: np.random.Generator) -> float:
    """A subgraph ratio drawn from U[0, spec.subgraph_ratio]; no draw at 0."""
    p = spec.subgraph_ratio
    return float(rng.uniform(0.0, p)) if p > 0 else 0.0


def _view(
    g: MoleculeGraph,
    masked: set[int],
    dropped_edge_positions: set[int],
    source_index: int,
) -> AugmentedView:
    """``g`` with the ``masked`` atoms tokenised and the edges at the given
    positions of ``g.edges`` deleted, as one new graph; ``g`` itself when
    nothing changed.  Kept edges stay in their original order."""
    if not masked and not dropped_edge_positions:
        return AugmentedView(g, frozenset(), frozenset(), source_index)
    token = mask_token()
    nodes = tuple(token if i in masked else a for i, a in enumerate(g.nodes))
    kept = tuple(e for i, e in enumerate(g.edges) if i not in dropped_edge_positions)
    deleted = frozenset((g.edges[i].u, g.edges[i].v) for i in dropped_edge_positions)
    return AugmentedView(
        MoleculeGraph(nodes, kept), frozenset(masked), deleted, source_index
    )


def _choose(rng: np.random.Generator, n: int, k: int) -> set[int]:
    return set(int(i) for i in rng.choice(n, size=k, replace=False))


def _sample(rng: np.random.Generator, n: int, p: float) -> set[int]:
    """A uniform sample of ``_count(p, n)`` of ``range(n)``; no draw for none."""
    k = _count(p, n)
    return _choose(rng, n, k) if k else set()


def _grow_region(g: MoleculeGraph, p: float, rng: np.random.Generator) -> set[int]:
    """``_count(p, n)`` atoms grown by breadth-first search.

    The origin is uniform over unmasked atoms and is masked first; each BFS
    level is shuffled before masking continues, and a fresh origin is drawn
    whenever a component is exhausted before the target is reached.
    """
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
                frontier.extend(u for u in g.adjacency[v] if u not in masked)
            # Deduplicate preserving discovery order, then shuffle the level.
            level = [u for u in dict.fromkeys(frontier) if u not in masked]
            rng.shuffle(level)
    return masked


def _inside(g: MoleculeGraph, masked: set[int]) -> set[int]:
    """Positions of the edges with both endpoints masked: deleting exactly
    these makes the removed region an induced subgraph."""
    return {i for i, e in enumerate(g.edges) if e.u in masked and e.v in masked}


def _draw_compose(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator
) -> tuple[set[int], set[int]]:
    """Strategy 4: subgraph removal, then mask and delete until the set
    fractions are reached.

    The subgraph ratio is drawn from U[0, subgraph_ratio].  Masking tops up
    to ``ceil(mask_ratio * n)`` atoms; bond deletion tops up to
    ``ceil(delete_ratio * m)`` bonds, with bonds already removed by the
    subgraph step counting toward that quota.
    """
    n, m = g.num_nodes, g.num_edges
    masked = _grow_region(g, _random_ratio(spec, rng), rng)
    dropped = _inside(g, masked)

    mask_target = math.ceil(spec.mask_ratio * n - 1e-9)
    need = mask_target - len(masked)
    if need > 0:
        pool = [v for v in range(n) if v not in masked]
        extra = _choose(rng, len(pool), min(need, len(pool)))
        masked.update(pool[i] for i in extra)

    delete_target = math.ceil(spec.delete_ratio * m - 1e-9)
    need = delete_target - len({(g.edges[i].u, g.edges[i].v) for i in dropped})
    if need > 0:
        surviving = [i for i in range(m) if i not in dropped]
        extra = _choose(rng, len(surviving), min(need, len(surviving)))
        dropped.update(surviving[i] for i in extra)
    return masked, dropped


def draw_view(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator
) -> tuple[set[int], set[int]]:
    """The masked atoms and the positions in ``g.edges`` of the dropped
    bonds of one view of ``g`` under the spec's strategy, without building
    it; :func:`augment_view` makes the same draws and builds the view.

    Every strategy's random calls are made here, in a fixed order.
    Mask-delete samples atoms, then bonds; a ratio of 0 draws nothing.
    Subgraph removal masks a :func:`_grow_region` region (its ratio drawn
    first for ``subgraph_random``) and drops exactly the bonds inside it.
    """
    if spec.strategy == MASK_DELETE:
        masked = _sample(rng, g.num_nodes, spec.mask_ratio)
        return masked, _sample(rng, g.num_edges, spec.delete_ratio)
    if spec.strategy == COMPOSE_ALL:
        return _draw_compose(g, spec, rng)
    p = _random_ratio(spec, rng) if spec.strategy == SUBGRAPH_RANDOM else spec.subgraph_ratio
    masked = _grow_region(g, p, rng)
    return masked, _inside(g, masked)


def augment_view(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator, source_index: int = 0
) -> AugmentedView:
    """Draw one augmented view of ``g`` under the spec's strategy."""
    return _view(g, *draw_view(g, spec, rng), source_index)


def augment_pair(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator, source_index: int = 0
) -> tuple[AugmentedView, AugmentedView]:
    """Two independent augmented views drawn in a fixed order.

    Both views come from the same stream (first draw, then second), so a
    fixed (graph, spec, seed) triple reproduces the pair bit-identically.
    """
    first = augment_view(g, spec, rng, source_index)
    second = augment_view(g, spec, rng, source_index)
    return first, second
