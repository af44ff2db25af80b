"""Stochastic graph augmentation: atom masking, bond deletion, subgraph removal.

Every operator takes an explicit ``numpy.random.Generator`` so corpus-level
drivers can derive one stream per molecule and stay deterministic no matter
how work is scheduled.  Masked atoms are replaced by the reserved mask token
(atomic number 119, chirality cleared); deleted bonds vanish from the edge
list and the adjacency is rebuilt.  Node count and indexing never change.

Counts follow a half-up rounding rule: an operator with ratio ``p > 0`` on
``n`` candidates acts on ``k = min(n, max(1, floor(p * n + 0.5)))`` of them,
and ``p = 0`` is the identity.  The compose strategy instead tops up until
fractions reach their targets, which is a ceiling rule; see
:func:`compose_view`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import BondEdge, MoleculeGraph, mask_token, neighbors

__all__ = [
    "STRATEGIES",
    "MASK_DELETE",
    "SUBGRAPH_RANDOM",
    "SUBGRAPH",
    "COMPOSE_ALL",
    "AugmentSpec",
    "AugmentedView",
    "mask_atoms",
    "delete_bonds",
    "remove_subgraph",
    "compose_view",
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
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _count(p: float, n: int) -> int:
    """Half-up rounded action count: 0 when p == 0, else at least 1."""
    if p <= 0 or n == 0:
        return 0
    return min(n, max(1, math.floor(p * n + 0.5)))


def _random_ratio(spec: AugmentSpec, rng: np.random.Generator) -> float:
    """A subgraph ratio drawn from U[0, spec.subgraph_ratio]; no draw at 0."""
    p = spec.subgraph_ratio
    return float(rng.uniform(0.0, p)) if p > 0 else 0.0


def _with_masks(g: MoleculeGraph, masked: set[int]) -> tuple:
    token = mask_token()
    return tuple(
        token if i in masked else node for i, node in enumerate(g.nodes)
    )


def mask_atoms(
    g: MoleculeGraph, p: float, rng: np.random.Generator, source_index: int = 0
) -> AugmentedView:
    """Replace a uniform sample of atoms with the mask token."""
    k = _count(p, g.num_nodes)
    if k == 0:
        return AugmentedView(g, frozenset(), frozenset(), source_index)
    chosen = set(int(i) for i in rng.choice(g.num_nodes, size=k, replace=False))
    masked_graph = MoleculeGraph(_with_masks(g, chosen), g.edges)
    return AugmentedView(masked_graph, frozenset(chosen), frozenset(), source_index)


def delete_bonds(
    g: MoleculeGraph, p: float, rng: np.random.Generator, source_index: int = 0
) -> AugmentedView:
    """Drop a uniform sample of bonds; adjacency is rebuilt."""
    k = _count(p, g.num_edges)
    if k == 0:
        return AugmentedView(g, frozenset(), frozenset(), source_index)
    drop = set(int(i) for i in rng.choice(g.num_edges, size=k, replace=False))
    kept = tuple(e for i, e in enumerate(g.edges) if i not in drop)
    deleted = frozenset((g.edges[i].u, g.edges[i].v) for i in drop)
    return AugmentedView(
        MoleculeGraph(g.nodes, kept), frozenset(), deleted, source_index
    )


def remove_subgraph(
    g: MoleculeGraph, p: float, rng: np.random.Generator, source_index: int = 0
) -> AugmentedView:
    """Mask a connected region grown by breadth-first search, then drop the
    bonds inside it.

    The origin is uniform over unmasked atoms and is masked first; each
    BFS level is shuffled before masking continues, and a fresh origin is
    drawn whenever a component is exhausted before the target is reached.
    Exactly the edges with BOTH endpoints masked are deleted, so the
    removed region is an induced subgraph.
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
                frontier.extend(u for u in neighbors(g, v) if u not in masked)
            # Deduplicate preserving discovery order, then shuffle the level.
            level = [u for u in dict.fromkeys(frontier) if u not in masked]
            rng.shuffle(level)
    if not masked:
        return AugmentedView(g, frozenset(), frozenset(), source_index)
    kept: list[BondEdge] = []
    deleted: list[tuple[int, int]] = []
    for e in g.edges:
        if e.u in masked and e.v in masked:
            deleted.append((e.u, e.v))
        else:
            kept.append(e)
    out = MoleculeGraph(_with_masks(g, masked), tuple(kept))
    return AugmentedView(out, frozenset(masked), frozenset(deleted), source_index)


def compose_view(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator, source_index: int = 0
) -> AugmentedView:
    """Strategy 4: subgraph removal, then mask and delete until the set
    fractions are reached.

    The subgraph ratio is drawn from U[0, subgraph_ratio].  Masking tops up
    to ``ceil(mask_ratio * n)`` atoms; bond deletion tops up to
    ``ceil(delete_ratio * m)`` bonds, with bonds already removed by the
    subgraph step counting toward that quota.
    """
    n, m = g.num_nodes, g.num_edges
    view = remove_subgraph(g, _random_ratio(spec, rng), rng, source_index)
    masked = set(view.masked_nodes)
    deleted = set(view.deleted_edges)
    graph = view.graph

    mask_target = math.ceil(spec.mask_ratio * n - 1e-9)
    need = mask_target - len(masked)
    if need > 0:
        pool = [v for v in range(n) if v not in masked]
        extra = rng.choice(len(pool), size=min(need, len(pool)), replace=False)
        masked.update(pool[int(i)] for i in extra)
        graph = MoleculeGraph(_with_masks(g, masked), graph.edges)

    delete_target = math.ceil(spec.delete_ratio * m - 1e-9)
    need = delete_target - len(deleted)
    if need > 0:
        surviving = graph.edges
        drop = set(
            int(i)
            for i in rng.choice(
                len(surviving), size=min(need, len(surviving)), replace=False
            )
        )
        deleted.update((surviving[i].u, surviving[i].v) for i in drop)
        graph = MoleculeGraph(
            graph.nodes, tuple(e for i, e in enumerate(surviving) if i not in drop)
        )
    return AugmentedView(graph, frozenset(masked), frozenset(deleted), source_index)


def augment_view(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator, source_index: int = 0
) -> AugmentedView:
    """Draw one augmented view of ``g`` under the spec's strategy."""
    if spec.strategy == MASK_DELETE:
        masked = mask_atoms(g, spec.mask_ratio, rng, source_index)
        dropped = delete_bonds(masked.graph, spec.delete_ratio, rng, source_index)
        return AugmentedView(
            dropped.graph, masked.masked_nodes, dropped.deleted_edges, source_index
        )
    if spec.strategy == SUBGRAPH_RANDOM:
        return remove_subgraph(g, _random_ratio(spec, rng), rng, source_index)
    if spec.strategy == SUBGRAPH:
        return remove_subgraph(g, spec.subgraph_ratio, rng, source_index)
    return compose_view(g, spec, rng, source_index)


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
