"""Stochastic graph augmentation: atom masking, bond deletion, subgraph removal.

Every draw takes an explicit ``numpy.random.Generator`` so corpus-level
drivers can derive one stream per molecule and stay deterministic no matter
how work is scheduled.  Masked atoms are replaced by the reserved mask token
(atomic number 119, chirality cleared); deleted bonds vanish from the edge
list.  Node count and indexing never change.

:func:`draw_view` makes the random calls of one view of a molecule of a
packed corpus and returns its masked atoms and the positions of its dropped
bonds; the subgraph walk reads the pack's ``bonds_by_source()`` rows, which
a training run builds once and holds.  Training builds no view graphs:
:meth:`~molcontrast.encoder.GraphBatch.gather` edits the drawn sets into
the pack.  :func:`augment_view` packs its one graph and builds its view.

Counts follow a half-up rounding rule: an operator with ratio ``p > 0`` on
``n`` candidates acts on ``k = min(n, max(1, floor(p * n + 0.5)))`` of them,
and ``p = 0`` is the identity and draws nothing.  The compose strategy
instead tops up until fractions reach their targets, which is a ceiling rule;
see :func:`draw_view`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .encoder import GraphBatch
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


def _view(g: MoleculeGraph, rows, spec: AugmentSpec, rng, source_index: int) -> AugmentedView:
    """One view of ``g`` drawn by :func:`draw_view` on ``rows``, the
    ``_pack_rows`` of ``g`` packed alone: the masked atoms tokenised and the
    dropped edges deleted, as one new graph; ``g`` itself when nothing
    changed.  Kept edges stay in their original order."""
    masked, dropped = draw_view(rows, 0, spec, rng)
    if not masked and not dropped:
        return AugmentedView(g, frozenset(), frozenset(), source_index)
    token = mask_token()
    nodes = tuple(token if i in masked else a for i, a in enumerate(g.nodes))
    kept = tuple(e for i, e in enumerate(g.edges) if i not in dropped)
    deleted = frozenset((g.edges[i].u, g.edges[i].v) for i in dropped)
    return AugmentedView(MoleculeGraph(nodes, kept), frozenset(masked), deleted, source_index)


def _choose(rng: np.random.Generator, n: int, k: int) -> set[int]:
    return set(int(i) for i in rng.choice(n, size=k, replace=False))


def _sample(rng: np.random.Generator, n: int, p: float) -> set[int]:
    """A uniform sample of ``_count(p, n)`` of ``range(n)``; no draw for none."""
    k = _count(p, n)
    return _choose(rng, n, k) if k else set()


def _pack_rows(pack: GraphBatch) -> tuple[memoryview, ...]:
    """What :func:`draw_view` reads of ``pack``, built once per run, as
    memoryviews whose items are Python ints: where each molecule's atoms and
    bonds start, each bond's ends, and the starts and destinations (numbered
    within their molecule) of the rows of ``pack.bonds_by_source()``."""
    n, code = pack.num_nodes, pack._directed_codes()
    code.sort()  # in place: no permutation, no sorted copy
    start = np.searchsorted(code, np.arange(n + 1) * n)  # each source's first row
    dst = np.remainder(code, n, out=code)
    columns = (pack.atom_start, pack.bond_start, pack.bond_u, pack.bond_v, dst, start)
    return tuple(map(memoryview, columns))


def _grow_region(nbr, ptr, p: float, rng: np.random.Generator) -> set[int]:
    """``_count(p, n)`` atoms of a molecule grown by breadth-first search,
    where ``ptr`` holds where its ``n`` atoms' rows start, then their end,
    and atom ``v``'s neighbours, ascending, are ``nbr[ptr[v] : ptr[v + 1]]``.

    The origin is uniform over unmasked atoms and is masked first; each BFS
    level is shuffled before masking continues, and a fresh origin is drawn
    whenever a component is exhausted before the target is reached.
    """
    n = len(ptr) - 1
    target = _count(p, n)
    masked: set[int] = set()
    ptr, base = ptr.tolist(), ptr[0]  # the molecule's rows as lists: the walk indexes them
    nbr = nbr[base : ptr[-1]].tolist()
    while len(masked) < target:
        k = int(rng.integers(n - len(masked)))  # the k-th unmasked atom
        level = [[v for v in range(n) if v not in masked][k] if masked else k]
        while level and len(masked) < target:
            frontier: list[int] = []
            for v in level:
                if len(masked) >= target:
                    break
                if v in masked:
                    continue
                masked.add(v)
                frontier += [u for u in nbr[ptr[v] - base : ptr[v + 1] - base] if u not in masked]
            # Deduplicate preserving discovery order, then shuffle the level.
            level = [u for u in dict.fromkeys(frontier) if u not in masked]
            rng.shuffle(level)
    return masked


def draw_view(
    rows: tuple[memoryview, ...], i: int, spec: AugmentSpec, rng: np.random.Generator
) -> tuple[set[int], set[int]]:
    """The masked atoms and the positions in its edge list of the dropped
    bonds of one view of molecule ``i`` of a pack, whose ``_pack_rows`` are
    ``rows``, without building it.  Indices are local to the molecule, as
    :meth:`~molcontrast.encoder.GraphBatch.gather` takes them;
    :func:`augment_view` makes the same draws and builds the view.

    Every strategy's random calls are made here, in a fixed order.
    Mask-delete samples atoms, then bonds; a ratio of 0 draws nothing.
    Subgraph removal masks a :func:`_grow_region` region (its ratio drawn
    first for ``subgraph_random`` and ``compose_all``) and drops exactly the
    bonds inside it.  Compose then masks up to ``ceil(mask_ratio * n)`` of
    the ``n`` atoms and drops up to ``ceil(delete_ratio * m)`` of the ``m``
    bonds, counting the bonds inside the region.
    """
    atom_start, bond_start, bond_u, bond_v, nbr, ptr = rows
    a, b, first, end = atom_start[i], atom_start[i + 1], bond_start[i], bond_start[i + 1]
    n, m = b - a, end - first
    if spec.strategy == MASK_DELETE:
        return _sample(rng, n, spec.mask_ratio), _sample(rng, m, spec.delete_ratio)
    p = spec.subgraph_ratio if spec.strategy == SUBGRAPH else _random_ratio(spec, rng)
    masked = _grow_region(nbr, ptr[a : b + 1], p, rng)
    u, v = bond_u[first:end].tolist(), bond_v[first:end].tolist()
    dropped = {k for k, (s, t) in enumerate(zip(u, v)) if s in masked and t in masked}
    if spec.strategy == COMPOSE_ALL:
        need = math.ceil(spec.mask_ratio * n - 1e-9) - len(masked)
        if need > 0:
            pool = [x for x in range(n) if x not in masked]
            masked.update(pool[k] for k in _choose(rng, len(pool), min(need, len(pool))))
        need = math.ceil(spec.delete_ratio * m - 1e-9) - len({(u[k], v[k]) for k in dropped})
        if need > 0:
            pool = [k for k in range(m) if k not in dropped]
            dropped.update(pool[k] for k in _choose(rng, len(pool), min(need, len(pool))))
    return masked, dropped


def augment_view(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator, source_index: int = 0
) -> AugmentedView:
    """Draw one augmented view of ``g`` under the spec's strategy."""
    return _view(g, _pack_rows(GraphBatch.from_graphs([g])), spec, rng, source_index)


def augment_pair(
    g: MoleculeGraph, spec: AugmentSpec, rng: np.random.Generator, source_index: int = 0
) -> tuple[AugmentedView, AugmentedView]:
    """Two independent augmented views drawn in a fixed order.

    Both views come from the same stream (first draw, then second), so a
    fixed (graph, spec, seed) triple reproduces the pair bit-identically.
    """
    rows = _pack_rows(GraphBatch.from_graphs([g]))
    return _view(g, rows, spec, rng, source_index), _view(g, rows, spec, rng, source_index)
