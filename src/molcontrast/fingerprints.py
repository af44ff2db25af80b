"""Topological fingerprints and representation-space retrieval analysis.

Two fingerprint kinds over 2048-bit vectors:

* circular: iterated atom environments in the spirit of ECFP.  The initial
  atom invariant hashes (atomic number, degree, formal charge, ring
  membership); each of two radius rounds re-hashes the atom's invariant
  together with its sorted (bond type, neighbor invariant) pairs, and every
  invariant from every round sets a bit.
* path: every simple path of 1..7 bonds contributes a bit keyed by the
  lexicographically smaller direction of its (atomic number, bond type)
  label sequence.

Hashing is 64-bit FNV-1a over a stable text serialization, so bit
positions are identical across platforms and runs.

Retrieval analysis embeds a corpus with the encoder readout (the 512-d
``h``, not the contrastive projection), ranks it by cosine distance to a
query, partitions the ranking into equal rank-range bins, and reports
fingerprint similarity statistics per bin plus the nearest neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import EncoderModel, embed_molecules
from .errors import ConfigError
from .graph import MoleculeGraph

__all__ = [
    "fnv1a64",
    "Fingerprint",
    "ring_atoms",
    "circular_fp",
    "path_fp",
    "enumerate_simple_paths",
    "dice",
    "cosine_distance",
    "BinStat",
    "NeighborHit",
    "RetrievalReport",
    "retrieval_analysis",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_NBITS = 2048  # bits in every fingerprint
_RADIUS = 2  # circular refinement rounds
_MAX_PATH_BONDS = 7  # longest path enumerated, in bonds


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a; the one hash behind fingerprints and scaffold keys."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class Fingerprint:
    kind: str  # "circular" or "path"
    bits: np.ndarray  # bool [nbits]

    @property
    def nbits(self) -> int:
        return int(self.bits.shape[0])

    def count(self) -> int:
        return int(self.bits.sum())


def ring_atoms(g: MoleculeGraph) -> frozenset[int]:
    """Atoms lying on at least one cycle (incident to a non-bridge edge)."""
    n = g.num_nodes
    disc = [-1] * n
    low = [0] * n
    timer = 0
    bridges: set[tuple[int, int]] = set()
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[tuple[int, int, object]] = [(root, -1, iter(g.adjacency[root]))]
        while stack:
            v, parent, it = stack[-1]
            pushed = False
            for u in it:  # type: ignore[union-attr]
                if u == parent:
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, v, iter(g.adjacency[u])))
                    pushed = True
                    break
                low[v] = min(low[v], disc[u])
            if not pushed:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        bridges.add((min(parent, v), max(parent, v)))
    in_ring: set[int] = set()
    for e in g.edges:
        if (e.u, e.v) not in bridges:
            in_ring.add(e.u)
            in_ring.add(e.v)
    return frozenset(in_ring)


def _bond_types(g: MoleculeGraph) -> dict[tuple[int, int], int]:
    """Bond type of every edge, keyed by both orientations."""
    bond_type: dict[tuple[int, int], int] = {}
    for e in g.edges:
        bond_type[(e.u, e.v)] = int(e.bond_type)
        bond_type[(e.v, e.u)] = int(e.bond_type)
    return bond_type


def _refine(
    g: MoleculeGraph, labels: list[int], bond_type: dict[tuple[int, int], int]
) -> list[int]:
    """One neighbourhood-hash round: each atom's label re-hashed with its
    sorted (bond type, neighbour label) pairs."""
    fresh = []
    for v in range(g.num_nodes):
        env = sorted((bond_type[(v, u)], labels[u]) for u in g.adjacency[v])
        text = f"{labels[v]}|" + ";".join(f"{b},{h}" for b, h in env)
        fresh.append(fnv1a64(text.encode()))
    return fresh


def circular_fp(g: MoleculeGraph) -> Fingerprint:
    """Circular environment fingerprint; every round's invariants set bits."""
    rings = ring_atoms(g)
    bond_type = _bond_types(g)
    inv = [
        fnv1a64(
            f"{node.atomic_number}|{len(g.adjacency[v])}|"
            f"{node.formal_charge}|{int(v in rings)}".encode()
        )
        for v, node in enumerate(g.nodes)
    ]
    bits = np.zeros(_NBITS, dtype=bool)
    bits[[h % _NBITS for h in inv]] = True
    for _ in range(_RADIUS):
        inv = _refine(g, inv, bond_type)
        bits[[h % _NBITS for h in inv]] = True
    return Fingerprint("circular", bits)


def enumerate_simple_paths(g: MoleculeGraph) -> list[tuple[int, ...]]:
    """Simple paths with 1..7 bonds, each undirected path once.

    A path is kept when its node sequence is lexicographically <= its
    reverse, which dedupes the two traversal directions.
    """
    out: list[tuple[int, ...]] = []
    path: list[int] = []

    def walk(v: int, visited: set[int]) -> None:
        path.append(v)
        visited.add(v)
        if len(path) >= 2:
            tup = tuple(path)
            if tup <= tup[::-1]:
                out.append(tup)
        if len(path) <= _MAX_PATH_BONDS:
            for u in g.adjacency[v]:
                if u not in visited:
                    walk(u, visited)
        visited.remove(v)
        path.pop()

    for start in range(g.num_nodes):
        walk(start, set())
    return out


def path_fp(g: MoleculeGraph) -> Fingerprint:
    """Linear-path fingerprint over canonical label sequences."""
    bond_type = _bond_types(g)
    bits = np.zeros(_NBITS, dtype=bool)
    for nodes in enumerate_simple_paths(g):
        seq: list[int] = []
        for i, v in enumerate(nodes):
            if i:
                seq.append(bond_type[(nodes[i - 1], v)])
            seq.append(g.nodes[v].atomic_number)
        canonical = min(seq, seq[::-1])
        text = ",".join(map(str, canonical))
        bits[fnv1a64(text.encode()) % _NBITS] = True
    return Fingerprint("path", bits)


def dice(a: Fingerprint, b: Fingerprint) -> float:
    """Dice coefficient; two empty fingerprints count as identical (1.0)."""
    if a.kind != b.kind:
        raise ValueError(f"fingerprint kinds differ: {a.kind} vs {b.kind}")
    if a.nbits != b.nbits:
        raise ValueError(f"fingerprint sizes differ: {a.nbits} vs {b.nbits}")
    total = a.count() + b.count()
    if total == 0:
        return 1.0
    return 2.0 * float((a.bits & b.bits).sum()) / total


def cosine_distance(u, v) -> float:
    """1 - cosine similarity, in [0, 2]; zero vectors are an error."""
    a = np.asarray(u, dtype=np.float64).reshape(-1)
    b = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(_cosine_distances(a, b[None])[0])


def _cosine_distances(u, rows) -> np.ndarray:
    """:func:`cosine_distance` from ``u`` to every row, in one call.

    A stack of 1×d @ d×1 products takes one vector dot product per row.
    """
    a = np.asarray(u, dtype=np.float64).reshape(-1)
    m = np.asarray(rows, dtype=np.float64)[:, None, :]
    na = np.linalg.norm(a)
    nm = np.sqrt((m @ m.transpose(0, 2, 1))[:, 0, 0])
    if na < 1e-12 or (nm < 1e-12).any():
        raise ValueError("cosine distance undefined for zero vectors")
    return 1.0 - (m @ a)[:, 0] / (na * nm)


@dataclass(frozen=True)
class BinStat:
    bin_index: int
    fp_kind: str
    mean: float
    std: float
    sample_size: int


@dataclass(frozen=True)
class NeighborHit:
    rank: int
    corpus_index: int
    cosine_distance: float
    dice_circular: float
    dice_path: float


@dataclass
class RetrievalReport:
    corpus_size: int
    bin_count: int
    bins: list[BinStat]
    neighbors: list[NeighborHit]


def _check_retrieval(bins: int, samples_per_bin: int | None, top_k: int) -> None:
    """Reject retrieval settings that no corpus can satisfy."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    if samples_per_bin is not None and samples_per_bin < 1:
        raise ConfigError(f"samples_per_bin must be >= 1, got {samples_per_bin}")
    if top_k < 1:
        raise ConfigError(f"top_k must be >= 1, got {top_k}")


def retrieval_analysis(
    query: MoleculeGraph,
    corpus: Sequence[MoleculeGraph],
    model: EncoderModel,
    bins: int = 20,
    samples_per_bin: int | None = None,
    seed: int = 0,
    top_k: int = 9,
) -> RetrievalReport:
    """Rank a corpus around a query in representation space and score bins
    by fingerprint similarity.

    The corpus is sorted by cosine distance of readout representations,
    partitioned into ``bins`` near-equal rank ranges, and each bin reports
    mean/std Dice similarity to the query for both fingerprint kinds over
    the whole bin (or a seeded sample of ``samples_per_bin``).
    """
    _check_retrieval(bins, samples_per_bin, top_k)
    if len(corpus) < bins:
        raise ValueError(f"corpus of {len(corpus)} is smaller than {bins} bins")
    reps = embed_molecules(model, list(corpus))
    q = embed_molecules(model, [query])[0]
    distances = _cosine_distances(q, reps)
    order = np.argsort(distances, kind="mergesort")

    query_fps = (circular_fp(query), path_fp(query))
    cache: dict[int, tuple[Fingerprint, Fingerprint]] = {}

    def fps(idx: int) -> tuple[Fingerprint, Fingerprint]:
        if idx not in cache:
            cache[idx] = (circular_fp(corpus[idx]), path_fp(corpus[idx]))
        return cache[idx]

    rng = np.random.default_rng(seed)
    stats: list[BinStat] = []
    for b, members in enumerate(np.array_split(order, bins)):
        chosen = members
        if samples_per_bin is not None and samples_per_bin < len(members):
            chosen = rng.choice(members, size=samples_per_bin, replace=False)
        dc = []
        dp = []
        for idx in chosen:
            fc, fp = fps(int(idx))
            dc.append(dice(query_fps[0], fc))
            dp.append(dice(query_fps[1], fp))
        stats.append(
            BinStat(b, "circular", float(np.mean(dc)), float(np.std(dc)), len(dc))
        )
        stats.append(
            BinStat(b, "path", float(np.mean(dp)), float(np.std(dp)), len(dp))
        )
    neighbors = []
    for rank, idx in enumerate(order[:top_k]):
        fc, fp = fps(int(idx))
        neighbors.append(
            NeighborHit(
                rank,
                int(idx),
                float(distances[idx]),
                dice(query_fps[0], fc),
                dice(query_fps[1], fp),
            )
        )
    return RetrievalReport(len(corpus), bins, stats, neighbors)
