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

Both kinds are computed for a batch of molecules at a time, in chunks of
``_CHUNK`` molecules laid end to end as the encoder's
:class:`~molcontrast.encoder.GraphBatch`, whose directed bonds sorted by
source atom form one CSR table.  Each circular round builds the text of
every atom of the chunk and hashes them all with one vectorised FNV-1a,
which runs one array step per byte column over the texts sorted by
falling length.  Paths are walked level by level: the paths of k + 1 bonds
extend those of k bonds by every neighbour of their last atom not already
on the path.  Each level's label rows are put in canonical direction,
deduplicated with a lexsort, and only the distinct rows are hashed.  The
one-molecule functions are the batch of one.

Retrieval analysis embeds a corpus with the encoder readout (the 512-d
``h``, not the contrastive projection), ranks it by cosine distance to a
query, partitions the ranking into equal rank-range bins, and reports
fingerprint similarity statistics per bin plus the nearest neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .encoder import EncoderModel, GraphBatch, embed_molecules
from .errors import ConfigError, NumericAbort
from .graph import MoleculeGraph

__all__ = [
    "fnv1a64",
    "Fingerprint",
    "ring_atoms",
    "circular_fp",
    "path_fp",
    "fingerprint_chunks",
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
_CHUNK = 64  # molecules fingerprinted together
_MIN_NORM = 1e-12  # a vector of smaller norm has no cosine distance


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a; the one hash behind fingerprints and scaffold keys."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _fnv1a64_many(texts: Sequence[bytes]) -> np.ndarray:
    """:func:`fnv1a64` of every text, uint64 [n], one array step per byte column.

    Rows are sorted by falling length, so the rows that still have a byte at
    column j are a prefix of the table and each column updates a slice.
    """
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    order = np.argsort(-lengths, kind="stable")
    width = int(lengths[order[0]]) if len(texts) else 0
    table = np.frombuffer(
        b"".join([texts[i].ljust(width, b"\0") for i in order.tolist()]), dtype=np.uint8
    ).reshape(len(texts), width)
    alive = np.searchsorted(-lengths[order], -np.arange(width), side="left")
    h = np.full(len(texts), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for j, k in enumerate(alive.tolist()):
        live = h[:k]
        live ^= table[:k, j]
        live *= prime
    out = np.empty_like(h)
    out[order] = h
    return out


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


def _refine_batch(b: GraphBatch, labels: np.ndarray) -> np.ndarray:
    """One neighbourhood-hash round over every atom of a batch: each atom's
    label re-hashed with its sorted (bond type, neighbour label) pairs."""
    src, dst, bond, start = b.bonds_by_source
    order = np.lexsort((labels[dst], bond, src))
    text = list(map(str, labels.tolist()))
    pairs = [f"{t},{text[u]}" for t, u in zip(bond[order].tolist(), dst[order].tolist())]
    ptr = start.tolist()
    return _fnv1a64_many(
        [
            f"{text[v]}|{';'.join(pairs[ptr[v] : ptr[v + 1]])}".encode()
            for v in range(b.num_nodes)
        ]
    )


def _circular_bits(graphs: Sequence[MoleculeGraph], b: GraphBatch) -> np.ndarray:
    """Circular bits of every molecule of ``graphs``, batched as ``b``,
    bool [molecules, nbits]."""
    in_ring = np.zeros(b.num_nodes, dtype=np.int8)
    sizes = b.graph_plan.counts
    for off, g in zip((np.cumsum(sizes) - sizes).tolist(), graphs):
        in_ring[[off + v for v in ring_atoms(g)]] = 1
    charge = [node.formal_charge for g in graphs for node in g.nodes]
    degree = np.diff(b.bonds_by_source[3])
    inv = _fnv1a64_many(
        [
            f"{z}|{d}|{c}|{r}".encode()
            for z, d, c, r in zip(
                b.node_atomic.tolist(), degree.tolist(), charge, in_ring.tolist()
            )
        ]
    )
    bits = np.zeros((b.num_graphs, _NBITS), dtype=bool)
    bits[b.node_graph, inv % _NBITS] = True
    for _ in range(_RADIUS):
        inv = _refine_batch(b, inv)
        bits[b.node_graph, inv % _NBITS] = True
    return bits


def _set_path_bits(bits: np.ndarray, mol: np.ndarray, labels: np.ndarray) -> None:
    """Set the bit of every path of one length, given its molecule and its
    (Z, bond, Z, ...) label row.

    A row and its reverse give one canonical row, the lexicographically
    smaller; only the distinct canonical rows are serialized and hashed.
    """
    rev = labels[:, ::-1]
    first = (labels != rev).argmax(axis=1)  # 0 for palindromes: keep as is
    at = np.arange(len(labels))
    flip = rev[at, first] < labels[at, first]
    canon = np.where(flip[:, None], rev, labels)
    order = np.lexsort(canon.T[::-1])
    canon = canon[order]
    fresh = np.ones(len(canon), dtype=bool)
    fresh[1:] = (canon[1:] != canon[:-1]).any(axis=1)
    hashes = _fnv1a64_many(
        [",".join(map(str, row)).encode() for row in canon[fresh].tolist()]
    )
    bits[mol[order], hashes[np.cumsum(fresh) - 1] % _NBITS] = True


def _path_bits(b: GraphBatch) -> np.ndarray:
    """Path bits of every molecule in a batch, bool [molecules, nbits].

    Level-synchronous walk: the paths of k + 1 bonds are those of k bonds
    extended by every neighbour of their last atom not already on the path.
    Every path is walked in both directions, and both give one canonical
    label row.  Atom ids are int32 and labels uint8, so the path arrays
    stay compact.
    """
    src, dst, bond, ptr = b.bonds_by_source
    src, dst, ptr = src.astype(np.int32), dst.astype(np.int32), ptr.astype(np.int32)
    z, bond = b.node_atomic.astype(np.uint8), bond.astype(np.uint8)
    mol = b.node_graph.astype(np.int32)
    bits = np.zeros((b.num_graphs, _NBITS), dtype=bool)
    atoms = np.stack([src, dst], axis=1)
    labels = np.stack([z[src], bond, z[dst]], axis=1)
    while True:
        _set_path_bits(bits, mol[atoms[:, 0]], labels)
        if atoms.shape[1] > _MAX_PATH_BONDS or not len(atoms):
            return bits
        last = atoms[:, -1]
        first = ptr[last]
        degree = ptr[last + 1] - first
        grown = np.repeat(np.arange(len(atoms), dtype=np.int32), degree)
        # CSR position of each extension: its atom's first slot plus its rank
        pos = np.arange(len(grown), dtype=np.int32) + np.repeat(
            first - (np.cumsum(degree, dtype=np.int32) - degree), degree
        )
        nxt = dst[pos]
        prefix = atoms[grown]
        keep = (prefix != nxt[:, None]).all(axis=1)
        atoms = np.concatenate([prefix[keep], nxt[keep, None]], axis=1)
        labels = np.concatenate(
            [labels[grown[keep]], bond[pos[keep], None], z[nxt[keep], None]], axis=1
        )


def fingerprint_chunks(
    graphs: Sequence[MoleculeGraph],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Circular and path bits, bool [molecules, nbits] each, of every run of
    ``_CHUNK`` molecules in order.  Fixed-size chunks bound the path arrays,
    and a caller that keeps only what it derives from each chunk keeps its
    memory flat however many molecules it fingerprints."""
    for lo in range(0, len(graphs), _CHUNK):
        chunk = graphs[lo : lo + _CHUNK]
        b = GraphBatch.from_graphs(chunk)
        yield _circular_bits(chunk, b), _path_bits(b)


def circular_fp(g: MoleculeGraph) -> Fingerprint:
    """Circular environment fingerprint; every round's invariants set bits."""
    return Fingerprint("circular", _circular_bits([g], GraphBatch.from_graphs([g]))[0])


def path_fp(g: MoleculeGraph) -> Fingerprint:
    """Linear-path fingerprint over canonical label sequences."""
    return Fingerprint("path", _path_bits(GraphBatch.from_graphs([g]))[0])


def dice(a: Fingerprint, b: Fingerprint) -> float:
    """Dice coefficient; two empty fingerprints count as identical (1.0)."""
    if a.kind != b.kind:
        raise ValueError(f"fingerprint kinds differ: {a.kind} vs {b.kind}")
    if a.nbits != b.nbits:
        raise ValueError(f"fingerprint sizes differ: {a.nbits} vs {b.nbits}")
    return float(_dice_rows(a.bits, b.bits[None])[0])


def _dice_rows(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`dice` of one bit vector against every row, in one call."""
    total = int(query.sum()) + rows.sum(axis=1)
    shared = (rows & query).sum(axis=1)
    out = np.ones(len(rows))
    some = total > 0
    out[some] = 2.0 * shared[some].astype(np.float64) / total[some]
    return out


def cosine_distance(u, v) -> float:
    """1 - cosine similarity, in [0, 2]; zero vectors are an error."""
    a = np.asarray(u, dtype=np.float64).reshape(-1)
    b = np.asarray(v, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(_cosine_distances(a, b[None])[0])


def _row_norms(rows) -> np.ndarray:
    """The float64 norm of every row."""
    m = np.asarray(rows, dtype=np.float64)[:, None, :]
    return np.sqrt((m @ m.transpose(0, 2, 1))[:, 0, 0])


def _cosine_distances(u, rows) -> np.ndarray:
    """:func:`cosine_distance` from ``u`` to every row, in one call.

    A stack of 1×d @ d×1 products takes one vector dot product per row.
    """
    a = np.asarray(u, dtype=np.float64).reshape(-1)
    m = np.asarray(rows, dtype=np.float64)[:, None, :]
    na = np.linalg.norm(a)
    nm = _row_norms(rows)
    if na < _MIN_NORM or (nm < _MIN_NORM).any():
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
    # A representation of zero norm has no direction to rank by.
    if np.linalg.norm(q.astype(np.float64)) < _MIN_NORM:
        raise NumericAbort("the query's representation has zero norm")
    zero = np.flatnonzero(_row_norms(reps) < _MIN_NORM)
    if zero.size:
        raise NumericAbort(f"corpus molecule {zero[0]}'s representation has zero norm")
    distances = _cosine_distances(q, reps)
    order = np.argsort(distances, kind="mergesort")

    rng = np.random.default_rng(seed)
    chosen = []
    for members in np.array_split(order, bins):
        if samples_per_bin is not None and samples_per_bin < len(members):
            members = rng.choice(members, size=samples_per_bin, replace=False)
        chosen.append(members)
    top = order[:top_k]
    picked = np.zeros(len(corpus), dtype=bool)
    picked[np.concatenate(chosen + [top])] = True
    picks = np.flatnonzero(picked)
    row = np.cumsum(picked) - 1  # a picked molecule's row among the picks
    query_circular = circular_fp(query).bits
    query_path = path_fp(query).bits
    scored = [
        (_dice_rows(query_circular, circular), _dice_rows(query_path, path))
        for circular, path in fingerprint_chunks([corpus[i] for i in picks.tolist()])
    ]
    dice_circular = np.concatenate([dc for dc, _ in scored])
    dice_path = np.concatenate([dp for _, dp in scored])

    stats: list[BinStat] = []
    for b, members in enumerate(chosen):
        dc = dice_circular[row[members]]
        dp = dice_path[row[members]]
        stats.append(
            BinStat(b, "circular", float(np.mean(dc)), float(np.std(dc)), len(dc))
        )
        stats.append(
            BinStat(b, "path", float(np.mean(dp)), float(np.std(dp)), len(dp))
        )
    neighbors = []
    for rank, idx in enumerate(top.tolist()):
        neighbors.append(
            NeighborHit(
                rank,
                idx,
                float(distances[idx]),
                float(dice_circular[row[idx]]),
                float(dice_path[row[idx]]),
            )
        )
    return RetrievalReport(len(corpus), bins, stats, neighbors)
