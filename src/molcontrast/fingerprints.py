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
source atom form one CSR table.  Every walk reads that table, over all
molecules of the chunk at once.  The ring atoms of the circular invariants
come from one bridge-finding DFS over the chunk.  Each circular round
gives every atom a row of integers that fixes its text (its invariant's
fields, or its degree, label and sorted neighbour pairs); one lexsort
groups equal rows, and only the distinct rows' texts are built and hashed
with one vectorised FNV-1a, which runs one array step per byte column
over the texts sorted by falling length.  Paths are walked level by
level: the paths of k + 1 bonds extend those of k bonds by every
neighbour of their last atom not already on the path.  No path text is
built: each path's FNV-1a state grows with it, by the bytes of
``",{bond},{z}"`` read from a table of every uint8 value's decimal digits,
and of its two directions the one whose label row is not greater than
the other's sets the bit.  The one-molecule functions are the batch of
one.

Retrieval analysis embeds a corpus with the encoder readout (``h``, of
the config's ``hidden_dim`` columns, not the contrastive projection),
ranks it by cosine distance to a query, partitions the ranking into equal
rank-range bins, and reports fingerprint similarity statistics per bin
plus the nearest neighbors.  The query and the molecules it scores are
fingerprinted in one pass, the query as its first row, so a query with
up to ``_CHUNK - 1`` picks is one chunk; Dice counts the bits of rows
packed eight to a byte.

Callers rank several queries against one corpus, so the module keeps the
last corpus embedding :func:`retrieval_analysis` computed and its row
norms, read-only.  A call reuses them when its model has the same content
(a SHA-256 over the config's ``repr`` and every parameter's name and
bytes, so editing a parameter in place misses) and its corpus holds the
very same ``MoleculeGraph`` objects, immutable, in the same order.  The memo holds
the graphs by weak reference and is dropped as soon as any of them is
freed, so it never keeps a corpus, its embedding or its norms alive; the
next miss replaces it.  The query is embedded on every call.
"""

from __future__ import annotations

import functools
import hashlib
import weakref
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .encoder import EncoderModel, GraphBatch, embed_molecules
from .errors import ConfigError, NumericAbort
from .graph import MoleculeGraph

__all__ = [
    "fnv1a64",
    "Fingerprint",
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
_CHUNK = 256  # molecules fingerprinted together
_MIN_NORM = 1e-12  # a vector of smaller norm has no cosine distance
# ASCII decimal digits of every uint8 value, left-aligned, 0 past the last.
_DIGITS = np.frombuffer(
    b"".join(str(v).encode().ljust(3, b"\0") for v in range(256)), dtype=np.uint8
).reshape(256, 3)


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


def _ring_mask(rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """Whether each atom of a batch lies on a ring, bool [atoms]: the ends of
    every bond that is not a bridge.

    One iterative low-link DFS walks the batch's ``bonds_by_source()`` rows,
    all molecules at once.  An atom skips every row back to its DFS parent,
    so a bond listed twice between two atoms closes no ring.  A tree bond
    ``parent -> v`` is a bridge unless ``v``'s subtree reaches above
    ``parent``; any other bond repeats a tree bond or closes a cycle of
    tree bonds that are not bridges, so marking the ends of those marks
    every ring atom.
    """
    _, dst, _, start = rows
    nbr, ptr = dst.tolist(), start.tolist()
    n = len(ptr) - 1
    disc, low, in_ring = [-1] * n, [0] * n, [False] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(nbr[ptr[root] : ptr[root + 1]]))]
        while stack:
            v, parent, it = stack[-1]
            for u in it:
                if u == parent:
                    continue
                if disc[u] == -1:
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, v, iter(nbr[ptr[u] : ptr[u + 1]])))
                    break
                low[v] = min(low[v], disc[u])
            else:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] <= disc[parent]:
                        in_ring[parent] = in_ring[v] = True
    return np.array(in_ring, dtype=bool)


def _hash_distinct(keys: np.ndarray, text: Callable[..., str]) -> np.ndarray:
    """``fnv1a64(text(*row).encode())`` of every row of an integer key
    table, uint64 [rows].  One lexsort brings equal rows together, so each
    distinct row's text is built and hashed once."""
    order = np.lexsort(keys.T)
    keys = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    hashes = _fnv1a64_many([text(*row).encode() for row in keys[fresh].tolist()])
    out = np.empty(len(keys), dtype=np.uint64)
    out[order] = hashes[np.cumsum(fresh) - 1]
    return out


def _refine_text(degree: int, label: int, *pairs: int) -> str:
    """An atom's refine text from its key row: ``"{label}|{bond},{label};..."``
    over its ``degree`` sorted (bond type, neighbour label) pairs."""
    bonds, labels = pairs[0 : 2 * degree : 2], pairs[1 : 2 * degree : 2]
    return f"{label}|" + ";".join(map("{},{}".format, bonds, labels))


def _refine_batch(rows: tuple[np.ndarray, ...], labels: np.ndarray) -> np.ndarray:
    """One neighbourhood-hash round over the atoms of a batch's
    ``bonds_by_source()`` rows: each atom's label re-hashed with its sorted
    (bond type, neighbour label) pairs.

    An atom's key row is its degree, its label and its pairs, zero-padded;
    atoms with equal rows share one text."""
    src, dst, bond, start = rows
    degree = np.diff(start)
    order = np.lexsort((labels[dst], bond, src))  # rows stay sorted by source
    keys = np.zeros((len(degree), 2 + 2 * int(degree.max(initial=0))), dtype=np.uint64)
    keys[:, 0], keys[:, 1] = degree, labels
    slot = 2 + 2 * (np.arange(len(src)) - start[src])
    keys[src, slot], keys[src, slot + 1] = bond[order], labels[dst[order]]
    return _hash_distinct(keys, _refine_text)


def _circular_bits(graphs: Sequence[MoleculeGraph], b: GraphBatch, rows) -> np.ndarray:
    """Circular bits of every molecule of ``graphs``, batched as ``b`` with
    ``bonds_by_source()`` rows ``rows``, bool [molecules, nbits]."""
    charge = [node.formal_charge for g in graphs for node in g.nodes]
    keys = np.stack([b.node_atomic, np.diff(rows[3]), charge, _ring_mask(rows)], axis=1)
    inv = _hash_distinct(keys, lambda z, d, c, r: f"{z}|{d}|{c}|{r}")
    bits = np.zeros((b.num_graphs, _NBITS), dtype=bool)
    bits[b.node_graph, inv % _NBITS] = True
    for _ in range(_RADIUS):
        inv = _refine_batch(rows, inv)
        bits[b.node_graph, inv % _NBITS] = True
    return bits


def _fold_decimal(h: np.ndarray, values: np.ndarray) -> np.ndarray:
    """FNV-1a states ``h`` after each folds in the decimal text of its uint8
    value, in place: one step per digit column, over the rows whose value
    has that digit."""
    prime = np.uint64(_FNV_PRIME)
    for column in _DIGITS.T:
        digit = column[values]
        live = digit != 0
        if live.all():
            h ^= digit
            h *= prime
        elif live.any():
            h[live] = (h[live] ^ digit[live]) * prime
        else:
            break  # no value has this many digits
    return h


def _extend(h: np.ndarray, bond: np.ndarray, z: np.ndarray) -> np.ndarray:
    """FNV-1a states ``h`` of paths grown by one bond, in place: each folds
    in ``",{bond},{z}"``."""
    for values in (bond, z):
        h ^= ord(",")
        h *= np.uint64(_FNV_PRIME)
        _fold_decimal(h, values)
    return h


def _path_bits(b: GraphBatch, rows: tuple[np.ndarray, ...]) -> np.ndarray:
    """Path bits of every molecule in batch ``b``, bool [molecules, nbits].

    Level-synchronous walk: the paths of k + 1 bonds are those of k bonds
    extended by every neighbour of their last atom not already on the path.
    Each path's hash grows with it: FNV-1a of ``"z0,bond,z1,..."``, one
    ``",{bond},{z}"`` a level.  Every path is walked in both directions,
    and the direction whose label row is not greater than its reverse
    sets the bit, so each path hashes its lexicographically smaller text.
    A path is a column of ``atoms`` (int32) and ``labels`` (uint8), so each
    level's gathers and compares run along contiguous rows.
    """
    src, dst, bond, ptr = rows
    src, dst, ptr = src.astype(np.int32), dst.astype(np.int32), ptr.astype(np.int32)
    z, bond = b.node_atomic.astype(np.uint8), bond.astype(np.uint8)
    mol = b.node_graph.astype(np.int32)
    bits = np.zeros((b.num_graphs, _NBITS), dtype=bool)
    atoms = np.stack([src, dst])
    labels = np.stack([z[src], bond, z[dst]])
    h = _fold_decimal(np.full(b.num_nodes, _FNV_OFFSET, dtype=np.uint64), z)
    h = _extend(h[src], *labels[1:])
    while True:
        # Σ sign(row[i] - row[-1 - i]) 3^(half - 1 - i) has the sign of the
        # first pair that differs: balanced ternary, most significant first.
        half = len(labels) // 2
        sign = np.sign(labels[:half].astype(np.int16) - labels[::-1][:half])
        smaller = 3 ** np.arange(half - 1, -1, -1, dtype=np.int16) @ sign <= 0
        bits[mol[atoms[0, smaller]], h[smaller] % _NBITS] = True
        if len(atoms) > _MAX_PATH_BONDS or not atoms.shape[1]:
            return bits
        first = ptr[atoms[-1]]
        degree = ptr[atoms[-1] + 1] - first
        grown = np.repeat(np.arange(len(degree), dtype=np.int32), degree)
        # CSR position of each extension: its atom's first slot plus its rank
        pos = np.arange(len(grown), dtype=np.int32) + np.repeat(
            first - (np.cumsum(degree, dtype=np.int32) - degree), degree
        )
        nxt = dst[pos]
        prefix = atoms.take(grown, axis=1)
        keep = np.flatnonzero((prefix != nxt).all(axis=0))
        grown, pos, nxt = grown[keep], pos[keep], nxt[keep]
        atoms = np.concatenate([prefix.take(keep, axis=1), nxt[None]])
        labels = np.concatenate([labels.take(grown, axis=1), bond[None, pos], z[None, nxt]])
        h = _extend(h[grown], *labels[-2:])


def fingerprint_chunks(
    graphs: Sequence[MoleculeGraph],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Circular and path bits, bool [molecules, nbits] each, of every run of
    ``_CHUNK`` molecules in order.  Fixed-size chunks bound the path arrays
    (a traced peak of about 4.6 MB over 2,000 molecules of 11 atoms on
    average, 9.6 MB over 2,000 of 24), and a caller that keeps only what it
    derives from each chunk keeps its memory flat however many molecules it
    fingerprints."""
    for lo in range(0, len(graphs), _CHUNK):
        chunk = graphs[lo : lo + _CHUNK]
        b = GraphBatch.from_graphs(chunk)
        rows = b.bonds_by_source()
        yield _circular_bits(chunk, b, rows), _path_bits(b, rows)


def circular_fp(g: MoleculeGraph) -> Fingerprint:
    """Circular environment fingerprint; every round's invariants set bits."""
    b = GraphBatch.from_graphs([g])
    return Fingerprint("circular", _circular_bits([g], b, b.bonds_by_source())[0])


def path_fp(g: MoleculeGraph) -> Fingerprint:
    """Linear-path fingerprint over canonical label sequences."""
    b = GraphBatch.from_graphs([g])
    return Fingerprint("path", _path_bits(b, b.bonds_by_source())[0])


def dice(a: Fingerprint, b: Fingerprint) -> float:
    """Dice coefficient; two empty fingerprints count as identical (1.0)."""
    if a.kind != b.kind:
        raise ValueError(f"fingerprint kinds differ: {a.kind} vs {b.kind}")
    if a.nbits != b.nbits:
        raise ValueError(f"fingerprint sizes differ: {a.nbits} vs {b.nbits}")
    return float(_dice_rows(a.bits, b.bits[None])[0])


def _dice_rows(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """:func:`dice` of one bit vector against every row, in one call.  The
    bits are packed eight to a byte (the last byte zero-padded) and counted
    with ``np.bitwise_count``: the same integer counts as summing the bool
    rows."""
    query, rows = np.packbits(query), np.packbits(rows, axis=1)
    total = int(np.bitwise_count(query).sum()) + np.bitwise_count(rows).sum(axis=1)
    shared = np.bitwise_count(rows & query).sum(axis=1)
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


def _cosine_distances(u, rows, nm: np.ndarray | None = None) -> np.ndarray:
    """:func:`cosine_distance` from ``u`` to every row, in one call; ``nm``
    is ``_row_norms(rows)`` when the caller has it.

    A stack of 1×d @ d×1 products takes one vector dot product per row.
    """
    a = np.asarray(u, dtype=np.float64).reshape(-1)
    m = np.asarray(rows, dtype=np.float64)[:, None, :]
    na = np.linalg.norm(a)
    if nm is None:
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


# The last corpus embedding retrieval_analysis computed: (model digest,
# weak references to the corpus graphs, read-only representations, their
# read-only row norms).  Each entry is replaced whole, so a reader that
# took the entry sees one consistent entry, and the norms are freed with
# the representations; threads racing to replace it can only lose a memo.
_memo: tuple[bytes, list[weakref.ref], np.ndarray, np.ndarray] | None = None


def _model_digest(model: EncoderModel) -> bytes:
    """SHA-256 of everything a model's embedding reads: its config and every
    parameter's name, dtype, shape and bytes."""
    h = hashlib.sha256(repr(model.config).encode())
    for name, t in model.params.items():
        a = np.ascontiguousarray(t.data)
        h.update(f"\n{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a)
    return h.digest()


def _forget(reps: np.ndarray, _dead: weakref.ref) -> None:
    """A graph of the memo's corpus was freed, so no call can pass that
    corpus again: drop the memo if it still holds ``reps``.  The callback
    holds the embedding, not the entry, so an entry is in no reference
    cycle and is freed as soon as it is replaced or dropped."""
    global _memo
    if _memo is not None and _memo[2] is reps:
        _memo = None


def _corpus_embedding(
    model: EncoderModel, corpus: Sequence[MoleculeGraph]
) -> tuple[np.ndarray, np.ndarray]:
    """``embed_molecules(model, corpus)`` and its row norms, both read-only,
    from the memo when it holds this model's embedding of exactly these
    graph objects."""
    global _memo
    digest = _model_digest(model)
    memo = _memo
    if memo is not None:
        known, refs, reps, norms = memo
        if (
            known == digest
            and len(refs) == len(corpus)
            and all(ref() is g for ref, g in zip(refs, corpus))
        ):
            return reps, norms
    reps = embed_molecules(model, list(corpus))
    norms = _row_norms(reps)
    reps.flags.writeable = norms.flags.writeable = False
    forget = functools.partial(_forget, reps)
    _memo = (digest, [weakref.ref(g, forget) for g in corpus], reps, norms)
    return reps, norms


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

    The corpus embedding and its row norms come from the module's memo
    when the last call that embedded one had a model of the same content
    and exactly these graph objects in this order; otherwise they are
    computed and replace the memo.  The memo is dropped once any graph of
    its corpus is freed.  The query is embedded and every representation
    checked on each call, so a reused embedding gives the report, or the
    error, of a fresh one.  The query and the picked molecules are
    fingerprinted in one pass, the query first.
    """
    _check_retrieval(bins, samples_per_bin, top_k)
    if len(corpus) < bins:
        raise ValueError(f"corpus of {len(corpus)} is smaller than {bins} bins")
    reps, norms = _corpus_embedding(model, corpus)
    q = embed_molecules(model, [query])[0]
    # A representation of zero norm has no direction to rank by.
    if np.linalg.norm(q.astype(np.float64)) < _MIN_NORM:
        raise NumericAbort("the query's representation has zero norm")
    zero = np.flatnonzero(norms < _MIN_NORM)
    if zero.size:
        raise NumericAbort(f"corpus molecule {zero[0]}'s representation has zero norm")
    distances = _cosine_distances(q, reps, norms)
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
    # One fingerprint pass over the query, as row 0, and then the picks.
    row = np.cumsum(picked)  # a picked molecule's row
    graphs = [query, *(corpus[i] for i in np.flatnonzero(picked).tolist())]
    scored = []
    for circular, path in fingerprint_chunks(graphs):
        if not scored:
            query_circular, query_path = circular[0], path[0]
        scored.append((_dice_rows(query_circular, circular), _dice_rows(query_path, path)))
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
