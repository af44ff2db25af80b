"""Minimal reverse-mode automatic differentiation on an append-only tape.

Tensors wrap numpy arrays in float32 by default; reductions (matmul,
segment sums, full sums, row norms) accumulate in float64 before casting
back, which keeps results independent of summation order at storage
precision.  The backward scatters of :func:`embedding_lookup` and
:func:`message_sum` are the exception: they accumulate in the dtype of the
table or of ``x``, as the ``numpy.add.at`` they replaced did.  A whole
tape can also be run in float64, which is how the finite-difference
oracles compare gradients without float32 noise.

Ops are free functions taking the tape first; an op is recorded only when
one of its inputs is connected to a tensor with ``requires_grad`` set.
Inference relies on that rule: it runs on parameter tensors without
``requires_grad`` that share the trained arrays (``EncoderModel.frozen``),
so nothing is recorded and each intermediate is freed once used, with the
same forward values as a recording pass.  An op records which of its
inputs are tracked, and its backward computes gradients for those only.
:func:`backward` walks the records in reverse with a fixed accumulation
order, making gradients bit-identical for identical tapes.

Every scatter (segment sums and means, the embedding-lookup backward, the
:func:`message_sum` aggregate) adds the rows that land in one output row
sequentially, in their original row order: the same order as
``numpy.add.at``, so its results equal ``numpy.add.at``'s bit for bit.  The
index work behind a scatter (validation, the sorts, the degree-sorted slot
layout or the block split) lives in an :class:`IndexPlan`, built once per
index array and reused by every op that takes it.

Every matrix product (``linear`` forward and backward, ``matmul_t``) runs in
float64 through :func:`_matmul64`.  Importing this module pins numpy's
bundled OpenBLAS to one thread for the whole process, so each BLAS call has
one fixed reduction order.  Parallelism comes from splitting a large product
into contiguous row blocks, one single-thread dgemm each, run at once on
:func:`set_threads` workers (default: the CPUs this process may use).  A
block computes its rows with the same kernels and the same order over the
inner dimension as the whole product, so results are bit-identical for any
worker count.  Where the bundled OpenBLAS is not found, BLAS keeps its own
threading and the products are not split.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "Tensor",
    "Tape",
    "IndexPlan",
    "tensor",
    "constant",
    "backward",
    "embedding_lookup",
    "linear",
    "relu",
    "logistic",
    "softplus",
    "segment_sum",
    "segment_mean",
    "message_sum",
    "l2_normalize_rows",
    "matmul_t",
    "add",
    "sub",
    "mul",
    "div",
    "exp",
    "log",
    "sum",
    "mean",
    "scale",
    "dropout",
    "numeric_gradients",
    "check_gradients",
    "gradcheck_report",
    "set_threads",
]

_tensor_ids = itertools.count()


class Tensor:
    """A numpy array plus autodiff bookkeeping.

    Tensors hash by identity; the object itself is the key in gradient maps.
    """

    __slots__ = ("data", "requires_grad", "tid")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.requires_grad = requires_grad
        self.tid = next(_tensor_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        grad = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad})"


def tensor(
    values,
    requires_grad: bool = False,
    dtype=np.float32,
    check: bool = True,
) -> Tensor:
    """Build a tensor, rejecting NaN/Inf payloads up front."""
    data = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    if check and data.size and not np.isfinite(data).all():
        raise ValueError("tensor payload contains NaN or Inf")
    return Tensor(data, requires_grad=requires_grad)


def constant(values, dtype=np.float32) -> Tensor:
    """A tensor that never receives gradients (masks, coefficients)."""
    return tensor(values, requires_grad=False, dtype=dtype, check=False)


@dataclass
class _Record:
    out_tid: int
    inputs: tuple[Tensor, ...]
    backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


class Tape:
    """Append-only record of differentiable ops, in execution order."""

    def __init__(self) -> None:
        self._records: list[_Record] = []
        self._live: set[int] = set()

    def __len__(self) -> int:
        return len(self._records)

    def _tracked(self, t: Tensor) -> bool:
        return t.requires_grad or t.tid in self._live

    def _record(
        self,
        out: Tensor,
        inputs: Sequence[Tensor],
        backward_fn: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
    ) -> None:
        if any(self._tracked(t) for t in inputs):
            self._records.append(_Record(out.tid, tuple(inputs), backward_fn))
            self._live.add(out.tid)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(param) for every ``requires_grad`` tensor.

    Args:
        tape: the tape that recorded the forward pass.
        loss: a scalar tensor produced on that tape.

    Returns:
        Map from parameter tensor to its gradient array.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    if loss.tid not in tape._live:
        raise ValueError("loss tensor was not produced on this tape")
    grads: dict[int, np.ndarray] = {
        loss.tid: np.ones((), dtype=loss.data.dtype)
    }
    result: dict[Tensor, np.ndarray] = {}
    for record in reversed(tape._records):
        out_grad = grads.pop(record.out_tid, None)
        if out_grad is None:
            continue
        input_grads = record.backward_fn(out_grad)
        for inp, g in zip(record.inputs, input_grads):
            if g is None or not tape._tracked(inp):
                continue
            if inp.requires_grad:
                if inp in result:
                    result[inp] = result[inp] + g
                else:
                    result[inp] = g.copy() if g.base is not None else g
            if inp.tid in tape._live:
                if inp.tid in grads:
                    grads[inp.tid] = grads[inp.tid] + g
                else:
                    grads[inp.tid] = g
    return result


def _pin_blas() -> bool:
    """Set numpy's bundled OpenBLAS to one thread; False if it is not found."""
    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_-*.so")
    )
    for path in libs:
        try:
            set_num_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_num_threads.argtypes = [ctypes.c_int]
        set_num_threads.restype = None
        set_num_threads(1)
        return True
    return False


_BLAS_PINNED = _pin_blas()
# Each block of a split product carries at least this many multiply-adds.
# Handing a thread less costs more than it saves: fixture-size products
# (~3M) ran slower on the pool.  It also keeps every block far above the
# ~1M multiply-adds under which OpenBLAS switches to its small-matrix
# kernels, whose bits differ from the whole product's.
_BLOCK_MACS = 1 << 25
_workers = 1
_pool: ThreadPoolExecutor | None = None


def set_threads(n: int) -> int:
    """Run large float64 products on ``n`` threads; returns the count in
    effect, which stays 1 when BLAS could not be pinned to one thread."""
    global _workers, _pool
    if n < 1:
        raise ValueError(f"threads must be >= 1, got {n}")
    _workers = n if _BLAS_PINNED else 1
    # The pool starts its threads on first use; a replaced pool's threads
    # exit once no running product holds it.
    _pool = ThreadPoolExecutor(_workers - 1) if _workers > 1 else None
    return _workers


set_threads(
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# A forked child inherits the pool object but none of its threads.
os.register_at_fork(after_in_child=lambda: set_threads(_workers))


def _float64(x: np.ndarray) -> np.ndarray:
    # A float64 array that owns its data is used as it is.  Anything else is
    # copied, keeping every product a gemm on contiguous operands: an array
    # times its own transpose would go to syrk, a strided view to numpy's
    # loop without BLAS.
    if x.dtype == np.float64 and x.flags.owndata:
        return x
    return x.astype(np.float64)


def _matmul64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in float64; large products are split by rows across the
    workers, bit-identical to the unsplit product.

    Each block of rows is one single-thread dgemm of those rows of ``a``
    against all of ``b``, which sums every output element in the same order
    as the whole product does, as long as the block runs on the same
    kernels.  So a block has at least two rows (one row goes to gemv) and
    at least ``_BLOCK_MACS`` multiply-adds, and a width that is not a
    multiple of 8 is not split: OpenBLAS's SkylakeX kernels compute the
    last ``n % 8`` columns in row tiles counted from the start of each call,
    so a block edge moves their bits.  The float64 casts of the inputs are
    freed on return.
    """
    a, b = _float64(a), _float64(b)
    m, k = a.shape
    n = b.shape[1]
    pool, parts = _pool, 1
    if pool is not None and n % 8 == 0:
        parts = min(_workers, m // 2, m * k * n // _BLOCK_MACS)
    if parts < 2:
        return a @ b
    out = np.empty((m, n))
    cuts = [m * i // parts for i in range(parts + 1)]
    futures = [
        pool.submit(np.matmul, a[lo:hi], b, out=out[lo:hi])
        for lo, hi in zip(cuts[1:-1], cuts[2:])
    ]
    try:
        np.matmul(a[: cuts[1]], b, out=out[: cuts[1]])
    finally:
        for f in futures:
            f.result()
    return out


class IndexPlan:
    """Validated row ids plus the order in which to scatter-add by them.

    Built once per ``(ids, rows)`` and reusable by every op that gathers
    or scatters by those ids, forward and backward: range checks, the
    sorts and the segment counts are paid once, not per call.  The scatter
    schedule is built lazily, on the first scatter, so a plan used only for
    gathers (inference lookups) never sorts.

    The schedule is one of two layouts, picked by :attr:`narrow`:

    * **degree-sorted** (:meth:`layout`, narrow plans: no row receives more
      ids than there are rows, e.g. edges by node): rows are ordered by
      falling count, so the rows that receive a j-th id form a prefix of
      that order, of length ``n_j`` (``n_0 >= n_1 >= ...``).  Slot ``j``
      lists, for each of those rows in that order, the position in ``ids``
      of the row's j-th id.  A scatter adds slot after slot into the first
      ``n_j`` rows of a row-sorted accumulator, in place, and un-permutes
      once at the end.
    * **blocks** (:meth:`blocks`, wide plans: few rows with many ids each,
      e.g. atoms by embedding-table row): ids sorted stably by row, and the
      ``(row, lo, hi)`` range of every non-empty row in that order.
    """

    __slots__ = ("ids", "rows", "_counts", "_layout", "_blocks")

    def __init__(self, ids, rows: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"ids must be 1-d, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= rows):
            raise IndexError(f"id out of range for {rows} rows")
        self.ids = ids
        self.rows = rows
        self._counts: np.ndarray | None = None
        self._layout: tuple | None = None
        self._blocks: tuple | None = None

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """How many ids land in each of the ``rows`` rows."""
        if self._counts is None:
            self._counts = np.bincount(self.ids, minlength=self.rows)
        return self._counts

    @property
    def narrow(self) -> bool:
        """No row receives more ids than there are rows."""
        return not self.ids.size or int(self.counts.max()) <= self.rows

    def layout(self) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The degree-sorted layout ``(position, slots, sizes)``.

        ``position[r]`` is row ``r``'s place in the falling-count order
        (ties keep row order), ``sizes[j]`` is ``n_j`` and
        ``slots[sum(sizes[:j]):][:sizes[j]]`` is slot ``j``.
        """
        if self._layout is None:
            counts = self.counts
            by_count = np.argsort(-counts, kind="stable")
            position = np.empty(self.rows, dtype=np.int64)
            position[by_count] = np.arange(self.rows)
            key = position[self.ids]
            order = np.argsort(key, kind="stable")  # by row, then id order
            sorted_counts = counts[by_count]
            starts = np.cumsum(sorted_counts) - sorted_counts
            key = key[order]
            rank = np.arange(order.size) - starts[key]
            sizes = np.bincount(rank)
            # Slot j holds the rows of positions 0..n_j-1, so an id of rank j
            # at position p goes to place p of slot j.
            slots = np.empty_like(order)
            slots[(np.cumsum(sizes) - sizes)[rank] + key] = order
            self._layout = (position, slots, sizes.tolist())
        return self._layout

    def blocks(self) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        """``(order, [(row, lo, hi), ...])``: ids stably sorted by row, and
        each non-empty row's range in that order."""
        if self._blocks is None:
            counts = self.counts
            ends = np.cumsum(counts)
            self._blocks = (
                np.argsort(self.ids, kind="stable"),
                [
                    (int(s), int(ends[s] - counts[s]), int(ends[s]))
                    for s in np.flatnonzero(counts)
                ],
            )
        return self._blocks


def _as_plan(ids, rows: int) -> IndexPlan:
    """``ids`` as a plan over ``rows`` rows; raw id arrays get a fresh one."""
    if not isinstance(ids, IndexPlan):
        return IndexPlan(ids, rows)
    if ids.rows != rows:
        raise ValueError(f"plan covers {ids.rows} rows, expected {rows}")
    return ids


def _scatter_rows(
    plan: IndexPlan, rows: Callable, width: int, row_dtype, dtype, out_dtype=None
) -> np.ndarray:
    """``out[ids[i]] += m[i]`` for i in order, into ``plan.rows`` zero rows
    accumulated in ``dtype``, returned as ``out_dtype`` (default ``dtype``).

    The messages ``m`` are never materialised in id order: ``rows(e, buf)``
    writes ``m[e]`` for an index array ``e`` into ``buf`` (``len(e)`` by
    ``width``, ``row_dtype``) and returns it.  Each output row receives its
    messages one by one in id order, which makes the result bit-identical
    to ``numpy.add.at`` on ``np.zeros((rows, width), dtype)``.

    Narrow plans run on the degree-sorted :meth:`IndexPlan.layout`: slot
    ``j`` is gathered into one reused buffer and added in place into the
    first ``n_j`` rows of the row-sorted accumulator; the accumulator is
    cast to ``out_dtype`` before the one un-permuting gather, so no second
    accumulator-precision array is made.  Wide plans gather all messages
    in :meth:`IndexPlan.blocks` order and sum each row's contiguous block.
    """
    dtype = np.dtype(dtype)
    out_dtype = dtype if out_dtype is None else np.dtype(out_dtype)
    if plan.narrow:
        position, slots, sizes = plan.layout()
        acc = np.empty((plan.rows, width), dtype=dtype)
        buf = np.empty((plan.rows, width), dtype=row_dtype)
        zero = dtype.type(0)
        acc[sizes[0] if sizes else 0 :] = zero  # rows that receive no id
        lo = 0
        for j, n in enumerate(sizes):
            m = rows(slots[lo : lo + n], buf[:n])
            # Slot 0 computes 0 + m, as a zeroed accumulator would (which
            # turns -0.0 into +0.0), without zero-filling n_0 rows first.
            np.add(acc[:n] if j else zero, m, out=acc[:n])
            lo += n
        if buf.dtype == out_dtype != dtype:
            np.copyto(buf, acc, casting="unsafe")  # cast into the spent buffer
            acc = buf
        return np.take(acc.astype(out_dtype, copy=False), position, axis=0)
    order, blocks = plan.blocks()
    out = np.zeros((plan.rows, width), dtype=dtype)
    xs = rows(order, np.empty((order.size, width), dtype=row_dtype))
    for s, lo, hi in blocks:
        block = xs[lo:hi]
        if width == 1:
            # A one-column sum is pairwise; cumsum is strictly sequential.
            out[s] += np.cumsum(block, axis=0, dtype=dtype)[-1]
        else:
            # Summing axis 0 of a C-ordered block of two or more columns
            # adds whole rows one after another.
            out[s] += block.sum(axis=0, dtype=dtype)
    return out.astype(out_dtype, copy=False)


def _scatter_add(x: np.ndarray, plan: IndexPlan, dtype, out_dtype=None) -> np.ndarray:
    """``out[ids[i]] += x[i]`` in id order; see :func:`_scatter_rows`."""
    # Every gather into a buffer uses mode="clip", which writes straight into
    # ``out`` where "raise" would go through a temporary; all indices come
    # from validated plans.
    def rows(e, buf):
        return np.take(x, e, axis=0, out=buf, mode="clip")

    return _scatter_rows(plan, rows, x.shape[1], x.dtype, dtype, out_dtype)


def _check_2d(name: str, t: Tensor) -> None:
    if t.data.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {t.data.shape}")


# -- indexing and structure ops ---------------------------------------


def embedding_lookup(tape: Tape, table: Tensor, indices) -> Tensor:
    """Row gather ``table[indices]``; backward scatter-adds into the table.

    ``indices`` is an id array or an :class:`IndexPlan` over the table rows.
    """
    _check_2d("table", table)
    plan = _as_plan(indices, table.data.shape[0])
    out = Tensor(table.data[plan.ids])

    def bwd(g: np.ndarray):
        return (_scatter_add(g, plan, table.data.dtype),)

    tape._record(out, (table,), bwd)
    return out


def _segment_plan(x: Tensor, segment_ids, num_segments: int | None) -> IndexPlan:
    _check_2d("x", x)
    if num_segments is None:
        if not isinstance(segment_ids, IndexPlan):
            raise ValueError("num_segments is required with raw segment ids")
        num_segments = segment_ids.rows
    plan = _as_plan(segment_ids, num_segments)
    if plan.ids.shape != (x.data.shape[0],):
        raise ValueError(
            f"segment_ids shape {plan.ids.shape} does not match "
            f"{x.data.shape[0]} rows"
        )
    return plan


def segment_sum(
    tape: Tape, x: Tensor, segment_ids, num_segments: int | None = None
) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets.

    ``segment_ids`` is an id array or an :class:`IndexPlan`, whose row count
    stands in for ``num_segments``.
    """
    plan = _segment_plan(x, segment_ids, num_segments)
    out = Tensor(_scatter_add(x.data, plan, np.float64, x.data.dtype))

    def bwd(g: np.ndarray):
        return (g[plan.ids],)

    tape._record(out, (x,), bwd)
    return out


def segment_mean(
    tape: Tape, x: Tensor, segment_ids, num_segments: int | None = None
) -> Tensor:
    """Mean of rows per segment; empty segments are an error."""
    plan = _segment_plan(x, segment_ids, num_segments)
    counts = plan.counts
    if (counts == 0).any():
        empty = int(np.nonzero(counts == 0)[0][0])
        raise ValueError(f"segment {empty} is empty; mean is undefined")
    acc = _scatter_add(x.data, plan, np.float64)
    out = Tensor((acc / counts[:, None]).astype(x.data.dtype))

    def bwd(g: np.ndarray):
        inv = (1.0 / counts).astype(x.data.dtype)
        return (g[plan.ids] * inv[plan.ids][:, None],)

    tape._record(out, (x,), bwd)
    return out


def message_sum(
    tape: Tape,
    x: Tensor,
    src,
    dst,
    type_table: Tensor,
    type_ids,
    dir_table: Tensor,
    dir_ids,
    coeff: np.ndarray | None = None,
) -> Tensor:
    """Message-passing aggregate in one tape record.

    ``out[v] = sum over edges i with dst[i] == v of m[i]``, where
    ``m[i] = x[src[i]] + (type_table[type_ids[i]] + dir_table[dir_ids[i]])``,
    times ``coeff[i]`` when given.  Messages are formed at ``x``'s precision
    and summed in float64 in edge order, so the result equals the chain
    ``embedding_lookup`` -> ``add`` -> [``mul``] -> ``segment_sum`` bit for
    bit.  Every index argument is an id array or an :class:`IndexPlan`;
    ``src`` and ``dst`` index the rows of ``x``, and both tables share its
    dtype.  ``coeff`` is a constant of one value per edge.

    No edge-by-width array is built in the forward when ``dst`` is narrow,
    which node plans of a molecule batch are (a node receives at most one
    edge from each node).  The bond embeddings enter as one pair table
    ``type_table[t] + dir_table[d]`` (one row per type and direction), and
    the messages of each slot of ``dst``'s degree-sorted layout
    (:meth:`IndexPlan.layout`) are gathered from ``x`` and the pair table
    into a reused buffer and added in place.  The
    backward sums the ``x`` gradient the same way on ``src``'s layout, from
    ``g[dst]`` slot by slot; each tracked bond table costs one edge-by-width
    gather of ``g[dst]`` in its block order.
    """
    _check_2d("x", x)
    _check_2d("type_table", type_table)
    _check_2d("dir_table", dir_table)
    dtype = x.data.dtype
    if type_table.data.dtype != dtype or dir_table.data.dtype != dtype:
        raise ValueError("type_table and dir_table must have x's dtype")
    n, width = x.data.shape
    src = _as_plan(src, n)
    dst = _as_plan(dst, n)
    tplan = _as_plan(type_ids, type_table.data.shape[0])
    dplan = _as_plan(dir_ids, dir_table.data.shape[0])
    edges = len(src)
    if not len(dst) == len(tplan) == len(dplan) == edges:
        raise ValueError("src, dst, type_ids and dir_ids differ in length")
    col = None
    if coeff is not None:
        col = np.asarray(coeff, dtype=dtype).reshape(-1, 1)
        if col.shape[0] != edges:
            raise ValueError(f"coeff has {col.shape[0]} values for {edges} edges")
    dirs = dir_table.data.shape[0]
    pair_table = (type_table.data[:, None] + dir_table.data[None]).reshape(-1, width)
    pair_ids = tplan.ids * dirs + dplan.ids

    def messages(e: np.ndarray, buf: np.ndarray) -> np.ndarray:
        np.take(x.data, src.ids[e], axis=0, out=buf, mode="clip")
        buf += pair_table[pair_ids[e]]
        if col is not None:
            buf *= col[e]
        return buf

    out = Tensor(_scatter_rows(dst, messages, width, dtype, np.float64, dtype))
    need = [tape._tracked(t) for t in (x, type_table, dir_table)]
    plans = (src, tplan, dplan)
    tables = (x, type_table, dir_table)

    def bwd(g: np.ndarray):
        def grads(e: np.ndarray, buf: np.ndarray) -> np.ndarray:
            np.take(g, dst.ids[e], axis=0, out=buf, mode="clip")
            if col is not None:
                buf *= col[e]
            return buf

        return tuple(
            _scatter_rows(plan, grads, width, g.dtype, t.data.dtype) if needed else None
            for plan, t, needed in zip(plans, tables, need)
        )

    tape._record(out, tables, bwd)
    return out


# -- dense linear algebra ---------------------------------------------


def linear(tape: Tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` with shapes [n,a] x [a,k] + [k]."""
    _check_2d("x", x)
    _check_2d("w", w)
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(
            f"linear shapes incompatible: x {x.data.shape} vs w {w.data.shape}"
        )
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(
            f"bias shape {b.data.shape} does not match output width {w.data.shape[1]}"
        )
    y = _matmul64(x.data, w.data).astype(x.data.dtype)
    y += b.data
    out = Tensor(y)

    def bwd(g: np.ndarray):
        g64 = g.astype(np.float64)
        dx = _matmul64(g64, w.data.T).astype(x.data.dtype)
        dw = _matmul64(x.data.T, g64).astype(w.data.dtype)
        db = g64.sum(axis=0).astype(b.data.dtype)
        return (dx, dw, db)

    tape._record(out, (x, w, b), bwd)
    return out


def matmul_t(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """``a @ b.T`` for [n,d] x [m,d] -> [n,m]."""
    _check_2d("a", a)
    _check_2d("b", b)
    if a.data.shape[1] != b.data.shape[1]:
        raise ValueError(
            f"matmul_t inner dims differ: {a.data.shape} vs {b.data.shape}"
        )
    out = Tensor(_matmul64(a.data, b.data.T).astype(a.data.dtype))
    need_a, need_b = tape._tracked(a), tape._tracked(b)

    def bwd(g: np.ndarray):
        da = _matmul64(g, b.data).astype(a.data.dtype) if need_a else None
        db = _matmul64(g.T, a.data).astype(b.data.dtype) if need_b else None
        return (da, db)

    tape._record(out, (a, b), bwd)
    return out


def l2_normalize_rows(tape: Tape, x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row to unit Euclidean norm; zero-norm rows are an error."""
    _check_2d("x", x)
    x64 = x.data.astype(np.float64)
    norms = np.sqrt((x64**2).sum(axis=1))
    if (norms < eps).any():
        row = int(np.nonzero(norms < eps)[0][0])
        raise ValueError(f"row {row} has near-zero norm; cannot normalize")
    y64 = x64 / norms[:, None]
    out = Tensor(y64.astype(x.data.dtype))

    def bwd(g: np.ndarray):
        g64 = g.astype(np.float64)
        dot = (g64 * y64).sum(axis=1, keepdims=True)
        dx = (g64 - y64 * dot) / norms[:, None]
        return (dx.astype(x.data.dtype),)

    tape._record(out, (x,), bwd)
    return out


# -- elementwise ops ---------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.astype(np.float64).sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1
    )
    if axes:
        grad = grad.astype(np.float64).sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _elementwise_pair(tape, a, b, fwd, da_fn, db_fn):
    out = Tensor(fwd(a.data, b.data))
    # Decided at record time: constants (masks, shifts, labels) get no
    # gradient computed only to be dropped by backward().
    need_a, need_b = tape._tracked(a), tape._tracked(b)

    def bwd(g: np.ndarray):
        da = db = None
        if need_a:
            da = _unbroadcast(da_fn(g), a.data.shape).astype(a.data.dtype)
        if need_b:
            db = _unbroadcast(db_fn(g), b.data.shape).astype(b.data.dtype)
        return (da, db)

    tape._record(out, (a, b), bwd)
    return out


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    return _elementwise_pair(
        tape, a, b, lambda x, y: x + y, lambda g: g, lambda g: g
    )


def sub(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    return _elementwise_pair(
        tape, a, b, lambda x, y: x - y, lambda g: g, lambda g: -g
    )


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    return _elementwise_pair(
        tape, a, b, lambda x, y: x * y,
        lambda g: g * b.data, lambda g: g * a.data,
    )


def div(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    return _elementwise_pair(
        tape, a, b, lambda x, y: x / y,
        lambda g: g / b.data,
        lambda g: -g * a.data / (b.data * b.data),
    )


def scale(tape: Tape, x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (not differentiated through)."""
    out = Tensor(x.data * x.data.dtype.type(factor))

    def bwd(g: np.ndarray):
        return (g * x.data.dtype.type(factor),)

    tape._record(out, (x,), bwd)
    return out


def relu(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0))

    def bwd(g: np.ndarray):
        return (g * (x.data > 0),)

    tape._record(out, (x,), bwd)
    return out


def logistic(x) -> np.ndarray:
    """``1 / (1 + exp(-x))`` in float64, for any ``x`` including +-inf.

    Both branches are formed from ``e = exp(-|x|)``, which lies in [0, 1],
    so nothing overflows: ``1 / (1 + e)`` for ``x >= 0``, else ``e / (1 + e)``.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(tape: Tape, x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` with the linear branch above x = 30."""
    xd = x.data
    out_data = np.where(xd > 30, xd, np.log1p(np.exp(np.minimum(xd, 30))))
    out = Tensor(out_data.astype(xd.dtype))

    def bwd(g: np.ndarray):
        return ((g * logistic(xd)).astype(xd.dtype),)

    tape._record(out, (x,), bwd)
    return out


def exp(tape: Tape, x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    out = Tensor(out_data)

    def bwd(g: np.ndarray):
        return (g * out_data,)

    tape._record(out, (x,), bwd)
    return out


def log(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.log(x.data))

    def bwd(g: np.ndarray):
        return (g / x.data,)

    tape._record(out, (x,), bwd)
    return out


def sum(tape: Tape, x: Tensor) -> Tensor:  # noqa: A001 - numpy-style name
    out = Tensor(
        np.asarray(x.data.astype(np.float64).sum(), dtype=x.data.dtype)
    )

    def bwd(g: np.ndarray):
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype),)

    tape._record(out, (x,), bwd)
    return out


def mean(tape: Tape, x: Tensor) -> Tensor:
    n = x.data.size
    if n == 0:
        raise ValueError("mean of an empty tensor is undefined")
    out = Tensor(
        np.asarray(x.data.astype(np.float64).sum() / n, dtype=x.data.dtype)
    )

    def bwd(g: np.ndarray):
        return ((np.broadcast_to(g, x.data.shape) / n).astype(x.data.dtype),)

    tape._record(out, (x,), bwd)
    return out


def dropout(tape: Tape, x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; call only during training with 0 <= p < 1."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0:
        return x
    mask = (rng.random(x.data.shape) >= p).astype(x.data.dtype) / x.data.dtype.type(
        1 - p
    )
    out = Tensor(x.data * mask)

    def bwd(g: np.ndarray):
        return (g * mask,)

    tape._record(out, (x,), bwd)
    return out


# -- finite-difference oracle ------------------------------------------


def numeric_gradients(
    fn: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    eps: float = 1e-4,
) -> list[np.ndarray]:
    """Central finite differences of a scalar function, fully in float64.

    ``fn`` receives float64 copies of ``arrays`` and returns a python float.
    This path never touches the tape; it is the independent side of every
    gradient check.
    """
    if not eps > 0:
        raise ConfigError(f"eps must be > 0, got {eps}")
    base = [np.asarray(a, dtype=np.float64).copy() for a in arrays]
    grads = []
    for ai, a in enumerate(base):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn(base)
            flat[i] = orig - eps
            lo = fn(base)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise error, relative with an absolute floor.

    The 1e-2 denominator floor makes the threshold 1e-4 equivalent to an
    absolute tolerance of 1e-6 wherever both gradients are tiny.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-2)
    if a.size == 0:
        return 0.0
    return float((np.abs(a - n) / denom).max())


def check_gradients(
    build: Callable[[Tape, list[Tensor]], Tensor],
    arrays: Sequence[np.ndarray],
    eps: float = 1e-4,
) -> float:
    """Compare tape gradients against central differences.

    ``build`` constructs a scalar loss from float64 parameter tensors on the
    given tape.  Returns the max relative error over all parameters.
    """

    def run(values: Sequence[np.ndarray]) -> float:
        tape = Tape()
        params = [tensor(v, requires_grad=True, dtype=np.float64) for v in values]
        return float(build(tape, params).data)

    tape = Tape()
    params = [tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    loss = build(tape, params)
    analytic = backward(tape, loss)
    numeric = numeric_gradients(run, arrays, eps=eps)
    worst = 0.0
    for p, num in zip(params, numeric):
        ana = analytic.get(p, np.zeros_like(num))
        worst = max(worst, _relative_error(ana, num))
    return worst


def _away_from_kink(rng: np.random.Generator, shape, margin: float = 1e-3):
    """Sample in [-2, 2] keeping every coordinate at least ``margin`` from 0."""
    x = rng.uniform(-2, 2, size=shape)
    tiny = np.abs(x) < margin
    x[tiny] = np.sign(x[tiny] + 1e-12) * (margin + 0.1)
    return x


def gradcheck_report(seed: int = 0, eps: float = 1e-4) -> dict[str, float]:
    """Run the per-op gradient oracle suite; returns op -> max relative error.

    Each op is exercised on random inputs through a fixed random projection
    to a scalar, so every output element influences the loss.
    """
    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}

    def project(tape, t, r):
        return sum(tape, mul(tape, t, constant(r, dtype=np.float64)))

    n, d, k = 5, 4, 3
    r_nd = rng.standard_normal((n, d))
    r_nk = rng.standard_normal((n, k))
    r_nn = rng.standard_normal((n, n))
    seg = np.array([0, 1, 0, 2, 1])

    cases: dict[str, tuple[Callable, list[np.ndarray]]] = {}
    x0 = rng.uniform(-2, 2, (n, d))
    table = rng.uniform(-2, 2, (6, d))
    idx = np.array([0, 3, 3, 5, 1])
    cases["embedding_lookup"] = (
        lambda tape, p: project(
            tape, embedding_lookup(tape, p[0], idx), r_nd
        ),
        [table],
    )
    w = rng.uniform(-1, 1, (d, k))
    b = rng.uniform(-1, 1, (k,))
    cases["linear"] = (
        lambda tape, p: project(tape, linear(tape, p[0], p[1], p[2]), r_nk),
        [x0, w, b],
    )
    cases["relu"] = (
        lambda tape, p: project(tape, relu(tape, p[0]), r_nd),
        [_away_from_kink(rng, (n, d))],
    )
    sp_in = rng.uniform(-4, 4, (n, d))
    sp_in[0, 0] = 33.0  # exercise the overflow-safe linear branch
    sp_in[0, 1] = -33.0
    cases["softplus"] = (
        lambda tape, p: project(tape, softplus(tape, p[0]), r_nd),
        [sp_in],
    )
    r_3d = rng.standard_normal((3, d))
    cases["segment_sum"] = (
        lambda tape, p: project(tape, segment_sum(tape, p[0], seg, 3), r_3d),
        [rng.uniform(-2, 2, (n, d))],
    )
    cases["segment_mean"] = (
        lambda tape, p: project(tape, segment_mean(tape, p[0], seg, 3), r_3d),
        [rng.uniform(-2, 2, (n, d))],
    )
    cases["l2_normalize_rows"] = (
        lambda tape, p: project(
            tape, l2_normalize_rows(tape, p[0]), r_nd
        ),
        [rng.uniform(0.5, 2, (n, d)) * np.sign(rng.standard_normal((n, d)))],
    )
    a0 = rng.uniform(-2, 2, (n, d))
    b0 = rng.uniform(-2, 2, (n, d))
    cases["matmul_t"] = (
        lambda tape, p: project(tape, matmul_t(tape, p[0], p[1]), r_nn),
        [a0, b0],
    )
    cases["add"] = (
        lambda tape, p: project(tape, add(tape, p[0], p[1]), r_nd),
        [a0, b0],
    )
    cases["sub"] = (
        lambda tape, p: project(tape, sub(tape, p[0], p[1]), r_nd),
        [a0, b0],
    )
    cases["mul"] = (
        lambda tape, p: project(tape, mul(tape, p[0], p[1]), r_nd),
        [a0, b0],
    )
    denom = rng.uniform(0.5, 2, (n, d)) * np.sign(rng.standard_normal((n, d)))
    cases["div"] = (
        lambda tape, p: project(tape, div(tape, p[0], p[1]), r_nd),
        [a0, denom],
    )
    cases["exp"] = (
        lambda tape, p: project(tape, exp(tape, p[0]), r_nd),
        [rng.uniform(-2, 2, (n, d))],
    )
    cases["log"] = (
        lambda tape, p: project(tape, log(tape, p[0]), r_nd),
        [rng.uniform(0.2, 3, (n, d))],
    )
    cases["sum"] = (lambda tape, p: sum(tape, p[0]), [a0])
    cases["mean"] = (lambda tape, p: mean(tape, p[0]), [a0])
    cases["scale"] = (
        lambda tape, p: project(tape, scale(tape, p[0], -1.7), r_nd),
        [a0],
    )
    cases["dropout"] = (
        # A fresh generator per call keeps the mask identical across the
        # finite-difference evaluations.
        lambda tape, p: project(
            tape, dropout(tape, p[0], 0.4, np.random.default_rng(7)), r_nd
        ),
        [a0],
    )

    # Appended last so the draws above, and their reports, stay as they were.
    e_src = np.array([0, 1, 1, 2, 3, 4, 4, 2])
    e_dst = np.array([1, 0, 2, 1, 4, 3, 0, 0])
    e_type = np.array([0, 2, 1, 2, 2, 0, 1, 2])
    e_dir = np.array([1, 0, 0, 1, 1, 1, 0, 0])
    coeff = rng.uniform(0.2, 1.0, e_src.size)
    msg_inputs = [
        rng.uniform(-2, 2, (n, d)),
        rng.uniform(-2, 2, (3, d)),
        rng.uniform(-2, 2, (2, d)),
    ]
    for name, c in (("message_sum", None), ("message_sum_coeff", coeff)):
        cases[name] = (
            lambda tape, p, c=c: project(
                tape,
                message_sum(
                    tape, p[0], e_src, e_dst, p[1], e_type, p[2], e_dir, c
                ),
                r_nd,
            ),
            msg_inputs,
        )

    for name, (build, arrays) in cases.items():
        report[name] = check_gradients(build, arrays, eps=eps)
    return report
