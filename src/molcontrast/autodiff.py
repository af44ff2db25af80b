"""Minimal reverse-mode automatic differentiation on an append-only tape.

Tensors wrap numpy arrays in float32 by default.  Matrix products and
every scatter (segment sums and means, the node-state sums of
:func:`message_sum`, and the backward scatters of :func:`embedding_lookup`
and :func:`message_sum`) run in their operands' dtype: a scatter adds only
the few rows that land in one output row, in the order its plan fixes.
:func:`message_sum`'s edge embeddings are not scattered at all: they enter
as one product of per-node edge-weight sums with the embedding tables.
Whole-array reductions accumulate in float64 before casting back: full sums
and the bias gradient of :func:`linear` add up every row of a batch.  A
whole tape can also run in float64, which is how the finite-difference
oracles compare gradients without float32 noise.

Ops are free functions taking the tape first; an op is recorded only when
one of its inputs is connected to a tensor with ``requires_grad`` set.
Inference relies on that rule: it runs on parameter tensors without
``requires_grad`` that share the trained arrays (``EncoderModel.frozen``),
so nothing is recorded and each intermediate is freed once used, with the
same forward values as a recording pass.  An op records which of its
inputs are tracked, and its backward computes gradients for those only.

A record refers to tensors; it does not hold them.  Each recorded output
gets a process-unique integer key, and a record keeps its output's key and,
per input, the key of a recorded intermediate, the tensor of a
``requires_grad`` leaf, or None for a constant.  Its backward closure
captures only the arrays it reads (and dtypes and shapes as values), so an
activation no backward reads is freed as soon as the next op has used it,
and one that a backward reads is freed once that backward has run:
:func:`backward` consumes the tape, popping each record as it walks the
records in reverse with one gradient map and a fixed accumulation order,
which makes gradients bit-identical for identical tapes.  So each backward
closure runs once, and :func:`linear`'s drops its input as soon as it has
used it.

A backward writes only into a gradient the walk owns.  :func:`backward`
calls each closure as ``bwd(g, owned)``, and a closure may write into ``g``
only when ``owned`` is true: nothing but the walk refers to ``g``.  The
loss seed is owned.  An array a closure returns is owned when it is a fresh
base array (``base is None``), appears once in that closure's result, and
is not the closure's own ``g`` unless that ``g`` was owned: a closure that
returns one ``g`` for two operands hands on a shared array, and views
(``message_sum``'s table gradients, split from one product) never count as
owned.  So a closure returns fresh arrays, views or its own ``g``, never an
array it keeps nor an array beside a view of it.  An owned gradient takes
later addends in place, ``np.add(acc, g, out=acc)``, and an owned ``g`` is
gated or scaled in place by ``linear``'s ReLU and by ``dropout``.
Each in-place site runs the ufunc and operand order of the copying
expression it replaces, so gradients are bit-identical whichever way a
gradient goes, apart from which NaN payload an in-place sum of two NaNs
keeps.

Activations run only inside :func:`linear`'s record.  A recorded ReLU
keeps one bit per element, ``np.packbits(out > 0)``, for its backward gate,
in place of a float array; a pass that records nothing (inference) packs
nothing.  A recorded softplus keeps its pre-activation.

Every scatter (segment sums and means, the embedding-lookup backward, the
node states of :func:`message_sum` and their gradient) adds the rows that
land in one output row sequentially, in their original row order: the same
order as ``numpy.add.at``, so its results equal ``numpy.add.at``'s bit for
bit, apart from which NaN payload a sum of two NaNs keeps (numpy's own
loops differ in that).  The index work behind a scatter (validation, the
sorts, the degree-sorted slot layout or the block split) lives in an
:class:`IndexPlan`, built once per index array and reused by every op that
takes it.

Importing this module pins numpy's bundled OpenBLAS to one thread for the
whole process, so each BLAS call has one fixed reduction order; that order,
not the precision, makes products reproducible.  Parallelism comes from
splitting a large product into contiguous row blocks, one single-thread
gemm each, run at once on :func:`set_threads` workers (default: the CPUs
this process may use).  A block computes its rows with the same kernels and
the same order over the inner dimension as the whole product, so results
are bit-identical for any worker count.  Where the bundled OpenBLAS is not
found, BLAS keeps its own threading and the products are not split.
Inference deals whole batches across the same workers
(``encoder.frozen_forward``); a part that runs beside others splits none of
its products.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "Tensor",
    "Tape",
    "IndexPlan",
    "tensor",
    "backward",
    "embedding_lookup",
    "linear",
    "logistic",
    "segment_sum",
    "segment_mean",
    "message_sum",
    "sum",
    "dropout",
    "numeric_gradients",
    "check_gradients",
    "gradcheck_report",
    "set_threads",
]

class Tensor:
    """A numpy array plus autodiff bookkeeping.

    Tensors hash by identity.  A tensor that an op recorded carries that
    record's output key in ``key``; the tape refers to it by that key.
    """

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.requires_grad = requires_grad
        self.key: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __repr__(self) -> str:
        grad = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{grad})"


def tensor(values, requires_grad: bool = False, dtype=np.float32) -> Tensor:
    """Build a tensor, rejecting NaN/Inf payloads up front."""
    data = np.ascontiguousarray(np.asarray(values, dtype=dtype))
    if data.size and not np.isfinite(data).all():
        raise ValueError("tensor payload contains NaN or Inf")
    return Tensor(data, requires_grad=requires_grad)


_keys = itertools.count()  # output keys, unique in the process


@dataclass(slots=True)
class _Record:
    """One recorded op: its output's key, a reference per input (see
    :meth:`Tape._ref`) and the closure mapping the output's gradient to
    the inputs'."""

    out: int
    inputs: tuple[int | Tensor | None, ...]
    backward_fn: Callable[[np.ndarray, bool], tuple[np.ndarray | None, ...]]


class Tape:
    """Append-only record of differentiable ops, in execution order, until
    :func:`backward` consumes it.

    ``_live`` holds the keys of the outputs recorded on this tape; an input
    is tracked when it is a ``requires_grad`` leaf or one of those outputs.
    """

    def __init__(self) -> None:
        self._records: list[_Record] = []
        self._live: set[int] = set()

    def __len__(self) -> int:
        return len(self._records)

    def _tracked(self, t: Tensor) -> bool:
        return self._ref(t) is not None

    def _ref(self, t: Tensor) -> int | Tensor | None:
        """How a record refers to input ``t``: a leaf by the tensor, an
        output of this tape by its key, anything else (a constant) not at
        all."""
        if t.requires_grad:
            return t
        return t.key if t.key in self._live else None

    def _record(
        self,
        out: Tensor,
        inputs: Sequence[Tensor],
        backward_fn: Callable[[np.ndarray, bool], tuple[np.ndarray | None, ...]],
    ) -> None:
        refs = tuple(self._ref(t) for t in inputs)
        if any(r is not None for r in refs):
            out.key = next(_keys)
            self._records.append(_Record(out.key, refs, backward_fn))
            self._live.add(out.key)


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(param) for every ``requires_grad`` tensor.

    Consumes ``tape``: each record is popped as the reverse walk passes it,
    and its output's gradient is dropped before the inputs' gradients are
    accumulated, so a record's arrays are freed once its backward has run.
    The tape is empty afterwards, and a second call on it raises
    ``ValueError``.  Each closure learns whether the walk owns the gradient
    it is given, and an owned gradient takes later addends in place (see
    the module docstring).

    Args:
        tape: the tape that recorded the forward pass.
        loss: a scalar tensor produced on that tape.

    Returns:
        Map from each parameter tensor the loss reaches to its gradient:
        what is left of the one gradient map once the reverse walk has
        popped the output of every record (after all its consumers).
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    if loss.key not in tape._live:
        raise ValueError("loss tensor was not produced on this tape, or backward consumed it")
    tape._live.clear()
    records = tape._records
    grads: dict[int | Tensor, np.ndarray] = {loss.key: np.ones((), dtype=loss.data.dtype)}
    owned = {loss.key}  # the refs whose gradient nothing but ``grads`` refers to
    while records:
        record = records.pop()
        out_grad = grads.pop(record.out, None)
        if out_grad is None:
            continue
        mine = record.out in owned
        owned.discard(record.out)
        inputs, in_grads = record.inputs, record.backward_fn(out_grad, mine)
        fresh = [
            _base_array(g) and (mine or g is not out_grad) and _once(g, in_grads)
            for g in in_grads
        ]
        del record, out_grad
        acc = None
        for ref, g, own in zip(inputs, in_grads, fresh):
            if g is None or ref is None:
                continue
            acc = grads.get(ref)
            if acc is not None:
                if ref in owned and acc.dtype == g.dtype and acc.shape == g.shape:
                    np.add(acc, g, out=acc)
                    continue
                g = acc + g
                own = _base_array(g)
            grads[ref] = g
            (owned.add if own else owned.discard)(ref)
        del in_grads, g, acc  # an addend summed into another array dies here
    return grads


def _base_array(a) -> bool:
    """``a`` is an array that owns its memory (not a view, not a scalar)."""
    return isinstance(a, np.ndarray) and a.base is None


def _once(a, arrays) -> bool:
    """``a`` is one of ``arrays`` exactly once, by identity."""
    return [b is a for b in arrays].count(True) == 1


def _mul(g: np.ndarray, m, owned: bool) -> np.ndarray:
    """``g * m``, written into ``g`` when the walk owns ``g`` and the product
    keeps ``g``'s dtype: the same ufunc on the same operands either way."""
    if owned and np.result_type(g, m) == g.dtype:
        return np.multiply(g, m, out=g)
    return g * m


def _gate(g: np.ndarray, bits: np.ndarray, owned: bool) -> np.ndarray:
    """``g * (y > 0)`` from ``bits = np.packbits(y > 0, axis=None)``: the
    unpacked bools are those of ``y > 0``, so NaN, -0.0 and +-inf gate as
    they would on ``y`` itself."""
    keep = np.unpackbits(bits, count=g.size).view(bool).reshape(g.shape)
    return np.multiply(g, keep, out=g) if owned else g * keep  # bools keep g's dtype


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
# Every row cut of a split product falls on a multiple of this many rows.
# OpenBLAS's Haswell and Zen sgemm kernels round a row by its place in the
# 12-row tiles counted from the start of each call, so a cut elsewhere moves
# bits there; cuts at multiples of 24 matched the whole product on the
# SkylakeX, Haswell and Zen kernels, transposed operands included.
_ROW_QUANTUM = 24
_workers = 1
_pool: ThreadPoolExecutor | None = None


def set_threads(n: int) -> int:
    """Run large matrix products (and ``training.adam_step``'s tiles and
    ``encoder.frozen_forward``'s batches) on ``n`` threads; returns the
    count in effect, which stays 1 when BLAS could not be pinned to one
    thread."""
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


_in_part = threading.local()


def _free_pool() -> ThreadPoolExecutor | None:
    """The worker pool, or None on a thread that is running one of several
    parts of :func:`_run_parts`: such a part submits nothing, so it splits
    no product and no Adam step.  A pool thread that waited on work queued
    behind it on its own pool would wait forever (with two workers the pool
    has one thread), and the calling thread's blocks would wait behind the
    other parts.  Unsplit products equal split ones bit for bit."""
    return None if getattr(_in_part, "on", False) else _pool


def _as_part(fn: Callable, *args) -> None:
    _in_part.on = True
    try:
        fn(*args)
    finally:
        _in_part.on = False


def _run_parts(
    pool: ThreadPoolExecutor | None, fn: Callable, parts: Sequence[tuple]
) -> None:
    """``fn(*part, errors)`` for every part: the last on the calling thread,
    the rest (if any) on ``pool``, all under the caller's numpy error
    state, which ``fn`` enters (numpy's error state is per thread).  When
    there are several parts, each runs without the pool (see
    :func:`_free_pool`).  Returns or raises only once every part is done;
    of the parts that raised, the first in part order has its exception
    raised here.  The cuts of :func:`_matmul` and of inference round down,
    which makes the last part the longest, so the calling thread runs it
    rather than wait for it."""
    errors = np.geterr()
    if len(parts) == 1:
        fn(*parts[0], errors)
        return
    futures = [pool.submit(_as_part, fn, *part, errors) for part in parts[:-1]]
    try:
        _as_part(fn, *parts[-1], errors)
    finally:
        wait(futures)
        for f in futures:
            f.result()  # an earlier part's exception replaces the last part's


def _matmul_block(a: np.ndarray, b: np.ndarray, out: np.ndarray, errors: dict) -> None:
    with np.errstate(**errors):
        np.matmul(a, b, out=out)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in the operands' dtype; large products are split by rows
    across the workers, bit-identical to the unsplit product.

    Transposed operands reach BLAS as views; ``b`` is copied only when it
    shares memory with ``a``, as ``a @ a.T`` would go to syrk.  Each block
    of rows is one single-thread gemm of those rows of ``a`` against all of
    ``b``, which sums every output element in the same order as the whole
    product does, as long as the block runs on the same kernels and starts
    where the whole product's row tiles do.  So every cut falls on a
    multiple of ``_ROW_QUANTUM`` rows, and a block has at least one quantum
    and at least ``_BLOCK_MACS`` multiply-adds.  A one-column product is
    not split: numpy runs it as a matrix-vector product (gemv), whose
    SkylakeX, Haswell and Sandybridge kernels moved bits at a block edge
    when ``a`` was a transposed view.
    """
    if np.may_share_memory(a, b):
        b = b.copy()
    m, k = a.shape
    n = b.shape[1]
    pool, parts = _free_pool(), 1
    if pool is not None and n > 1:
        parts = min(_workers, m // _ROW_QUANTUM, m * k * n // _BLOCK_MACS)
    if parts < 2:
        return a @ b
    out = np.empty((m, n), dtype=np.result_type(a, b))
    # Each share m / parts is at least one quantum, so rounding the cuts down
    # keeps them increasing and every block at least one quantum long.
    q = _ROW_QUANTUM
    cuts = [m * i // parts // q * q for i in range(parts)] + [m]
    _run_parts(
        pool, _matmul_block, [(a[lo:hi], b, out[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    )
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

    Edge features (bond types and directions) get no plan: their embedding
    tables enter :func:`message_sum` through per-node edge-weight sums.
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


def _scatter_rows(plan: IndexPlan, rows: Callable, width: int, dtype: np.dtype) -> np.ndarray:
    """``out[ids[i]] += m[i]`` for i in order, into ``plan.rows`` zero rows
    of ``dtype``, the dtype of the messages ``m``.

    The messages ``m`` are never materialised in id order: ``rows(e, buf)``
    writes ``m[e]`` for an index array ``e`` into ``buf`` (``len(e)`` by
    ``width``) and returns it.  Each output row receives its messages one
    by one in id order, which makes the result bit-identical to
    ``numpy.add.at`` on ``np.zeros((rows, width), dtype)``.

    Narrow plans run on the degree-sorted :meth:`IndexPlan.layout`: slot
    ``j`` is gathered into one reused buffer and added in place into the
    first ``n_j`` rows of the row-sorted accumulator, which one gather
    un-permutes at the end, into that buffer: two node-by-width arrays at
    most are alive at once.  Wide plans gather all messages in
    :meth:`IndexPlan.blocks` order and sum each row's contiguous block.
    """
    if plan.narrow:
        position, slots, sizes = plan.layout()
        acc = np.empty((plan.rows, width), dtype=dtype)
        buf = np.empty((plan.rows, width), dtype=dtype)
        zero = dtype.type(0)
        acc[sizes[0] if sizes else 0 :] = zero  # rows that receive no id
        lo = 0
        for j, n in enumerate(sizes):
            m = rows(slots[lo : lo + n], buf[:n])
            # Slot 0 computes 0 + m, as a zeroed accumulator would (which
            # turns -0.0 into +0.0), without zero-filling n_0 rows first.
            np.add(acc[:n] if j else zero, m, out=acc[:n])
            lo += n
        return np.take(acc, position, axis=0, out=buf, mode="clip")
    order, blocks = plan.blocks()
    out = np.zeros((plan.rows, width), dtype=dtype)
    xs = rows(order, np.empty((order.size, width), dtype=dtype))
    for s, lo, hi in blocks:
        block = xs[lo:hi]
        if width == 1:
            # A one-column sum is pairwise; cumsum is strictly sequential.
            out[s] += np.cumsum(block, axis=0)[-1]
        else:
            # Summing axis 0 of a C-ordered block of two or more columns
            # adds whole rows one after another.
            out[s] += block.sum(axis=0)
    return out


def _scatter_add(x: np.ndarray, plan: IndexPlan) -> np.ndarray:
    """``out[ids[i]] += x[i]`` in id order, in ``x``'s dtype; see
    :func:`_scatter_rows`."""
    # Every gather into a buffer uses mode="clip", which writes straight into
    # ``out`` where "raise" would go through a temporary; all indices come
    # from validated plans.
    def rows(e, buf):
        return np.take(x, e, axis=0, out=buf, mode="clip")

    return _scatter_rows(plan, rows, x.shape[1], x.dtype)


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

    def bwd(g: np.ndarray, owned: bool):
        return (_scatter_add(g, plan),)

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
    out = Tensor(_scatter_add(x.data, plan))

    def bwd(g: np.ndarray, owned: bool):
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
    acc = _scatter_add(x.data, plan)
    acc /= counts[:, None]
    out = Tensor(acc)
    dtype = x.data.dtype

    def bwd(g: np.ndarray, owned: bool):
        inv = (1.0 / counts).astype(dtype)
        return ((g * inv[:, None])[plan.ids],)

    tape._record(out, (x,), bwd)
    return out


def message_sum(
    tape: Tape, x: Tensor, src, dst, counts: np.ndarray, tables: Sequence[Tensor],
    coeff: np.ndarray | None = None, add_self: bool = False,
) -> Tensor:
    """Message-passing aggregate ``S + counts @ [tables]`` in one record.

    ``S[v]`` sums ``x[src[i]]`` (times ``coeff[i]``, one constant per edge,
    when given) over the edges ``i`` with ``dst[i] == v``; ``src`` and
    ``dst`` are id arrays or :class:`IndexPlan`\\ s over the rows of ``x``.
    ``[tables]`` stacks the rows of the edge-embedding tables (bond types,
    bond directions), which share ``x``'s dtype and width, and the constant
    ``counts`` (``x``'s dtype, one row per node, one column per table row)
    holds each node's summed edge weights per table row: the product adds
    every edge's embeddings without touching an edge.

    ``S`` is summed in edge order like ``numpy.add.at``, with no
    edge-by-width array when ``dst`` is narrow (node plans of a molecule
    batch are): each slot of ``dst``'s degree-sorted layout is gathered into
    a reused buffer and added in place.  The backward sums ``x``'s gradient
    the same way from ``g[dst]`` on ``src``'s layout; the tables' gradients
    are one product, ``counts.T @ g``, split by table.

    With ``add_self`` the output is ``x + out`` (GIN's self term), added
    into the sum buffer, and the backward adds ``g`` into ``x``'s scattered
    gradient as ``g + dx``: the same operands in the same order as
    ``add(x, message_sum(...))``, so NaN payloads match too, with one
    record and one node-by-width array fewer.
    """
    _check_2d("x", x)
    dtype = x.data.dtype
    n, width = x.data.shape
    if any(t.data.ndim != 2 or t.data.shape[1] != width or t.dtype != dtype for t in tables):
        raise ValueError(f"tables must be 2-d, {width} wide and {dtype}")
    stacked = np.concatenate([t.data for t in tables])
    counts = np.asarray(counts)
    if counts.shape != (n, len(stacked)) or counts.dtype != dtype:
        got = f"{counts.dtype} {counts.shape}"
        raise ValueError(f"counts must be {dtype} {(n, len(stacked))}, got {got}")
    src = _as_plan(src, n)
    dst = _as_plan(dst, n)
    edges = len(src)
    if len(dst) != edges:
        raise ValueError("src and dst differ in length")
    col = None
    if coeff is not None:
        col = np.asarray(coeff, dtype=dtype).reshape(-1, 1)
        if col.shape[0] != edges:
            raise ValueError(f"coeff has {col.shape[0]} values for {edges} edges")

    def scaled(a: np.ndarray, ids: np.ndarray) -> Callable:
        """Edge e's row ``a[ids[e]]``, times ``coeff[e]`` when given."""
        def rows(e: np.ndarray, buf: np.ndarray) -> np.ndarray:
            np.take(a, ids[e], axis=0, out=buf, mode="clip")
            if col is not None:
                buf *= col[e]
            return buf
        return rows

    summed = _scatter_rows(dst, scaled(x.data, src.ids), width, dtype)
    # S + P into P's buffer; numpy's S += P would keep P's NaN where both are.
    out = Tensor(_matmul(counts, stacked))
    np.add(summed, out.data, out=out.data)
    if add_self:
        np.add(x.data, out.data, out=out.data)
    need_x = tape._tracked(x)
    need_tables = any(tape._tracked(t) for t in tables)
    cuts = np.cumsum([len(t.data) for t in tables])[:-1]
    no_tables = [None] * len(tables)

    def bwd(g: np.ndarray, owned: bool):
        dx = _scatter_rows(src, scaled(g, dst.ids), width, g.dtype) if need_x else None
        if add_self and dx is not None:
            np.add(g, dx, out=dx)
        dtables = np.split(_matmul(counts.T, g), cuts) if need_tables else no_tables
        return (dx, *dtables)

    tape._record(out, (x, *tables), bwd)
    return out


# -- dense linear algebra ---------------------------------------------


def linear(
    tape: Tape, x: Tensor, w: Tensor, b: Tensor, act: str | None = None
) -> Tensor:
    """Affine map ``x @ w + b`` with shapes [n,a] x [a,k] + [k], followed
    in the same record by ``act``: None, ``"relu"`` or ``"softplus"``.

    The record holds ``x`` and ``w``, which the backward multiplies by.
    ReLU runs in place on the product buffer and keeps a one-bit mask of
    ``out > 0`` (none on an unrecorded pass) to gate ``g``, in place when
    the walk owns it; the gate holds exactly where the pre-activation is
    ``> 0`` (NaN and -0.0 too).  Softplus, ``log(1 + exp(y))`` with the
    linear branch above y = 30, keeps the pre-activation ``y`` and scales
    ``g`` by ``logistic(y)``.  Either way output and gradients equal
    ``linear`` then a separate activation record, bit for bit.  The
    backward computes ``dw`` first and lets go of ``x`` before it allocates
    ``dx``, so it can run only once.
    """
    if act not in (None, "relu", "softplus"):
        raise ValueError(f"unknown activation {act!r}; expected None, 'relu' or 'softplus'")
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
    xd, wd = x.data, w.data
    y = _matmul(xd, wd)
    y += b.data
    bits = pre = None
    if act == "relu":
        np.maximum(y, 0, out=y)
        if any(tape._tracked(t) for t in (x, w, b)):
            bits = np.packbits(y > 0, axis=None)
    elif act:
        pre, y = y, np.where(y > 30, y, np.log1p(np.exp(np.minimum(y, 30))))
    out = Tensor(y)
    b_dtype = b.data.dtype
    saved = [xd]  # the one backward call takes it

    def bwd(g: np.ndarray, owned: bool):
        if bits is not None:
            g = _gate(g, bits, owned)
        elif pre is not None:
            g = (g * logistic(pre)).astype(pre.dtype)
        db = g.sum(axis=0, dtype=np.float64).astype(b_dtype)
        dw = _matmul(saved.pop().T, g)  # x dies here, before dx is allocated
        return (_matmul(g, wd.T), dw, db)

    tape._record(out, (x, w, b), bwd)
    return out


# -- elementwise ops ---------------------------------------------------


def logistic(x) -> np.ndarray:
    """``1 / (1 + exp(-x))`` in float64, for any ``x`` including +-inf.

    Both branches are formed from ``e = exp(-|x|)``, which lies in [0, 1],
    so nothing overflows: ``1 / (1 + e)`` for ``x >= 0``, else ``e / (1 + e)``.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sum(tape: Tape, x: Tensor) -> Tensor:  # noqa: A001 - numpy-style name
    shape, dtype = x.data.shape, x.data.dtype
    out = Tensor(np.asarray(x.data.astype(np.float64).sum(), dtype=dtype))

    def bwd(g: np.ndarray, owned: bool):
        return (np.broadcast_to(g, shape).astype(dtype),)

    tape._record(out, (x,), bwd)
    return out


def dropout(tape: Tape, x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout with rate ``0 <= p < 1``; at ``p == 0`` it returns
    ``x`` and draws nothing from ``rng``."""
    if not 0 <= p < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0:
        return x
    keep = rng.random(x.data.shape) >= p  # one byte an element, held for the backward
    dtype = x.data.dtype
    scale = dtype.type(1 - p)
    out = Tensor(x.data * (keep.astype(dtype) / scale))
    # ``g * (keep / scale)`` as ``(g * keep) * (1 / scale)``: the first
    # product is exact (g or a signed zero, NaN where g is NaN or inf), so
    # every element gets the bits of the one-step product.
    inv = dtype.type(1) / scale

    def bwd(g: np.ndarray, owned: bool):
        g = _mul(g, keep, owned)  # g itself when owned, else a new array
        return (_mul(g, inv, _base_array(g)),)

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
    if not 0 < eps < np.inf:
        raise ConfigError(f"eps must be finite and > 0, got {eps}")
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
    # np.max, unlike max(), keeps a NaN error: a NaN gradient fails any threshold.
    errors = [
        _relative_error(analytic.get(p, np.zeros_like(num)), num)
        for p, num in zip(params, numeric)
    ]
    return float(np.max(errors, initial=0.0))


def _away_from_kink(rng: np.random.Generator, shape, margin: float = 1e-3):
    """Sample in [-2, 2] keeping every coordinate at least ``margin`` from 0."""
    x = rng.uniform(-2, 2, size=shape)
    tiny = np.abs(x) < margin
    x[tiny] = np.sign(x[tiny] + 1e-12) * (margin + 0.1)
    return x


def gradcheck_report(seed: int = 0, eps: float = 1e-4) -> dict[str, float]:
    """Run the gradient oracle over every tape op, the NT-Xent loss and the
    fine-tune loss of each task kind; returns case -> max relative error.
    ``linear`` is checked plain, and as ``relu`` and ``softplus`` with each
    activation on an identity map, so those two cases check the records
    that models run.

    Each op is exercised on random inputs through a fixed random projection
    to a scalar, so every output element influences the loss.
    """
    rng = np.random.default_rng(seed)
    report: dict[str, float] = {}

    def project(tape, t, r):
        """``sum(t * r)`` in one record, the sum in float64."""
        shape, dtype = t.data.shape, t.data.dtype
        out = Tensor(np.asarray((t.data * r).astype(np.float64).sum(), dtype=dtype))

        def bwd(g: np.ndarray, owned: bool):
            return (np.broadcast_to(g, shape).astype(dtype) * r,)

        tape._record(out, (t,), bwd)
        return out

    n, d, k = 5, 4, 3
    r_nd = rng.standard_normal((n, d))
    r_nk = rng.standard_normal((n, k))
    rng.standard_normal((n, n))  # drawn so that later inputs keep their values
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
    # The activations run inside ``linear``; an identity map isolates them.
    eye, zeros = Tensor(np.eye(d)), Tensor(np.zeros(d))
    cases["relu"] = (
        lambda tape, p: project(tape, linear(tape, p[0], eye, zeros, "relu"), r_nd),
        [_away_from_kink(rng, (n, d))],
    )
    sp_in = rng.uniform(-4, 4, (n, d))
    sp_in[0, 0] = 33.0  # exercise the overflow-safe linear branch
    sp_in[0, 1] = -33.0
    cases["softplus"] = (
        lambda tape, p: project(tape, linear(tape, p[0], eye, zeros, "softplus"), r_nd),
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
    a0 = rng.uniform(-2, 2, (n, d))
    rng.uniform(-2, 2, (n, d))  # drawn so that later inputs keep their values
    cases["sum"] = (lambda tape, p: sum(tape, p[0]), [a0])
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
        counts = np.zeros((n, 5))  # summed edge weights per type row, then direction row
        for first, ids in ((0, e_type), (3, e_dir)):
            np.add.at(counts, (e_dst, first + ids), np.ones(e_src.size) if c is None else c)
        cases[name] = (
            lambda tape, p, c=c, counts=counts: project(
                tape, message_sum(tape, p[0], e_src, e_dst, counts, p[1:], c), r_nd
            ),
            msg_inputs,
        )
    # ``contrastive`` and ``training`` import this module, so they are
    # imported here, at their use.
    from .contrastive import ContrastiveConfig, nt_xent
    from .training import _masked_loss

    loss_cfg = ContrastiveConfig(temperature=0.1, batch_size=3)
    cases["nt_xent"] = (
        lambda tape, p: nt_xent(tape, p[0], loss_cfg),
        [rng.standard_normal((6, d))],
    )
    # Two tasks with three labels missing; the regression outputs keep off
    # the L1 kink at each (float32) label.
    seen = np.ones((n, 2), dtype=bool)
    seen[[0, 2, 4], [1, 0, 1]] = False
    classes = rng.integers(0, 2, (n, 2)).astype(np.float64)
    targets = rng.standard_normal((n, 2))
    off_kink = targets.astype(np.float32) + _away_from_kink(rng, (n, 2))
    for kind, labels, out in (
        ("classification", classes, rng.uniform(-2, 2, (n, 4))),
        ("regression", targets, off_kink),
    ):
        cases[f"supervised_{kind}"] = (
            lambda tape, p, kind=kind, labels=labels: _masked_loss(
                tape, p[0], labels, seen, kind
            ),
            [out],
        )

    # A large eps can overflow; that shows as a large or NaN error, not a warning.
    with np.errstate(all="ignore"):
        for name, (build, arrays) in cases.items():
            report[name] = check_gradients(build, arrays, eps=eps)
    return report
