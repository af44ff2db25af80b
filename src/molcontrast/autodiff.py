"""Minimal reverse-mode automatic differentiation on an append-only tape.

Tensors wrap numpy arrays in float32 by default; every reduction (matmul,
segment sums, full sums, row norms) accumulates in float64 before casting
back, which keeps results independent of summation order at storage
precision.  A whole tape can also be run in float64, which is how the
finite-difference oracles compare gradients without float32 noise.

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
index work behind a scatter (validation, one stable sort, the split into
slots or blocks) lives in an :class:`IndexPlan`, built once per index array
and reused by every op that takes it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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


def backward(
    tape: Tape,
    loss: Tensor,
    grad_map: dict[Tensor, np.ndarray] | None = None,
) -> dict[Tensor, np.ndarray]:
    """Accumulate d(loss)/d(param) for every ``requires_grad`` tensor.

    Args:
        tape: the tape that recorded the forward pass.
        loss: a scalar tensor produced on that tape.
        grad_map: optional map from a previous call; gradients accumulate
            additively into it.

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
    result = grad_map if grad_map is not None else {}
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


def _accum_dtype_matmul(a: np.ndarray, b: np.ndarray, out_dtype) -> np.ndarray:
    # All matmuls go through float64 so results do not depend on BLAS
    # blocking at float32 precision.
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(out_dtype)


class IndexPlan:
    """Validated row ids plus the order in which to scatter-add by them.

    Built once per ``(ids, rows)`` and reusable by every op that gathers
    or scatters by those ids, forward and backward: range checks, the
    stable sort, the segment counts and the slot or block split are paid
    once, not per call.  The scatter schedule is built lazily, on the first
    scatter, so a plan used only for gathers (inference lookups) never
    sorts.
    """

    __slots__ = ("ids", "rows", "_counts", "_schedule")

    def __init__(self, ids, rows: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"ids must be 1-d, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= rows):
            raise IndexError(f"id out of range for {rows} rows")
        self.ids = ids
        self.rows = rows
        self._counts: np.ndarray | None = None
        self._schedule: tuple | None = None

    def __len__(self) -> int:
        return self.ids.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """How many ids land in each of the ``rows`` rows."""
        if self._counts is None:
            self._counts = np.bincount(self.ids, minlength=self.rows)
        return self._counts

    def schedule(self) -> tuple:
        """``("slots", [(dst, src), ...])`` or ``("blocks", order, [(row, lo,
        hi), ...])``; see :func:`_scatter_add`."""
        if self._schedule is None:
            ids = self.ids
            counts = self.counts
            widest = int(counts.max()) if ids.size else 0
            order = np.argsort(ids, kind="stable")
            ends = np.cumsum(counts)
            if widest <= self.rows:
                sorted_ids = ids[order]
                rank = np.arange(ids.size) - (ends - counts)[sorted_ids]
                slots = []
                for j in range(widest):
                    slot = rank == j
                    slots.append((sorted_ids[slot], order[slot]))
                self._schedule = ("slots", slots)
            else:
                blocks = [
                    (int(s), int(ends[s] - counts[s]), int(ends[s]))
                    for s in np.flatnonzero(counts)
                ]
                self._schedule = ("blocks", order, blocks)
        return self._schedule


def _as_plan(ids, rows: int) -> IndexPlan:
    """``ids`` as a plan over ``rows`` rows; raw id arrays get a fresh one."""
    if not isinstance(ids, IndexPlan):
        return IndexPlan(ids, rows)
    if ids.rows != rows:
        raise ValueError(f"plan covers {ids.rows} rows, expected {rows}")
    return ids


def _scatter_add(x: np.ndarray, plan: IndexPlan, dtype) -> np.ndarray:
    """``out[ids[i]] += x[i]`` for i in order, into ``plan.rows`` zero rows.

    Bit-identical to ``numpy.add.at`` on ``np.zeros((rows, d), dtype)``: each
    output row receives its input rows one by one in original order.  After
    one stable sort, either loop over slot rank ``j`` (the j-th row of every
    segment at once; a segment appears at most once per slot, so the fancy
    ``+=`` is safe) when segments are narrow, or sum each non-empty segment
    as a contiguous block when a few segments are wide.
    """
    out = np.zeros((plan.rows, x.shape[1]), dtype=dtype)
    schedule = plan.schedule()
    if schedule[0] == "slots":
        for dst, src in schedule[1]:
            out[dst] += x[src]
        return out
    _, order, blocks = schedule
    xs = x[order]
    for s, lo, hi in blocks:
        block = xs[lo:hi]
        if block.shape[1] == 1:
            # A one-column sum is pairwise; cumsum is strictly sequential.
            out[s] += np.cumsum(block, axis=0, dtype=dtype)[-1]
        else:
            # Summing axis 0 of a C-ordered block of two or more columns
            # adds whole rows one after another.
            out[s] += block.sum(axis=0, dtype=dtype)
    return out


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
    acc = _scatter_add(x.data, plan, np.float64)
    out = Tensor(acc.astype(x.data.dtype))

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
    bit without keeping any of its edge-by-width intermediates.  Every index
    argument is an id array or an :class:`IndexPlan`; ``src`` and ``dst``
    index the rows of ``x``.  ``coeff`` is a constant of one value per edge.
    """
    _check_2d("x", x)
    _check_2d("type_table", type_table)
    _check_2d("dir_table", dir_table)
    n = x.data.shape[0]
    src = _as_plan(src, n)
    dst = _as_plan(dst, n)
    tplan = _as_plan(type_ids, type_table.data.shape[0])
    dplan = _as_plan(dir_ids, dir_table.data.shape[0])
    edges = len(src)
    if not len(dst) == len(tplan) == len(dplan) == edges:
        raise ValueError("src, dst, type_ids and dir_ids differ in length")
    edge = type_table.data[tplan.ids] + dir_table.data[dplan.ids]
    msg = x.data[src.ids] + edge
    if coeff is not None:
        col = np.asarray(coeff, dtype=x.data.dtype).reshape(-1, 1)
        if col.shape[0] != edges:
            raise ValueError(f"coeff has {col.shape[0]} values for {edges} edges")
        msg = msg * col
    out = Tensor(_scatter_add(msg, dst, np.float64).astype(x.data.dtype))
    need = [tape._tracked(t) for t in (x, type_table, dir_table)]
    plans = (src, tplan, dplan)
    tables = (x, type_table, dir_table)

    def bwd(g: np.ndarray):
        gm = g[dst.ids]
        if coeff is not None:
            gm = gm * col
        return tuple(
            _scatter_add(gm, plan, t.data.dtype) if needed else None
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
    out = Tensor(
        _accum_dtype_matmul(x.data, w.data, x.data.dtype) + b.data
    )

    def bwd(g: np.ndarray):
        g64 = g.astype(np.float64)
        dx = (g64 @ w.data.T.astype(np.float64)).astype(x.data.dtype)
        dw = (x.data.T.astype(np.float64) @ g64).astype(w.data.dtype)
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
    out = Tensor(_accum_dtype_matmul(a.data, b.data.T, a.data.dtype))
    need_a, need_b = tape._tracked(a), tape._tracked(b)

    def bwd(g: np.ndarray):
        da = _accum_dtype_matmul(g, b.data, a.data.dtype) if need_a else None
        db = _accum_dtype_matmul(g.T, a.data, b.data.dtype) if need_b else None
        return (da, db)

    tape._record(out, (a, b), bwd)
    return out


def l2_normalize_rows(tape: Tape, x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row to unit Euclidean norm; zero-norm rows are an error."""
    _check_2d("x", x)
    sq = (x.data.astype(np.float64) ** 2).sum(axis=1)
    norms = np.sqrt(sq)
    if (norms < eps).any():
        row = int(np.nonzero(norms < eps)[0][0])
        raise ValueError(f"row {row} has near-zero norm; cannot normalize")
    y64 = x.data.astype(np.float64) / norms[:, None]
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


def softplus(tape: Tape, x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` with the linear branch above x = 30."""
    xd = x.data
    out_data = np.where(xd > 30, xd, np.log1p(np.exp(np.minimum(xd, 30))))
    out = Tensor(out_data.astype(xd.dtype))

    def bwd(g: np.ndarray):
        # Stable logistic, split by sign to avoid overflow either way.
        pos = xd >= 0
        sig = np.empty_like(xd, dtype=np.float64)
        sig[pos] = 1.0 / (1.0 + np.exp(-xd[pos].astype(np.float64)))
        ex = np.exp(xd[~pos].astype(np.float64))
        sig[~pos] = ex / (1.0 + ex)
        return ((g * sig).astype(xd.dtype),)

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
