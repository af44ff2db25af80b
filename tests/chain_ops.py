"""Generic tape ops that no model records any more: ``matmul_t``, ``add``,
``sub``, ``mul``, ``scale``, ``relu`` and ``softplus``, and the ``constant``
tensors they take, as ``molcontrast.autodiff`` had them, built on
``Tape._record``.

The fused losses (``contrastive.nt_xent`` and the fine-tune loss),
``encoder.embed_nodes`` and the activations inside ``linear`` replaced
chains of these records; the reference chains in ``contrastive_oracle.py``
and ``supervised_oracle.py`` are built from them, and so are the tests of
``backward``'s accumulation and gradient-ownership rules.  Only constants
broadcast: an elementwise op raises ``ValueError`` when a tracked operand's
shape differs from its output's.
"""

from __future__ import annotations

import numpy as np

from molcontrast.autodiff import Tape, Tensor, _check_2d, _gate, _matmul, _mul, logistic


def constant(values, dtype=np.float32) -> Tensor:
    """A tensor that never receives gradients (masks, coefficients); its
    payload is not checked."""
    return Tensor(np.ascontiguousarray(np.asarray(values, dtype=dtype)))


def matmul_t(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """``a @ b.T`` for [n,d] x [m,d] -> [n,m]."""
    _check_2d("a", a)
    _check_2d("b", b)
    if a.data.shape[1] != b.data.shape[1]:
        raise ValueError(
            f"matmul_t inner dims differ: {a.data.shape} vs {b.data.shape}"
        )
    out = Tensor(_matmul(a.data, b.data.T))
    # Each operand's gradient reads the other operand; keep only what is read.
    b_for_da = b.data if tape._tracked(a) else None
    a_for_db = a.data if tape._tracked(b) else None

    def bwd(g: np.ndarray, owned: bool):
        da = _matmul(g, b_for_da) if b_for_da is not None else None
        db = _matmul(g.T, a_for_db) if a_for_db is not None else None
        return (da, db)

    tape._record(out, (a, b), bwd)
    return out


# -- elementwise ops ---------------------------------------------------


def _elementwise_pair(tape, a, b, out_data, da_fn, db_fn):
    """Record ``out_data``, computed from ``a`` and ``b``, with gradient
    functions ``da_fn(g)`` and ``db_fn(g)``; each captures only the operand
    arrays it reads."""
    out = Tensor(out_data)
    need_a, need_b = tape._tracked(a), tape._tracked(b)
    for t, needed in ((a, need_a), (b, need_b)):
        if needed and t.data.shape != out_data.shape:
            raise ValueError(
                f"tracked operand of shape {t.data.shape} broadcasts to "
                f"{out_data.shape}; only constants may broadcast"
            )
    # Decided at record time: constants (masks, shifts, labels) get no
    # gradient computed only to be dropped by backward(), and the record
    # keeps no function (nor the arrays it reads) of an untracked operand.
    da_fn = da_fn if need_a else None
    db_fn = db_fn if need_b else None
    a_dtype, b_dtype = a.data.dtype, b.data.dtype

    def bwd(g: np.ndarray, owned: bool):
        # ``add`` may return ``g`` itself for both operands: the walk marks
        # an array that a closure returns twice as shared, so no backward
        # writes into it and accumulation into it makes a new array.
        da = da_fn(g).astype(a_dtype, copy=False) if da_fn else None
        db = db_fn(g).astype(b_dtype, copy=False) if db_fn else None
        return (da, db)

    tape._record(out, (a, b), bwd)
    return out


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    return _elementwise_pair(tape, a, b, a.data + b.data, lambda g: g, lambda g: g)


def sub(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    return _elementwise_pair(tape, a, b, a.data - b.data, lambda g: g, lambda g: -g)


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    x, y = a.data, b.data
    return _elementwise_pair(tape, a, b, x * y, lambda g: g * y, lambda g: g * x)


def scale(tape: Tape, x: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar (not differentiated through)."""
    factor = x.data.dtype.type(factor)
    out = Tensor(x.data * factor)

    def bwd(g: np.ndarray, owned: bool):
        return (_mul(g, factor, owned),)

    tape._record(out, (x,), bwd)
    return out


def relu(tape: Tape, x: Tensor) -> Tensor:
    """``max(x, 0)``; a recorded op keeps a one-bit mask of ``out > 0`` for
    its backward gate, which holds exactly where ``x > 0``."""
    y = np.maximum(x.data, 0)
    out = Tensor(y)
    bits = np.packbits(y > 0, axis=None) if tape._tracked(x) else None

    def bwd(g: np.ndarray, owned: bool):
        return (_gate(g, bits, owned),)

    tape._record(out, (x,), bwd)
    return out


def softplus(tape: Tape, x: Tensor) -> Tensor:
    """``log(1 + exp(x))`` with the linear branch above x = 30."""
    xd = x.data
    out_data = np.where(xd > 30, xd, np.log1p(np.exp(np.minimum(xd, 30))))
    out = Tensor(out_data.astype(xd.dtype))

    def bwd(g: np.ndarray, owned: bool):
        return ((g * logistic(xd)).astype(xd.dtype),)

    tape._record(out, (x,), bwd)
    return out
