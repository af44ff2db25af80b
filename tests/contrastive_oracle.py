"""Reference NT-Xent: the chain of generic tape records that
``contrastive.nt_xent`` replaced with one record.

It builds the loss from fourteen records: row normalisation, the
similarity product, the temperature scale, the shifted exponentials, their
off-diagonal row sums, the log-denominators and the two sums.  ``exp``,
``log`` and ``l2_normalize_rows`` live here, built on ``Tape._record``, as
the library has no other use for them; the products and elementwise ops
come from ``chain_ops``.  The one-record loss must match this
chain byte for byte, in the loss and in the gradient of ``z``.
"""

from __future__ import annotations

import numpy as np

import chain_ops
from molcontrast import autodiff as ad
from molcontrast.autodiff import Tape, Tensor
from molcontrast.contrastive import _NORM_EPS, ContrastiveConfig
from molcontrast.errors import NumericAbort


def l2_normalize_rows(tape: Tape, x: Tensor) -> Tensor:
    """Each row scaled to unit Euclidean norm, in float64."""
    x64 = x.data.astype(np.float64)
    norms = np.sqrt((x64**2).sum(axis=1))
    if (norms < _NORM_EPS).any():
        row = int(np.nonzero(norms < _NORM_EPS)[0][0])
        raise NumericAbort(f"row {row} has near-zero norm; cannot normalize")
    y64 = x64 / norms[:, None]
    dtype = x.data.dtype
    out = Tensor(y64.astype(dtype))

    def bwd(g: np.ndarray, owned: bool):
        g64 = g.astype(np.float64)
        dot = (g64 * y64).sum(axis=1, keepdims=True)
        dx = (g64 - y64 * dot) / norms[:, None]
        return (dx.astype(dtype),)

    tape._record(out, (x,), bwd)
    return out


def exp(tape: Tape, x: Tensor) -> Tensor:
    out_data = np.exp(x.data)
    out = Tensor(out_data)

    def bwd(g: np.ndarray, owned: bool):
        return (g * out_data,)

    tape._record(out, (x,), bwd)
    return out


def log(tape: Tape, x: Tensor) -> Tensor:
    xd = x.data
    out = Tensor(np.log(xd))

    def bwd(g: np.ndarray, owned: bool):
        return (g / xd,)

    tape._record(out, (x,), bwd)
    return out


def nt_xent(tape: Tape, z: Tensor, cfg: ContrastiveConfig) -> Tensor:
    """The contrastive loss as fourteen records."""
    m = z.data.shape[0]
    zn = l2_normalize_rows(tape, z)
    logits = chain_ops.scale(tape, chain_ops.matmul_t(tape, zn, zn), 1.0 / cfg.temperature)

    off_diag = np.ones((m, m), dtype=np.float32)
    np.fill_diagonal(off_diag, 0.0)
    masked = np.where(off_diag > 0, logits.data, -np.inf)
    row_max = masked.max(axis=1, keepdims=True).astype(np.float32)

    shifted = chain_ops.sub(tape, logits, chain_ops.constant(row_max))
    exp_off = chain_ops.mul(tape, exp(tape, shifted), chain_ops.constant(off_diag))
    ones = chain_ops.constant(np.ones((1, m), dtype=np.float32))
    row_sum = chain_ops.matmul_t(tape, exp_off, ones)
    log_denom = chain_ops.add(tape, log(tape, row_sum), chain_ops.constant(row_max))

    pair = np.zeros((m, m), dtype=np.float32)
    idx = np.arange(0, m, 2)
    pair[idx, idx + 1] = 1.0
    pair[idx + 1, idx] = 1.0
    pos_total = ad.sum(tape, chain_ops.mul(tape, logits, chain_ops.constant(pair)))

    total = chain_ops.sub(tape, ad.sum(tape, log_denom), pos_total)
    return chain_ops.scale(tape, total, 1.0 / m)
