"""Normalized-temperature cross-entropy loss over paired latent views.

The latent batch holds ``2N`` rows where rows ``2i`` and ``2i + 1`` are the
two augmented views of molecule ``i``.  For an ordered pair ``(i, j)``:

    loss(i, j) = -log( exp(sim(z_i, z_j) / t)
                       / sum_{k != i} exp(sim(z_i, z_k) / t) )

with cosine similarity and temperature ``t``; the reported loss is the
mean over all ``2N`` ordered positive pairs (both directions).  The
denominators are computed with log-sum-exp stabilization: the per-row
off-diagonal maximum is subtracted as a constant, so gradients are exact.

The loss is one tape record.  It runs the expressions of the chain of
generic ops it replaced, and its backward runs that chain's gradient
expressions in the chain's order, so loss and gradients equal the chain's
bit for bit (``tests/contrastive_oracle.py`` keeps it).  The backward keeps
the normalised rows (in ``z``'s dtype and in float64), the row norms, the
shifted exponentials and their row sums; never ``z`` or the logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, NumericAbort

__all__ = ["ContrastiveConfig", "nt_xent"]

_NORM_EPS = 1e-12  # smallest row norm that may be normalized


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.1
    batch_size: int = 2  # molecules per batch (N); the latent batch has 2N rows

    def __post_init__(self) -> None:
        if not 0 < self.temperature < np.inf:
            raise ConfigError(
                f"temperature must be finite and positive, got {self.temperature}"
            )
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")


def nt_xent(tape: Tape, z: Tensor, cfg: ContrastiveConfig) -> Tensor:
    """Contrastive loss over an interleaved latent batch of ``2N`` rows; a
    zero row of ``z`` or non-finite logits raise :class:`NumericAbort`."""
    if z.data.ndim != 2:
        raise ValueError(f"z must be 2-d, got shape {z.data.shape}")
    m = z.data.shape[0]
    if m != 2 * cfg.batch_size:
        raise ValueError(f"latent batch has {m} rows, expected 2 * {cfg.batch_size}")
    dtype = z.data.dtype
    # Normalised in float64: squaring overflows float32 above about 1.8e19.
    x64 = z.data.astype(np.float64)
    norms = np.sqrt((x64**2).sum(axis=1))
    if (norms < _NORM_EPS).any():
        row = int(np.nonzero(norms < _NORM_EPS)[0][0])
        raise NumericAbort(f"row {row} has near-zero norm; cannot normalize")
    y64 = x64 / norms[:, None]
    zn = y64.astype(dtype)
    factor = dtype.type(1.0 / cfg.temperature)
    logits = ad._matmul(zn, zn.T) * factor
    if not np.isfinite(logits).all():
        raise NumericAbort("non-finite similarity logits in contrastive loss")

    off_diag = np.ones((m, m), dtype=np.float32)
    np.fill_diagonal(off_diag, 0.0)
    # Row-wise max over k != i, treated as a constant shift.
    masked = np.where(off_diag > 0, logits, -np.inf)
    row_max = masked.max(axis=1, keepdims=True).astype(np.float32)
    ones = np.ones((1, m), dtype=np.float32)
    e = np.exp(logits - row_max)
    row_sum = ad._matmul(e * off_diag, ones.T)
    log_denom = np.log(row_sum) + row_max

    # Positive-pair selector: row 2i pairs with 2i + 1 and vice versa.
    pair = np.zeros((m, m), dtype=np.float32)
    idx = np.arange(0, m, 2)
    pair[idx, idx + 1] = 1.0
    pair[idx + 1, idx] = 1.0
    pos_total = np.asarray((logits * pair).astype(np.float64).sum(), dtype=dtype)
    denom_total = np.asarray(log_denom.astype(np.float64).sum(), dtype=dtype)
    inv_m = dtype.type(1.0 / m)
    out = Tensor((denom_total - pos_total) * inv_m)

    def bwd(g: np.ndarray, owned: bool):
        g = ad._mul(g, inv_m, owned)
        # The positive term, then the denominators' term added into it.
        gl = np.broadcast_to(-g, (m, m)).astype(dtype) * pair
        g_denom = np.broadcast_to(g, (m, 1)).astype(dtype) / row_sum
        np.add(gl, (np.broadcast_to(g_denom, (m, m)) * off_diag) * e, out=gl)
        gl *= factor
        gz = ad._matmul(gl, zn)
        np.add(gz, ad._matmul(gl.T, zn), out=gz)
        g64 = gz.astype(np.float64)
        dot = (g64 * y64).sum(axis=1, keepdims=True)
        return (((g64 - y64 * dot) / norms[:, None]).astype(dtype),)

    tape._record(out, (z,), bwd)
    return out
