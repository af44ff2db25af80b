"""Normalized-temperature cross-entropy loss over paired latent views.

The latent batch holds ``2N`` rows where rows ``2i`` and ``2i + 1`` are the
two augmented views of molecule ``i``.  For an ordered pair ``(i, j)``:

    loss(i, j) = -log( exp(sim(z_i, z_j) / t)
                       / sum_{k != i} exp(sim(z_i, z_k) / t) )

with cosine similarity and temperature ``t``; the reported loss is the
mean over all ``2N`` ordered positive pairs (both directions).  The
denominators are computed with log-sum-exp stabilization: the per-row
off-diagonal maximum is subtracted as a constant, so gradients are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, NumericAbort

__all__ = ["ContrastiveConfig", "cosine_sim_matrix", "nt_xent"]


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


def cosine_sim_matrix(tape: Tape, z: Tensor) -> Tensor:
    """All-pairs cosine similarities of the rows of ``z``."""
    zn = ad.l2_normalize_rows(tape, z)
    return ad.matmul_t(tape, zn, zn)


def nt_xent(tape: Tape, z: Tensor, cfg: ContrastiveConfig) -> Tensor:
    """Contrastive loss over an interleaved latent batch of ``2N`` rows."""
    rows = z.data.shape[0]
    if rows != 2 * cfg.batch_size:
        raise ValueError(
            f"latent batch has {rows} rows, expected 2 * {cfg.batch_size}"
        )
    m = rows
    logits = ad.scale(tape, cosine_sim_matrix(tape, z), 1.0 / cfg.temperature)
    if not np.isfinite(logits.data).all():
        raise NumericAbort("non-finite similarity logits in contrastive loss")

    off_diag = np.ones((m, m), dtype=np.float32)
    np.fill_diagonal(off_diag, 0.0)
    # Row-wise max over k != i, treated as a constant shift.
    masked = np.where(off_diag > 0, logits.data, -np.inf)
    row_max = masked.max(axis=1, keepdims=True).astype(np.float32)

    shifted = ad.sub(tape, logits, ad.constant(row_max))
    exp_off = ad.mul(tape, ad.exp(tape, shifted), ad.constant(off_diag))
    row_sum = ad.matmul_t(tape, exp_off, ad.constant(np.ones((1, m), dtype=np.float32)))
    log_denom = ad.add(tape, ad.log(tape, row_sum), ad.constant(row_max))

    # Positive-pair selector: row 2i pairs with 2i + 1 and vice versa.
    pair = np.zeros((m, m), dtype=np.float32)
    idx = np.arange(0, m, 2)
    pair[idx, idx + 1] = 1.0
    pair[idx + 1, idx] = 1.0
    pos_total = ad.sum(tape, ad.mul(tape, logits, ad.constant(pair)))

    total = ad.sub(tape, ad.sum(tape, log_denom), pos_total)
    return ad.scale(tape, total, 1.0 / m)
