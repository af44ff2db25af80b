"""Reference fine-tune loss: the chain of generic tape records that
``training._masked_loss`` replaced with one record.

Classification takes six records (the -1/+1 difference product, the sign
product, softplus, the mask product, the sum and the mean's scale);
regression takes eight (the difference, two ReLUs around a scale by -1,
their sum, the mask product, the sum and the scale).  The products and
elementwise ops come from ``chain_ops``.  The one-record loss must match
this chain byte for byte, in the loss and in the gradient of ``out``.
"""

from __future__ import annotations

import numpy as np

import chain_ops
from molcontrast import autodiff as ad
from molcontrast.autodiff import Tape, Tensor


def diff_basis(tasks: int) -> np.ndarray:
    """The [tasks, 2 * tasks] basis whose product with two logits per task
    gives ``l1 - l0`` per task."""
    basis = np.zeros((tasks, 2 * tasks), dtype=np.float32)
    for t in range(tasks):
        basis[t, 2 * t] = -1.0
        basis[t, 2 * t + 1] = 1.0
    return basis


def masked_loss(
    tape: Tape, out: Tensor, labels: np.ndarray, observed: np.ndarray, task_kind: str
) -> Tensor:
    """The mean of the per-label loss over the observed labels, as a chain."""
    mask = chain_ops.constant(observed.astype(np.float32))
    count = int(observed.sum())
    if task_kind == "classification":
        # 2-logit softmax CE reduces to softplus((1-2y) * (l1 - l0)).
        basis = diff_basis(out.data.shape[1] // 2)
        d = chain_ops.matmul_t(tape, out, chain_ops.constant(basis))
        sign = chain_ops.constant((1.0 - 2.0 * labels).astype(np.float32))
        per = chain_ops.softplus(tape, chain_ops.mul(tape, d, sign))
    else:
        diff = chain_ops.sub(tape, out, chain_ops.constant(labels.astype(np.float32)))
        negated = chain_ops.scale(tape, diff, -1.0)
        per = chain_ops.add(tape, chain_ops.relu(tape, diff), chain_ops.relu(tape, negated))
    masked = chain_ops.mul(tape, per, mask)
    return chain_ops.scale(tape, ad.sum(tape, masked), 1.0 / max(count, 1))
