"""Reference Adam: the per-parameter update that ``training.adam_step``
replaced with one tiled pass over flat moments.

It loops over the parameters by name and keeps one pair of float64 moment
arrays per name, with full-size temporaries for every operation.  The
tiled step must match it byte for byte, in parameters and in moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from molcontrast.autodiff import Tensor
from molcontrast.training import _ADAM_EPS, _BETA1, _BETA2


@dataclass
class OracleState:
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: OracleState,
    lr: float | Callable[[str], float],
    weight_decay: float = 0.0,
) -> None:
    """One Adam update in place; only parameters named in ``grads`` move."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name in params:
        if name not in grads:
            continue
        p = params[name]
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter "
                f"{name} shape {p.data.shape}"
            )
        if weight_decay:
            g = g + weight_decay * p.data.astype(np.float64)
        if name not in state.m:
            state.m[name] = np.zeros(p.data.shape, dtype=np.float64)
            state.v[name] = np.zeros(p.data.shape, dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        rate = lr(name) if callable(lr) else lr
        update = rate * (m / bc1) / (np.sqrt(v / bc2) + _ADAM_EPS)
        p.data -= update.astype(p.data.dtype)
        p.data[np.abs(p.data) < np.finfo(p.data.dtype).tiny] = 0


def flat_moments(
    params: Mapping[str, Tensor], state: OracleState
) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's moments laid out as ``AdamState`` lays out its flat
    buffers: every parameter in order, zeros for one never updated."""
    def flat(moments):
        return np.concatenate(
            [np.zeros(0)]
            + [moments.get(name, np.zeros(p.data.shape)).ravel() for name, p in params.items()]
        )

    return flat(state.m), flat(state.v)
