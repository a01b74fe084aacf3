"""Adam with bias correction, plus global-norm gradient clipping.

Adam's decay rates and stabiliser are the module constants ``BETA1``,
``BETA2`` and ``EPS``: the defaults of Kingma & Ba, which every model uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import NaNDetectedError, ShapeMismatchError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators and the step count."""

    lr: float = 1e-3
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {f"m.{k}": v for k, v in self.m.items()}
        out.update({f"v.{k}": v for k, v in self.v.items()})
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        self.m = {k[2:]: v for k, v in arrays.items() if k.startswith("m.")}
        self.v = {k[2:]: v for k, v in arrays.items() if k.startswith("v.")}
        self.t = t


# Elements per block of ``adam_step``: the six float64 blocks a chunk touches
# (parameter, gradient, both moments, two scratch) take 1.5 MB, which stays in
# a 2 MB L2 cache across the update's fourteen passes.
ADAM_CHUNK = 1 << 15


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place on the parameter values.

    ``grads`` needs one gradient per parameter, as ``collect_grads`` gives.

    The update is ``lr * m_hat / (sqrt(v_hat) + eps)``, evaluated with ``out=``
    ufuncs into two scratch buffers shared by all parameters, in the order the
    plain expression would evaluate it, so the result is bit-identical to it.
    Each parameter is swept in flat chunks of ``ADAM_CHUNK`` elements, so the
    passes over a chunk hit cache; every op is elementwise, so chunking
    changes no value.
    """
    state.t += 1
    correction1 = 1.0 - BETA1 ** state.t
    correction2 = 1.0 - BETA2 ** state.t
    scratch1, scratch2 = np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.value.shape:
            raise ShapeMismatchError(
                f"gradient for {name} has shape {g.shape}, expected {p.value.shape}"
            )
        if name not in state.m:
            state.m[name] = np.zeros_like(p.value)
            state.v[name] = np.zeros_like(p.value)
        m, v = state.m[name], state.v[name]
        if not (p.value.flags.c_contiguous and m.flags.c_contiguous
                and v.flags.c_contiguous):
            raise ValueError(f"{name}: adam_step updates C-contiguous arrays in place")
        flat_p, flat_g, flat_m, flat_v = (a.reshape(-1) for a in (p.value, g, m, v))
        for lo in range(0, flat_g.size, ADAM_CHUNK):
            hi = lo + ADAM_CHUNK
            gc, mc, vc = flat_g[lo:hi], flat_m[lo:hi], flat_v[lo:hi]
            s1, s2 = scratch1[: gc.size], scratch2[: gc.size]
            mc *= BETA1
            np.multiply(1.0 - BETA1, gc, out=s1)
            mc += s1
            vc *= BETA2
            np.multiply(1.0 - BETA2, gc, out=s1)
            s1 *= gc
            vc += s1
            np.divide(mc, correction1, out=s1)  # m_hat
            s1 *= state.lr
            np.divide(vc, correction2, out=s2)  # v_hat
            np.sqrt(s2, out=s2)
            s2 += EPS
            s1 /= s2
            flat_p[lo:hi] -= s1


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise NaNDetectedError("gradient norm is not finite")
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm


def collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Take the gradients out of the parameters after a backward pass.

    Each parameter's gradient array is handed over, not copied (backward
    always leaves a parameter owning its gradient), and the parameter's
    gradient is cleared; missing grads become zeros.
    """
    out = {}
    for name, p in params.items():
        out[name] = np.zeros_like(p.value) if p.grad is None else p.grad
        p.grad = None
    return out
