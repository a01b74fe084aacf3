"""Finite-difference check of the autodiff backward rules.

``grad_check`` compares the gradients ``autodiff.backward`` gives with
central differences of the forward pass; the primitive tests and the
whole-model teacher-forced loss test both use it.
"""

import numpy as np

from dualstyle import autodiff as ad


def grad_check(fn, params, h: float = 1e-5, samples_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Max relative error of backward() against central finite differences.

    ``fn`` maps the given parameter tensors to a scalar tensor and must be
    deterministic.  Relative error per coordinate is
    ``|ad - fd| / (|ad| + |fd| + 1e-6)``.  When ``samples_per_param`` is set,
    only that many randomly chosen coordinates per parameter are probed.
    """
    params = list(params)
    for p in params:
        p.grad = None
    with ad.Tape() as tape:
        loss = fn(params)
    ad.backward(tape, loss)
    analytic = [np.zeros_like(p.value) if p.grad is None else p.grad.copy()
                for p in params]
    for p in params:
        p.grad = None

    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        n = flat.size
        if samples_per_param is None or samples_per_param >= n:
            coords = range(n)
        else:
            coords = rng.choice(n, size=samples_per_param, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            f_plus = float(fn(params).value)
            flat[c] = orig - h
            f_minus = float(fn(params).value)
            flat[c] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            a = float(grad.reshape(-1)[c])
            err = abs(a - fd) / (abs(a) + abs(fd) + 1e-6)
            worst = max(worst, err)
    return worst
