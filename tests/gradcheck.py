"""Finite-difference gradient check for the tests of the autodiff engine."""

import numpy as np

from flowinverse.tensor import Tape, Tensor, backward


def finite_difference_check(fn, params: dict, h: float = 1e-4, max_entries: int | None = None,
                            rng: np.random.Generator | None = None, entries: dict | None = None):
    """Compare analytic gradients of ``fn(params) -> scalar Tensor`` with
    central finite differences evaluated in float64.

    Returns the worst relative error over all checked parameter entries.
    ``max_entries`` limits the number of randomly chosen entries per tensor
    (None checks every entry); ``entries`` maps a parameter name to the flat
    indices to check in it instead.
    """
    shadow = {k: Tensor(p.data.astype(np.float64), requires_grad=True, dtype=np.float64)
              for k, p in params.items()}
    with Tape() as tape:
        loss = fn(shadow)
    backward(loss, tape)

    worst = 0.0
    for k, p in shadow.items():
        flat = p.data.reshape(-1)
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        gflat = grad.reshape(-1)
        idxs = np.arange(flat.size)
        if entries is not None and k in entries:
            idxs = entries[k]
        elif max_entries is not None and flat.size > max_entries:
            if rng is None:
                rng = np.random.default_rng(0)
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = fn(shadow).item()
            flat[i] = orig - h
            fm = fn(shadow).item()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            ref = max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(fd - gflat[i]) / ref)
    return worst
