"""Central-finite-difference gradient oracle and the analytic (loss, grads) of a
loss built on a tape, shared by the test suite."""

import numpy as np

from downgen.reflow import _loss_and_grads


def finite_diff_grads(f, arrays, eps=1e-5):
    """Central differences of scalar f(arrays) w.r.t. every entry of every array.

    `arrays` is a dict name -> np.ndarray, mutated in place during probing and
    restored afterwards.
    """
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            fp = f(arrays)
            arr[idx] = orig - eps
            fm = f(arrays)
            arr[idx] = orig
            g[idx] = (fp - fm) / (2.0 * eps)
        grads[name] = g
    return grads


def rel_error(analytic, numeric):
    """Norm-based relative error between two gradient dicts, worst tensor."""
    worst = 0.0
    for name in numeric:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        denom = max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)
        worst = max(worst, np.linalg.norm(a - n) / denom)
    return worst


def loss_and_grads(build, params):
    """(loss value, grads) of the scalar Tensor build(leaves) over the arrays
    `params`, by the training step's own tape plumbing."""
    return _loss_and_grads(params, lambda leaves, _: build(leaves), None)
