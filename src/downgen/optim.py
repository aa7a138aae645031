"""Adam with global-norm gradient clipping and a warmup + cosine-decay schedule.

The optimizer owns the parameters while it trains them: `ensure_buffers`
copies a parameter dict into one flat float64 vector and rebinds each entry
to its view, so one step updates every parameter with one vector operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nets import DivergenceError

BETA1 = 0.9    # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8     # added to the update's denominator


@dataclass
class Schedule:
    peak_lr: float = 1e-3
    end_lr: float = 1e-6
    warmup_steps: int = 100
    total_steps: int = 1000

    def lr_at(self, step):
        if step < self.warmup_steps:
            return self.peak_lr * (step + 1) / self.warmup_steps
        span = max(1, self.total_steps - self.warmup_steps)
        frac = min(1.0, (step - self.warmup_steps) / span)
        return self.end_lr + 0.5 * (self.peak_lr - self.end_lr) * (1.0 + np.cos(np.pi * frac))


@dataclass
class OptimizerState:
    """Adam state over one flat float64 parameter vector.

    The parameters, the two moments and two scratch vectors are flat vectors;
    m[k] and v[k] are named views of the moments, and `ensure_buffers` rebinds
    each params[k] to its view of the parameter vector. grad_norm is the
    pre-clip global gradient norm of the last step.
    """

    schedule: Schedule
    clip_norm: float = 0.6
    step: int = 0
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)
    grad_norm: float = field(default=float("nan"), init=False)
    # (params, m, v, gradient scratch, update scratch), allocated once: fresh
    # arrays every step fragment the heap and move peak RSS by layout alone
    _flat: tuple = field(default=(), init=False, repr=False)
    _slices: dict = field(default_factory=dict, init=False, repr=False)
    _views: dict = field(default_factory=dict, init=False, repr=False)

    def ensure_buffers(self, params):
        """Bind `params` to the state's parameter vector, allocating it once.

        The flat vectors are allocated when the names in `params` change; the
        moments start at zero and later calls keep them. A dict whose arrays
        are not the vector's views (a fresh dict, or a replaced array) is
        copied into the vector and each params[k] rebound to its view.
        """
        if self._views.keys() == params.keys() and all(
                params[k] is p for k, p in self._views.items()):
            return
        if self._slices.keys() != params.keys():
            start, self._slices = 0, {}
            for k, p in params.items():
                self._slices[k] = (slice(start, start + p.size), p.shape)
                start += p.size
            self._flat = tuple(np.zeros(start) for _ in range(5))
            self.m, self.v = ({k: vec[sl].reshape(shape) for k, (sl, shape) in self._slices.items()}
                              for vec in self._flat[1:3])
        flat = self._flat[0]
        self._views = {}
        for k, (sl, shape) in self._slices.items():
            view = flat[sl].reshape(shape)
            np.copyto(view, params[k])
            params[k] = self._views[k] = view


def adam_step(params: dict, state: OptimizerState, grads: dict) -> float:
    """Clip by global norm, then apply one Adam update in place. Returns the lr used.

    The parameters are views of the state's flat vector (`ensure_buffers`) and
    the gradients are gathered into one more, so the norm, clipping and the
    update are a few vector operations; each element is computed as in the
    per-tensor formula p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS). The norm
    doubles as the finiteness check: it is non-finite exactly when some
    gradient is NaN or infinite, or when the squares overflow.
    """
    state.ensure_buffers(params)
    p, m, v, g, u = state._flat
    for k, (sl, shape) in state._slices.items():
        np.copyto(g[sl].reshape(shape), grads[k])
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.square(g, out=u).sum()))
    if not np.isfinite(norm):
        raise DivergenceError("non-finite gradients")
    state.grad_norm = norm
    if norm > state.clip_norm:
        g *= state.clip_norm / norm
    lr = state.schedule.lr_at(state.step)
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=u)
    v *= BETA2
    np.square(g, out=g)
    v += np.multiply(g, 1.0 - BETA2, out=g)
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += EPS
    np.divide(m, bc1, out=u)
    u *= lr
    u /= g
    p -= u
    return lr
