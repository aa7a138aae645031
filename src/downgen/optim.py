"""Adam with global-norm gradient clipping and a warmup + cosine-decay schedule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nets import DivergenceError


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
    """Adam state. The moments are two flat vectors; m[k] and v[k] are named views.

    grad_norm is the pre-clip global gradient norm of the last step.
    """

    schedule: Schedule
    clip_norm: float = 0.6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)
    grad_norm: float = field(default=float("nan"), init=False)
    # flat moments and two scratch vectors, allocated once: fresh arrays every
    # step fragment the heap and move peak RSS by layout alone
    _flat: tuple = field(default=(), init=False, repr=False)
    _slices: dict = field(default_factory=dict, init=False, repr=False)

    def ensure_buffers(self, params):
        """Allocate the flat buffers for `params` once; later calls keep them."""
        if self._slices.keys() == params.keys():
            return
        start, self._slices = 0, {}
        for k, p in params.items():
            self._slices[k] = (slice(start, start + p.size), p.shape)
            start += p.size
        self._flat = tuple(np.zeros(start) for _ in range(4))
        m, v = self._flat[:2]
        self.m = {k: m[sl].reshape(shape) for k, (sl, shape) in self._slices.items()}
        self.v = {k: v[sl].reshape(shape) for k, (sl, shape) in self._slices.items()}


def adam_step(params: dict, state: OptimizerState, grads: dict) -> float:
    """Clip by global norm, then apply one Adam update in place. Returns the lr used.

    The gradients are gathered into one flat vector, so the finiteness check,
    the norm and the update are a few vector operations; each element is
    computed as in the per-tensor formula
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps).
    """
    state.ensure_buffers(params)
    m, v, g, u = state._flat
    for k, (sl, shape) in state._slices.items():
        np.copyto(g[sl].reshape(shape), grads[k])
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradients")
    norm = state.grad_norm = float(np.sqrt(np.square(g, out=u).sum()))
    if norm > state.clip_norm:
        g *= state.clip_norm / norm
    lr = state.schedule.lr_at(state.step)
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=u)
    v *= state.beta2
    np.square(g, out=g)
    v += np.multiply(g, 1.0 - state.beta2, out=g)
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    np.divide(m, bc1, out=u)
    u *= lr
    u /= g
    for k, (sl, shape) in state._slices.items():
        params[k] -= u[sl].reshape(shape)
    return lr
