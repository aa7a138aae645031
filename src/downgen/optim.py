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
    schedule: Schedule
    clip_norm: float = 0.6
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def ensure_buffers(self, params):
        for k, p in params.items():
            if k not in self.m:
                self.m[k] = np.zeros_like(p)
                self.v[k] = np.zeros_like(p)


def global_norm(grads):
    return float(np.sqrt(sum(float((g ** 2).sum()) for g in grads.values())))


def adam_step(params: dict, state: OptimizerState, grads: dict) -> float:
    """Clip by global norm, then apply one Adam update in place. Returns the lr used."""
    state.ensure_buffers(params)
    for g in grads.values():
        if not np.isfinite(g).all():
            raise DivergenceError("non-finite gradients")
    norm = global_norm(grads)
    scale = state.clip_norm / norm if norm > state.clip_norm else 1.0
    lr = state.schedule.lr_at(state.step)
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
    for k in sorted(params):
        g = grads[k] * scale
        m, v = state.m[k], state.v[k]   # in place: fresh arrays each step fragment the heap
        np.add(state.beta1 * m, (1.0 - state.beta1) * g, out=m)
        np.add(state.beta2 * v, (1.0 - state.beta2) * g ** 2, out=v)
        params[k] -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return lr
