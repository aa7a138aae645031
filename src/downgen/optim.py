"""Adam with global-norm gradient clipping and a warmup + cosine-decay schedule.

The optimizer owns the parameters while it trains them: `ensure_buffers`
copies a parameter dict into one flat float64 vector and rebinds each entry
to its view. A step gathers the gradients and updates that vector in blocks
of whole tensors, so the two moments are the only other parameter-sized
arrays it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nets import DivergenceError

BETA1 = 0.9    # first-moment decay
BETA2 = 0.999  # second-moment decay
EPS = 1e-8     # added to the update's denominator
# Most elements in one update block, unless one tensor alone has more. The
# velocity net is one block; the SR net's blocks each fit in L2 cache.
BLOCK_ELEMENTS = 1 << 16


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


def _blocks(slices):
    """Consecutive runs of whole tensors, each of at most BLOCK_ELEMENTS elements
    unless it is one larger tensor: (start, stop, names) over the flat vector."""
    blocks = []
    for k, (sl, _) in slices.items():
        if blocks and sl.stop - blocks[-1][0] <= BLOCK_ELEMENTS:
            blocks[-1] = (blocks[-1][0], sl.stop, blocks[-1][2] + (k,))
        else:
            blocks.append((sl.start, sl.stop, (k,)))
    return blocks


@dataclass
class OptimizerState:
    """Adam state over one flat float64 parameter vector.

    The parameters and the two moments are flat vectors; m[k] and v[k] are
    named views of the moments, and `ensure_buffers` rebinds each params[k] to
    its view of the parameter vector. Two scratch vectors hold one update
    block. grad_norm is the pre-clip global gradient norm of the last step.
    """

    schedule: Schedule
    clip_norm: float = 0.6
    step: int = 0
    m: dict = field(default_factory=dict, init=False)
    v: dict = field(default_factory=dict, init=False)
    grad_norm: float = field(default=float("nan"), init=False)
    # (params, m, v) and the (gradient, update) scratch of one block, allocated
    # once: fresh arrays every step fragment the heap and move peak RSS by layout alone
    _flat: tuple = field(default=(), init=False, repr=False)
    _scratch: tuple = field(default=(), init=False, repr=False)
    _slices: dict = field(default_factory=dict, init=False, repr=False)
    _blocks: list = field(default_factory=list, init=False, repr=False)
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
            self._blocks = _blocks(self._slices)
            self._flat = tuple(np.zeros(start) for _ in range(3))
            widest = max((hi - lo for lo, hi, _ in self._blocks), default=0)
            self._scratch = (np.zeros(widest), np.zeros(widest))
            self.m, self.v = ({k: vec[sl].reshape(shape) for k, (sl, shape) in self._slices.items()}
                              for vec in self._flat[1:])
        flat = self._flat[0]
        self._views = {}
        for k, (sl, shape) in self._slices.items():
            view = flat[sl].reshape(shape)
            np.copyto(view, params[k])
            params[k] = self._views[k] = view

    def _gather(self, grads, block):
        """The block's gradients, copied into the front of the gradient scratch."""
        lo, hi, names = block
        g = self._scratch[0][:hi - lo]
        for k in names:
            sl, shape = self._slices[k]
            np.copyto(g[sl.start - lo: sl.stop - lo].reshape(shape), grads[k])
        return g


def adam_step(params: dict, state: OptimizerState, grads: dict) -> float:
    """Clip by global norm, then apply one Adam update in place. Returns the lr used.

    The parameters are views of the state's flat vector (`ensure_buffers`).
    A first pass over the update blocks sums the squared gradients; the norm
    doubles as the finiteness check, non-finite exactly when some gradient is
    NaN or infinite or the squares overflow, and nothing is changed before
    it. A second pass gathers each block's gradients again (a model of one
    block keeps them) and updates it with a few vector operations, each
    element computed as in the per-tensor formula
    p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS).
    """
    state.ensure_buffers(params)
    p, m, v = state._flat
    blocks = state._blocks
    total = 0.0
    with np.errstate(over="ignore"):
        for block in blocks:
            g = state._gather(grads, block)
            total += np.square(g, out=state._scratch[1][:len(g)]).sum()
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        raise DivergenceError("non-finite gradients")
    state.grad_norm = norm
    lr = state.schedule.lr_at(state.step)
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for block in blocks:
        lo, hi, _ = block
        g = state._gather(grads, block) if len(blocks) > 1 else state._scratch[0][:hi - lo]
        u = state._scratch[1][:hi - lo]
        mb, vb = m[lo:hi], v[lo:hi]
        if norm > state.clip_norm:
            g *= state.clip_norm / norm
        mb *= BETA1
        mb += np.multiply(g, 1.0 - BETA1, out=u)
        vb *= BETA2
        np.square(g, out=g)
        vb += np.multiply(g, 1.0 - BETA2, out=g)
        np.divide(vb, bc2, out=g)
        np.sqrt(g, out=g)
        g += EPS
        np.divide(mb, bc1, out=u)
        u *= lr
        u /= g
        p[lo:hi] -= u
    return lr
