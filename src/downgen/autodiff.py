"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A forward pass builds a tape of Tensor nodes; ``backward`` walks it once and
accumulates gradients on leaf tensors. Only the operations needed by the
velocity/denoiser networks are provided, each with a hand-written
vector-Jacobian product.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """Node in the autodiff tape. Leaves (no parents) collect gradients."""

    __slots__ = ("data", "grad", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, -other if isinstance(other, Tensor) else -np.asarray(other))

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return mul(self, 1.0 / np.asarray(scalar, dtype=np.float64))

    def __neg__(self):
        return neg(self)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(out: Tensor):
    """Accumulate d(out)/d(leaf) into each leaf's .grad. `out` must be scalar."""
    if out.data.size != 1:
        raise ValueError("backward expects a scalar output")
    order = []
    seen = set()
    stack = [(out, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
        else:
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
    for node in order:
        node.grad = None
    out.grad = np.ones_like(out.data)
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# Elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(a.data + b.data, (a, b),
                  lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return Tensor(a.data * b.data, (a, b),
                  lambda g: (_unbroadcast(g * b.data, a.data.shape),
                             _unbroadcast(g * a.data, b.data.shape)))


def neg(a):
    a = _as_tensor(a)
    return Tensor(-a.data, (a,), lambda g: (-g,))


def silu(a):
    a = _as_tensor(a)
    # overflow-free logistic: e = exp(-|a|) lies in (0, 1]
    e = np.exp(-np.abs(a.data))
    s = np.where(a.data >= 0, 1.0, e) / (1.0 + e)
    return Tensor(a.data * s, (a,), lambda g: (g * s * (1.0 + a.data * (1.0 - s)),))


def square(a):
    a = _as_tensor(a)
    return Tensor(a.data ** 2, (a,), lambda g: (2.0 * g * a.data,))


def mean(a, axes=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.mean(axis=axes, keepdims=keepdims)
    count = a.data.size if axes is None else np.prod([a.data.shape[ax] for ax in np.atleast_1d(axes)])

    def vjp(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return Tensor(out, (a,), vjp)


def reshape(a, shape):
    a = _as_tensor(a)
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes):
    a = _as_tensor(a)
    inv = np.argsort(axes)
    return Tensor(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
                  lambda g: tuple(np.split(g, splits, axis=axis)))


# ---------------------------------------------------------------------------
# Dense / convolution
# ---------------------------------------------------------------------------

def dense(x, w, b):
    """Affine map on the trailing axis: x [..., n] @ w [n, m] + b [m]."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    out = x.data @ w.data + b.data

    def vjp(g):
        g2 = g.reshape(-1, w.data.shape[1])
        x2 = x.data.reshape(-1, w.data.shape[0])
        return g @ w.data.T, x2.T @ g2, g2.sum(axis=0)

    return Tensor(out, (x, w, b), vjp)


def conv2d(x, w, b, stride=1):
    """Same-padded 2-D convolution, channels last, as shift-and-GEMM.

    x: [B, H, W, Cin], w: [kh, kw, Cin, Cout], b: [Cout]; odd kernel sizes only.
    The input is zero-padded once; kernel tap (i, j) sees one strided slice of
    the padded input, and the output is the sum over taps of that slice times
    w[i, j]. The vjp reuses the same slices: one GEMM per tap for dw and a
    scatter-add into the padded buffer for dx.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    kh, kw, cin, cout = w.data.shape
    n, h, wd, _ = x.data.shape
    ph, pw = kh // 2, kw // 2
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xp = np.zeros((n, h + 2 * ph, wd + 2 * pw, cin))
    xp[:, ph: ph + h, pw: pw + wd] = x.data
    taps = [(i, j, np.s_[:, i: i + stride * ho: stride, j: j + stride * wo: stride])
            for i in range(kh) for j in range(kw)]
    out = np.zeros((n * ho * wo, cout))
    for i, j, tap in taps:
        out += xp[tap].reshape(-1, cin) @ w.data[i, j]
    out = out.reshape(n, ho, wo, cout) + b.data

    def vjp(g):
        g2 = g.reshape(-1, cout)
        dw = np.empty_like(w.data)
        dxp = np.zeros_like(xp)
        for i, j, tap in taps:
            dw[i, j] = xp[tap].reshape(-1, cin).T @ g2
            dxp[tap] += g @ w.data[i, j].T
        dx = dxp[:, ph: ph + h, pw: pw + wd]
        return dx, dw, g2.sum(axis=0)

    return Tensor(out, (x, w, b), vjp)


def upsample2(x):
    """Nearest-neighbour 2x upsampling of the two spatial axes of [B, H, W, C]."""
    x = _as_tensor(x)
    out = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def vjp(g):
        b, h2, w2, c = g.shape
        return (g.reshape(b, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4)),)

    return Tensor(out, (x,), vjp)
