"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A forward pass builds a tape of Tensor nodes; ``backward`` walks it once and
accumulates gradients on leaf tensors. Only the operations needed by the
velocity/denoiser networks are provided, each with a hand-written
vector-Jacobian product.

A Tensor built explicitly is a leaf that receives a gradient. A plain ndarray
handed to an op is a constant, and an op's output joins the tape only if one
of its inputs needs a gradient: ops on constants alone record no parents and
no vjp, so a forward pass over plain parameter arrays builds no tape.

``conv2d`` has two kernels, picked from the input shape. An image with more
pixels than the kernel has taps runs as shift-and-GEMM: one GEMM per tap over
a zero-padded buffer. A smaller one (H·W <= kh·kw) runs as one GEMM against
the unrolled kernel; it does H·W·Ho·Wo block products against kh·kw·Ho·Wo,
so it is never the costlier one on such images.
"""

from __future__ import annotations

import functools

import numpy as np


class Tensor:
    """Node in the autodiff tape. Leaves (no parents) collect gradients."""

    __slots__ = ("data", "grad", "parents", "vjp", "requires_grad")
    __array_ufunc__ = None   # ndarray (op) Tensor defers to the Tensor's reflected op

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self.vjp = vjp
        self.requires_grad = True

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


def _constant(data):
    t = Tensor(data)
    t.requires_grad = False
    return t


def _as_tensor(x):
    return x if isinstance(x, Tensor) else _constant(x)


def _node(data, inputs, vjp):
    """An op's output: on the tape if any input needs a gradient, else a constant."""
    if any(t.requires_grad for t in inputs):
        return Tensor(data, inputs, vjp)
    return _constant(data)


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
    """Accumulate d(out)/d(leaf) into each leaf's .grad. `out` must be scalar.

    Constants are never visited: no vjp runs for them or below them. An
    interior node's gradient is dropped once passed on, so only leaves keep
    theirs.
    """
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
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
    for node in order:
        node.grad = None
    out.grad = np.ones_like(out.data)
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        grads = node.vjp(node.grad)
        node.grad = None
        for parent, g in zip(node.parents, grads):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


# ---------------------------------------------------------------------------
# Elementwise and shape ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _node(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    return _node(a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))


def neg(a):
    a = _as_tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def silu(a):
    a = _as_tensor(a)
    # logistic 1 / (1 + exp(-a)) in one buffer; exp overflows to inf for
    # a << 0, which gives s = 0 exactly
    s = np.empty_like(a.data)
    with np.errstate(over="ignore"):
        np.exp(np.negative(a.data, out=s), out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    return _node(a.data * s, (a,), lambda g: (g * s * (1.0 + a.data * (1.0 - s)),))


def square(a):
    a = _as_tensor(a)
    return _node(a.data ** 2, (a,), lambda g: (2.0 * g * a.data,))


def mean(a, axes=None, keepdims=False):
    a = _as_tensor(a)
    out = a.data.mean(axis=axes, keepdims=keepdims)
    count = a.data.size if axes is None else np.prod([a.data.shape[ax] for ax in np.atleast_1d(axes)])

    def vjp(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.data.shape) / count,)

    return _node(out, (a,), vjp)


def reshape(a, shape):
    a = _as_tensor(a)
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a, axes):
    a = _as_tensor(a)
    inv = np.argsort(axes)
    return _node(a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),))


def slice_axis(a, start, stop, axis=-1):
    """a[start:stop] along `axis`; the vjp writes g into zeros shaped like a."""
    a = _as_tensor(a)
    index = (slice(None),) * (axis % a.data.ndim) + (slice(start, stop),)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return _node(a.data[index], (a,), vjp)


def concat(tensors, axis=-1):
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors),
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
        return (g @ w.data.T if x.requires_grad else None,
                x2.T @ g2 if w.requires_grad else None,
                g2.sum(axis=0) if b.requires_grad else None)

    return _node(out, (x, w, b), vjp)


def _zero_padded(a, h, wd, ph, pw, step=1):
    """[B, h + 2ph, wd + 2pw, C] zeros with a [B, ., ., C] written every `step` pixels
    from (ph, pw)."""
    xp = np.zeros((a.shape[0], h + 2 * ph, wd + 2 * pw, a.shape[-1]))
    xp[:, ph: ph + step * a.shape[1]: step, pw: pw + step * a.shape[2]: step] = a
    return xp


def _tap_slices(kh, kw, stride, ho, wo):
    """(i, j, slice): the padded-input pixels kernel tap (i, j) sees, per output pixel."""
    return [(i, j, np.s_[:, i: i + stride * ho: stride, j: j + stride * wo: stride])
            for i in range(kh) for j in range(kw)]


def _correlate(xp, w, stride, ho, wo):
    """Shift-and-GEMM correlation of a padded input with w: [B * ho * wo, Cout].

    The sum over kernel taps (i, j) of the tap's strided slice of xp, reshaped
    to [B * ho * wo, Cin], times w[i, j]: one 2-D GEMM per tap.
    """
    kh, kw, cin, cout = w.shape
    out = np.zeros((xp.shape[0] * ho * wo, cout))
    for i, j, tap in _tap_slices(kh, kw, stride, ho, wo):
        out += xp[tap].reshape(-1, cin) @ w[i, j]
    return out


@functools.lru_cache
def _unrolled_taps(h, wd, kh, kw, stride):
    """(p, q, i, j): input pixel p reaches output pixel q through kernel tap (i, j).

    Pixels are numbered row-major. A pair (p, q) has at most one tap, and a
    pair with none contributes nothing.
    """
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    taps = []
    for p in range(h * wd):
        y, xx = divmod(p, wd)
        for q in range(ho * wo):
            oy, ox = divmod(q, wo)
            i, j = y - stride * oy + kh // 2, xx - stride * ox + kw // 2
            if 0 <= i < kh and 0 <= j < kw:
                taps.append((p, q, i, j))
    return tuple(taps)


def _conv2d_unrolled(x, w, b, stride):
    """conv2d of an image with no more pixels than the kernel has taps, as one GEMM.

    M [H·W·Cin, Ho·Wo·Cout] is the unrolled kernel: its (p, q) block is the
    w[i, j] of the tap that carries input pixel p to output pixel q, else 0.
    The output is x.reshape(B, H·W·Cin) @ M, dx is g @ Mᵀ, and dw[i, j] sums
    the blocks of xᵀ @ g that tap (i, j) produced. M is rebuilt on every call
    because the optimiser updates w in place.
    """
    kh, kw, cin, cout = w.data.shape
    n, h, wd, _ = x.data.shape
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    taps = _unrolled_taps(h, wd, kh, kw, stride)
    m = np.zeros((h * wd, cin, ho * wo, cout))
    for p, q, i, j in taps:
        m[p, :, q, :] = w.data[i, j]
    m = m.reshape(h * wd * cin, ho * wo * cout)
    x2 = x.data.reshape(n, -1)
    out = (x2 @ m).reshape(n, ho, wo, cout) + b.data

    def vjp(g):
        g2 = g.reshape(n, -1)
        dw = None
        if w.requires_grad:
            dm = (x2.T @ g2).reshape(h * wd, cin, ho * wo, cout)
            dw = np.zeros_like(w.data)
            for p, q, i, j in taps:
                dw[i, j] += dm[p, :, q, :]
        dx = (g2 @ m.T).reshape(n, h, wd, cin) if x.requires_grad else None
        return dx, dw, g.reshape(-1, cout).sum(axis=0) if b.requires_grad else None

    return _node(out, (x, w, b), vjp)


def conv2d(x, w, b, stride=1):
    """Same-padded 2-D convolution, channels last.

    x: [B, H, W, Cin], w: [kh, kw, Cin, Cout], b: [Cout]; odd kernel sizes only.
    An image with H·W <= kh·kw runs as one GEMM against the unrolled kernel
    (`_conv2d_unrolled`): H·W·Ho·Wo block products, never more than the
    kh·kw·Ho·Wo of shift-and-GEMM on such an image, and M holds at most
    (kh·kw)²·Cin·Cout elements. Every larger image runs as shift-and-GEMM.

    Shift-and-GEMM zero-pads the input once; kernel tap (i, j) sees one strided
    slice of the padded input, and the output is the sum over taps of that
    slice times w[i, j]. The vjp reuses the same slices for dw, one GEMM per
    tap. dx is the same correlation, stride 1, of the output gradient with the
    flipped, transposed kernel w[::-1, ::-1].swapaxes(2, 3); at stride 2 the
    gradient is first zero-dilated, written every second pixel of its padded
    buffer.

    Either kernel computes dx only when x needs a gradient (not for a data
    input).
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    kh, kw, cin, cout = w.data.shape
    n, h, wd, _ = x.data.shape
    if h * wd <= kh * kw:
        return _conv2d_unrolled(x, w, b, stride)
    ph, pw = kh // 2, kw // 2
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xp = _zero_padded(x.data, h, wd, ph, pw)
    out = _correlate(xp, w.data, stride, ho, wo).reshape(n, ho, wo, cout) + b.data

    def vjp(g):
        g2 = g.reshape(-1, cout)
        dw = None
        if w.requires_grad:
            dw = np.empty_like(w.data)
            for i, j, tap in _tap_slices(kh, kw, stride, ho, wo):
                dw[i, j] = xp[tap].reshape(-1, cin).T @ g2
        dx = None
        if x.requires_grad:
            gp = _zero_padded(g, h, wd, ph, pw, step=stride)
            dx = _correlate(gp, w.data[::-1, ::-1].swapaxes(2, 3), 1, h, wd)
            dx = dx.reshape(n, h, wd, cin)
        return dx, dw, g2.sum(axis=0) if b.requires_grad else None

    return _node(out, (x, w, b), vjp)


def upsample2(x):
    """Nearest-neighbour 2x upsampling of the two spatial axes of [B, H, W, C]."""
    x = _as_tensor(x)
    out = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def vjp(g):
        b, h2, w2, c = g.shape
        return (g.reshape(b, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4)),)

    return _node(out, (x,), vjp)
