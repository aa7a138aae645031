"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A forward pass builds a tape of Tensor nodes; ``backward`` walks it once and
accumulates gradients on leaf tensors. Only the operations needed by the
velocity/denoiser networks are provided, each with a hand-written
vector-Jacobian product.

A Tensor built explicitly is a leaf that receives a gradient. A plain ndarray
handed to an op is a constant, and an op's output joins the tape only if one
of its inputs needs a gradient: ops on constants alone record no parents and
no vjp, so a forward pass over plain parameter arrays builds no tape.

``conv2d`` runs one of three kernels, unrolled, gathered or shift-and-GEMM;
``_conv2d_kernel`` states which one runs for which shapes, and ``_conv_dx``
how the gathered and shift-and-GEMM kernels compute dx.

``film`` is FiLM modulation as one node, in place of the seven its dense,
reshape, add and mul composition would record.
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

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

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


def mean(a, axes=None):
    a = _as_tensor(a)
    out = a.data.mean(axis=axes)
    count = a.data.size if axes is None else np.prod([a.data.shape[ax] for ax in np.atleast_1d(axes)])

    def vjp(g):
        if axes is not None:
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


def slice_group_sum(a, start, stop, n, inner, axis=-1):
    """a[start:stop] along `axis`, read as [n, group, inner] and summed over
    each group: entry i·inner + r of the result is the sum over k < group of
    entry (i·group + k)·inner + r of the slice. The vjp broadcasts g back to
    every entry of its group, inside zeros shaped like a, as `slice_axis` does.
    """
    a = _as_tensor(a)
    axis %= a.data.ndim
    index = (slice(None),) * axis + (slice(start, stop),)
    part = a.data[index]
    lead, trail = part.shape[:axis], part.shape[axis + 1:]
    group, rest = divmod(part.shape[axis], n * inner)
    if rest or not group:
        raise ValueError(f"{part.shape[axis]} entries are not {n} groups of {inner}-entry runs")
    split = lead + (n, group, inner) + trail
    out = part.reshape(split).sum(axis=axis + 1).reshape(lead + (n * inner,) + trail)

    def vjp(g):
        full = np.zeros_like(a.data)
        full[index] = np.broadcast_to(g.reshape(lead + (n, 1, inner) + trail),
                                      split).reshape(part.shape)
        return (full,)

    return _node(out, (a,), vjp)


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


def film(x, e, ws, bs, wt, bt):
    """FiLM as one node: x * (1 + e @ ws + bs) + (e @ wt + bt), per channel.

    x: [B, H, W, C]; e: [B, E], or [1, E] for one embedding shared by every
    row of x; ws, wt: [E, C]; bs, bt: [C]. The forward runs the same
    operations in the same order as the two denses, reshapes, add, mul and
    add it replaces, and the vjp sums over the axes they broadcast over.
    """
    x, e, ws, bs, wt, bt = (_as_tensor(a) for a in (x, e, ws, bs, wt, bt))
    rows, c = e.data.shape[0], ws.data.shape[1]
    scale = (e.data @ ws.data + bs.data).reshape(rows, 1, 1, c) + 1.0
    shift = (e.data @ wt.data + bt.data).reshape(rows, 1, 1, c)
    out = x.data * scale + shift
    axes = (1, 2) if rows == x.data.shape[0] else (0, 1, 2)

    def vjp(g):
        dscale = (g * x.data).sum(axis=axes).reshape(rows, c)
        dshift = g.sum(axis=axes).reshape(rows, c)
        return (g * scale if x.requires_grad else None,
                dscale @ ws.data.T + dshift @ wt.data.T if e.requires_grad else None,
                e.data.T @ dscale if ws.requires_grad else None,
                dscale.sum(axis=0) if bs.requires_grad else None,
                e.data.T @ dshift if wt.requires_grad else None,
                dshift.sum(axis=0) if bt.requires_grad else None)

    return _node(out, (x, e, ws, bs, wt, bt), vjp)


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


@functools.lru_cache
def _unrolled_selector(h, wd, kh, kw, stride):
    """The 0/1 tap selector S [H·W·Ho·Wo, kh·kw] of the unrolled kernel, read-only.

    Row p·Ho·Wo + q of S holds a 1 in the column of the kernel tap i·kw + j
    that carries input pixel p to output pixel q (pixels row-major), or no 1
    when none does.
    """
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    y, xx = np.divmod(np.arange(h * wd), wd)
    oy, ox = np.divmod(np.arange(ho * wo), wo)
    i = y[:, None] - stride * oy + kh // 2
    j = xx[:, None] - stride * ox + kw // 2
    hit = ((0 <= i) & (i < kh) & (0 <= j) & (j < kw)).ravel()
    sel = np.zeros((h * wd * ho * wo, kh * kw))
    sel[np.flatnonzero(hit), (i * kw + j).ravel()[hit]] = 1.0
    sel.flags.writeable = False
    return sel


def _conv2d_unrolled(x, w, b, stride):
    """conv2d as one GEMM against the unrolled kernel; pays on small images only.

    M [H·W·Cin, Ho·Wo·Cout] is the unrolled kernel: its (p, q) block is the
    w[i, j] of the tap that carries input pixel p to output pixel q, else 0.
    It is built by one GEMM, the tap selector S of `_unrolled_selector` times
    w, and rebuilt on every call because the optimiser updates w in place.
    The output is x.reshape(B, H·W·Cin) @ M, dx is g @ Mᵀ, and dw is Sᵀ times
    the (p, q) blocks of xᵀ @ g, one GEMM.
    """
    kh, kw, cin, cout = w.data.shape
    n, h, wd, _ = x.data.shape
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    sel = _unrolled_selector(h, wd, kh, kw, stride)
    m = (sel @ w.data.reshape(kh * kw, cin * cout)).reshape(h * wd, ho * wo, cin, cout)
    m = m.transpose(0, 2, 1, 3).reshape(h * wd * cin, ho * wo * cout)
    x2 = x.data.reshape(n, -1)
    out = (x2 @ m).reshape(n, ho, wo, cout) + b.data

    def vjp(g):
        g2 = g.reshape(n, -1)
        dw = None
        if w.requires_grad:
            dm = (x2.T @ g2).reshape(h * wd, cin, ho * wo, cout).transpose(0, 2, 1, 3)
            dw = (sel.T @ dm.reshape(-1, cin * cout)).reshape(w.data.shape)
        dx = (g2 @ m.T).reshape(n, h, wd, cin) if x.requires_grad else None
        return dx, dw, g.reshape(-1, cout).sum(axis=0) if b.requires_grad else None

    return _node(out, (x, w, b), vjp)


@functools.lru_cache
def _gather_rows(n, hp, wp, kh, kw, stride, ho, wo):
    """Row index into a padded input [n·hp·wp, C]: output pixel (b, oy, ox), then
    its taps (i, j) row-major, so the gathered rows reshape to [n·ho·wo, kh·kw·C]."""
    y = stride * np.arange(ho)[:, None, None, None] + np.arange(kh)[:, None]
    xx = stride * np.arange(wo)[:, None, None] + np.arange(kw)
    rows = (np.arange(n)[:, None, None, None, None] * hp + y) * wp + xx
    rows = rows.ravel()
    rows.flags.writeable = False
    return rows


def _gather(xp, kh, kw, stride, ho, wo):
    """[B·ho·wo, kh·kw·C]: each output pixel's kh·kw taps of the padded input xp."""
    n, hp, wp, c = xp.shape
    rows = _gather_rows(n, hp, wp, kh, kw, stride, ho, wo)
    return xp.reshape(-1, c).take(rows, axis=0).reshape(n * ho * wo, kh * kw * c)


def _conv_dx(g, w, h, wd, stride):
    """dx [B, h, wd, Cin] of a same-padded conv, from its output gradient g
    [B, Ho, Wo, Cout] and kernel w, computed on the narrow side.

    With stride > 1 or Cout > Cin it is col2im: one GEMM g @ wᵀ to
    [B·Ho·Wo, kh·kw·Cin], then one strided add per tap into the padded dx.
    Otherwise it is the gather, stride 1, of the padded output gradient
    [B·H·W, kh·kw·Cout] times the flipped, transposed kernel.
    """
    kh, kw, cin, cout = w.shape
    n, ho, wo, _ = g.shape
    ph, pw = kh // 2, kw // 2
    if stride > 1 or cout > cin:
        dcols = (g.reshape(-1, cout) @ w.reshape(-1, cout).T).reshape(n, ho, wo, kh, kw, cin)
        dx = np.zeros((n, h + 2 * ph, wd + 2 * pw, cin))
        for i, j, tap in _tap_slices(kh, kw, stride, ho, wo):
            dx[tap] += dcols[:, :, :, i, j]
        return dx[:, ph: ph + h, pw: pw + wd]
    w_flip = w[::-1, ::-1].swapaxes(2, 3).reshape(-1, cin)
    dx = _gather(_zero_padded(g, h, wd, ph, pw), kh, kw, 1, h, wd) @ w_flip
    return dx.reshape(n, h, wd, cin)


def _conv2d_gathered(x, w, b, stride):
    """conv2d as one GEMM: the gathered taps [B·Ho·Wo, kh·kw·Cin] times w.

    The gathered matrix, kh·kw times the input, is not kept on the tape: when
    w needs a gradient the vjp gathers it again from x, which the tape holds,
    and dw is one GEMM on it. dx is `_conv_dx`.
    """
    kh, kw, cin, cout = w.data.shape
    n, h, wd, _ = x.data.shape
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1

    def cols():
        return _gather(_zero_padded(x.data, h, wd, kh // 2, kw // 2), kh, kw, stride, ho, wo)

    out = (cols() @ w.data.reshape(-1, cout)).reshape(n, ho, wo, cout) + b.data

    def vjp(g):
        g2 = g.reshape(-1, cout)
        return (_conv_dx(g, w.data, h, wd, stride) if x.requires_grad else None,
                (cols().T @ g2).reshape(w.data.shape) if w.requires_grad else None,
                g2.sum(axis=0) if b.requires_grad else None)

    return _node(out, (x, w, b), vjp)


def _conv2d_taps(x, w, b, stride):
    """conv2d as shift-and-GEMM: the sum over kernel taps (i, j) of the tap's
    strided slice of the zero-padded input, reshaped to [B·Ho·Wo, Cin], times
    w[i, j], one GEMM per tap.

    dw is one GEMM: the input [B·H·W, Cin] against the output gradient
    gathered, stride 1, from its zero-dilated, padded copy
    [B·H·W, kh·kw·Cout], whose taps come out flipped. dx is `_conv_dx`.
    """
    kh, kw, cin, cout = w.data.shape
    n, h, wd, _ = x.data.shape
    ph, pw = kh // 2, kw // 2
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xp = _zero_padded(x.data, h, wd, ph, pw)
    out = np.zeros((n * ho * wo, cout))
    for i, j, tap in _tap_slices(kh, kw, stride, ho, wo):
        out += xp[tap].reshape(-1, cin) @ w.data[i, j]
    out = out.reshape(n, ho, wo, cout) + b.data

    def vjp(g):
        dw = None
        if w.requires_grad:
            gp = _zero_padded(g, h, wd, ph, pw, step=stride)
            dw = x.data.reshape(-1, cin).T @ _gather(gp, kh, kw, 1, h, wd)
            dw = dw.reshape(cin, kh, kw, cout)[:, ::-1, ::-1].transpose(1, 2, 0, 3)
        return (_conv_dx(g, w.data, h, wd, stride) if x.requires_grad else None, dw,
                g.reshape(-1, cout).sum(axis=0) if b.requires_grad else None)

    return _node(out, (x, w, b), vjp)


# Largest gathered matrix [B·Ho·Wo, kh·kw·Cin], in elements, that
# `_conv2d_gathered` builds. Above it, building the matrix costs more than the
# per-tap GEMMs it replaces: the SR input conv's 144-channel state half.
_GATHER_LIMIT = 1 << 17


def _conv2d_kernel(x_shape, w_shape, stride):
    """The kernel conv2d runs for an input of `x_shape` and a kernel of `w_shape`.

    - unrolled (`_conv2d_unrolled`) when the image has no more pixels than the
      kernel has taps and at least H·W·Ho·Wo rows, so that building the
      unrolled kernel costs no more than the rows it serves;
    - gathered (`_conv2d_gathered`) when the gathered matrix
      [B·Ho·Wo, kh·kw·Cin] has at most _GATHER_LIMIT elements;
    - shift-and-GEMM (`_conv2d_taps`) otherwise.
    """
    n, h, wd, cin = x_shape
    kh, kw = w_shape[:2]
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    if h * wd <= kh * kw and n >= h * wd * ho * wo:
        return _conv2d_unrolled
    if n * ho * wo * kh * kw * cin <= _GATHER_LIMIT:
        return _conv2d_gathered
    return _conv2d_taps


def conv2d(x, w, b, stride=1):
    """Same-padded 2-D convolution, channels last.

    x: [B, H, W, Cin], w: [kh, kw, Cin, Cout], b: [Cout]; odd kernel sizes only.
    `_conv2d_kernel` picks the kernel that computes it from the shapes. Every
    kernel computes dx only when x needs a gradient (not for a data input).
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    return _conv2d_kernel(x.data.shape, w.data.shape, stride)(x, w, b, stride)


def upsample2(x):
    """Nearest-neighbour 2x upsampling of the two spatial axes of [B, H, W, C]."""
    x = _as_tensor(x)
    out = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def vjp(g):
        b, h2, w2, c = g.shape
        return (g.reshape(b, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4)),)

    return _node(out, (x,), vjp)
