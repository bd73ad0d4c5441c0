"""Dense-tensor engine with reverse-mode automatic differentiation.

Values are numpy arrays; a non-float input becomes float32, and every
model parameter is float32. Gradient checks run in float64 on models
cast with ``tests/oracles.as_float64``. Broadcasting is limited to
suffix alignment: operand shapes must be equal, scalar, or one shape must
be a suffix of the other. Every primitive checks its output for NaN/Inf.

A primitive records a tape node if and only if one of its inputs
requires a gradient, so a forward of a model in ``Module.frozen()`` on
an input that needs none records nothing. A VJP computes a gradient only
for an input that requires one. A node keeps its inputs, never an
activation-sized array those inputs determine: the VJP rebuilds what it
needs from them (see ``conv3d``, ``_normalize`` and ``pool3d``).
"""

from __future__ import annotations

import weakref

import numpy as np
from scipy.special import erf as _erf

from .artifacts import Packer, Unpacker

NORM_EPS = 1e-5  # variance offset of layer_norm and batch_norm

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class ShapeError(ValueError):
    """Operand shapes are invalid for the requested primitive."""


class NumericError(ArithmeticError):
    """A primitive produced NaN/Inf or violated a numeric precondition."""


class Node:
    """One recorded primitive application.

    The output is held weakly: a strong reference would close a reference
    cycle (tensor -> node -> tensor) that defers every intermediate buffer
    to the cyclic collector and balloons training memory. During backward
    each node's output is pinned anyway, by the root argument or by a
    consumer's ``inputs`` list."""

    __slots__ = ("op", "inputs", "vjp", "_out_ref")

    def __init__(self, op, inputs, output, vjp):
        self.op = op
        self.inputs = inputs
        self.vjp = vjp
        self._out_ref = weakref.ref(output)

    @property
    def output(self):
        return self._out_ref()


class Tensor:
    """Immutable-by-convention dense array node in the computation graph."""

    __slots__ = ("data", "requires_grad", "grad", "node", "__weakref__")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def _topological_order(output):
    """Nodes reachable from ``output``, each after every node it consumes."""
    nodes = []
    seen = set()
    # iterative post-order DFS over tensors that carry a node
    stack = [(output, False)]
    while stack:
        t, expanded = stack.pop()
        if t.node is None or id(t) in seen:
            continue
        if expanded:
            seen.add(id(t))
            nodes.append(t.node)
        else:
            stack.append((t, True))
            for parent in t.node.inputs:
                if parent.node is not None and id(parent) not in seen:
                    stack.append((parent, False))
    return nodes


def backward(output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into ``.grad`` of every requires_grad leaf.

    The output must be a scalar (size 1). Gradients add across fan-out and
    across repeated backward calls (callers zero ``.grad`` between steps);
    a leaf's ``.grad`` keeps the leaf's dtype.
    """
    if output.size != 1:
        raise ShapeError(f"backward needs a scalar output, got shape {output.shape}")
    if not output.requires_grad:
        raise ShapeError("output is detached from every requires_grad leaf")
    grads = {id(output): np.ones_like(output.data)}

    def _leaf_accumulate(t, g):
        if t.grad is None:
            t.grad = g.astype(t.data.dtype, copy=True)
        else:
            t.grad += g

    if output.node is None:
        _leaf_accumulate(output, grads[id(output)])
        return
    for node in reversed(_topological_order(output)):
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        parent_grads = node.vjp(g)
        for parent, pg in zip(node.inputs, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            if parent.node is None:
                _leaf_accumulate(parent, pg)
            else:
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def _finite(arr, op):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by '{op}'")
    return arr


def _make(op, out_data, inputs, vjp):
    out = Tensor.__new__(Tensor)
    out.data = _finite(out_data, op)
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    out.node = Node(op, inputs, out, vjp) if out.requires_grad else None
    return out


def _check_suffix_broadcast(a_shape, b_shape, op):
    """Allow equal shapes, scalars, or one shape being a suffix of the other."""
    if a_shape == b_shape:
        return
    small, big = (a_shape, b_shape) if len(a_shape) <= len(b_shape) else (b_shape, a_shape)
    if small == () or big[len(big) - len(small):] == small:
        return
    raise ShapeError(f"{op}: shapes {a_shape} and {b_shape} are not suffix-broadcastable")


def _reduce_to_shape(g, shape):
    # sum gradient over leading broadcast axes
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise and linear-algebra primitives


def add(a, b):
    _check_suffix_broadcast(a.shape, b.shape, "add")
    out = a.data + b.data

    def vjp(g):
        return (_reduce_to_shape(g, a.shape) if a.requires_grad else None,
                _reduce_to_shape(g, b.shape) if b.requires_grad else None)

    return _make("add", out, (a, b), vjp)


def sub(a, b):
    _check_suffix_broadcast(a.shape, b.shape, "sub")
    out = a.data - b.data

    def vjp(g):
        return (_reduce_to_shape(g, a.shape) if a.requires_grad else None,
                _reduce_to_shape(-g, b.shape) if b.requires_grad else None)

    return _make("sub", out, (a, b), vjp)


def mul(a, b):
    _check_suffix_broadcast(a.shape, b.shape, "mul")
    out = a.data * b.data

    def vjp(g):
        return (_reduce_to_shape(g * b.data, a.shape)
                if a.requires_grad else None,
                _reduce_to_shape(g * a.data, b.shape)
                if b.requires_grad else None)

    return _make("mul", out, (a, b), vjp)


def matmul(a, b):
    """Matrix product. Leading batch dims must match, or one operand is 2-D."""
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise ShapeError("matmul takes two tensors")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul operands need at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ ({a.shape} @ {b.shape})")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: batch dims differ ({a.shape} @ {b.shape})")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _reduce_to_shape(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                                  a.shape)
        if b.requires_grad:
            gb = _reduce_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                  b.shape)
        return ga, gb

    return _make("matmul", out, (a, b), vjp)


def relu(x):
    out = np.maximum(x.data, 0)

    def vjp(g):
        return (g * (x.data > 0),)

    return _make("relu", out, (x,), vjp)


def gelu(x):
    """Exact GELU: x * Phi(x) with the Gaussian CDF."""
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))
    out = (x.data * cdf).astype(x.data.dtype)

    def vjp(g):
        pdf = _INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (cdf + x.data * pdf),)

    return _make("gelu", out, (x,), vjp)


def sigmoid(x):
    out = 1.0 / (1.0 + np.exp(-x.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _make("sigmoid", out, (x,), vjp)


def tanh(x):
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _make("tanh", out, (x,), vjp)


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``; rows sum to one."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _make("softmax", out, (x,), vjp)


def _normalize(op, x, gamma, beta, axis, over, stats=None, frozen=False):
    """Standardize ``x`` with its mean and variance over the axes ``over``,
    then scale/shift along the feature ``axis``. ``stats=(mean, var)``
    gives the statistics per feature instead: frozen ones are constants
    to the VJP, otherwise they are x's own over ``over``, precomputed, and
    the VJP differentiates through them. The tape keeps x and the
    statistics; the VJP recomputes the normalized activation from them."""
    if gamma.shape != x.shape[axis:axis + 1] or beta.shape != gamma.shape:
        raise ShapeError(f"{op}: gamma/beta must have shape "
                         f"{x.shape[axis:axis + 1]}")
    pshape = tuple(n if a == axis else 1 for a, n in enumerate(x.shape))
    gam = gamma.data.reshape(pshape)
    bet = beta.data.reshape(pshape)
    if stats is None:
        mu = x.data.mean(axis=over, keepdims=True)
        var = x.data.var(axis=over, keepdims=True)
    else:
        mu, var = (np.asarray(s, dtype=x.data.dtype).reshape(pshape)
                   for s in stats)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    out = (x.data - mu) * inv * gam + bet
    params = tuple(a for a in range(x.ndim) if a != axis)

    def vjp(g):
        xhat = (x.data - mu) * inv
        gx = None
        if x.requires_grad:
            gx = g * gam
            if not frozen:
                m1 = gx.mean(axis=over, keepdims=True)
                m2 = (gx * xhat).mean(axis=over, keepdims=True)
                gx -= m1
                gx -= xhat * m2
            gx *= inv
        return (gx,
                (g * xhat).sum(axis=params) if gamma.requires_grad else None,
                g.sum(axis=params) if beta.requires_grad else None)

    return _make(op, out, (x, gamma, beta), vjp)


def layer_norm(x, gamma, beta):
    """Normalize over the last axis, then scale/shift per feature."""
    last = x.ndim - 1
    return _normalize("layer_norm", x, gamma, beta, last, (last,))


def batch_norm(x, gamma, beta, stats, frozen=True):
    """Channel-axis-1 batch normalization with per-channel statistics
    ``stats=(mean, var)``: by default the frozen ones of the inference
    form, or with ``frozen=False`` x's own biased batch statistics over
    every axis but 1, already computed by the caller, which the training
    form differentiates through.
    """
    if x.ndim < 2:
        raise ShapeError("batch_norm expects (N, C, ...) input")
    over = (0,) + tuple(range(2, x.ndim))
    return _normalize("batch_norm", x, gamma, beta, 1, over, stats,
                      frozen=frozen)


# ---------------------------------------------------------------------------
# shape and reduction primitives


def reshape(x, shape):
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return _make("reshape", out, (x,), vjp)


def transpose(x, axes):
    axes = tuple(axes)
    out = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _make("transpose", out, (x,), vjp)


def concat(tensors, axis=0):
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make("concat", out, tensors, vjp)


def narrow(x, axis, start, length):
    """Contiguous slice along one axis (the engine's `slice` primitive)."""
    n = x.shape[axis]
    if start < 0 or length < 0 or start + length > n:
        raise ShapeError(f"narrow: [{start}:{start + length}] outside axis of size {n}")
    key = tuple(slice(None) if a != axis else slice(start, start + length)
                for a in range(x.ndim))
    out = x.data[key]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[key] = g
        return (gx,)

    return _make("slice", out, (x,), vjp)


def roll(x, shift, axes):
    shift = tuple(shift)
    axes = tuple(axes)
    out = np.roll(x.data, shift, axis=axes)

    def vjp(g):
        return (np.roll(g, tuple(-s for s in shift), axis=axes),)

    return _make("roll", out, (x,), vjp)


def take(x, indices, axis=0):
    """Gather rows along ``axis``; backward scatter-adds."""
    idx = np.asarray(indices)
    out = np.take(x.data, idx, axis=axis)

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None),) * axis + (idx,), g)
        return (gx,)

    return _make("take", out, (x,), vjp)


def expand_batch(x, n):
    """Insert a leading axis of size ``n`` by repetition."""
    out = np.broadcast_to(x.data[None], (n,) + x.shape).copy()

    def vjp(g):
        return (g.sum(axis=0),)

    return _make("expand_batch", out, (x,), vjp)


def _norm_axis(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _unreduce(g, x_shape, axes):
    """Broadcast the gradient of a reduction over ``axes`` back to x."""
    shape = list(x_shape)
    for a in axes:
        shape[a] = 1
    return np.broadcast_to(g.reshape(shape), x_shape).copy()


def tsum(x, axis=None):
    axes = _norm_axis(axis, x.ndim)
    out = x.data.sum(axis=axes)

    def vjp(g):
        return (_unreduce(g, x.shape, axes),)

    return _make("sum", out, (x,), vjp)


def mean(x, axis=None):
    axes = _norm_axis(axis, x.ndim)
    count = int(np.prod([x.shape[a] for a in axes]))
    out = x.data.mean(axis=axes)

    def vjp(g):
        return (_unreduce(g / count, x.shape, axes),)

    return _make("mean", out, (x,), vjp)


def dropout(x, p, rng, training=True):
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p == 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise NumericError(f"dropout rate {p} outside [0, 1)")
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype)
    scale = 1.0 / (1.0 - p)
    out = x.data * keep * scale

    def vjp(g):
        return (g * keep * scale,)

    return _make("dropout", out, (x,), vjp)


# ---------------------------------------------------------------------------
# convolution and pooling


def _triple(v, name):
    if isinstance(v, int):
        return (v, v, v)
    t = tuple(int(i) for i in v)
    if len(t) != 3:
        raise ShapeError(f"{name} must be an int or length-3 tuple")
    return t


def _gather_windows(x, window, stride):
    """Every stride-spaced window of the NCDHW array ``x`` as one contiguous
    (n, c, kd, kh, kw, do, ho, wo) buffer."""
    view = np.lib.stride_tricks.sliding_window_view(x, window, axis=(2, 3, 4))
    sd, sh, sw = stride
    view = view[:, :, ::sd, ::sh, ::sw]
    return np.ascontiguousarray(view.transpose(0, 1, 5, 6, 7, 2, 3, 4))


def _scatter_windows(gx, gcols, stride):
    """Adjoint of ``_gather_windows``: add the window gradients ``gcols``
    (n, c, kd, kh, kw, do, ho, wo) onto ``gx`` in place, one kernel offset
    at a time, so overlapping windows accumulate in a fixed order."""
    kd, kh, kw, do, ho, wo = gcols.shape[2:]
    sd, sh, sw = stride
    for i in range(kd):
        for j in range(kh):
            for k in range(kw):
                gx[:, :,
                   i:i + do * sd:sd,
                   j:j + ho * sh:sh,
                   k:k + wo * sw:sw] += gcols[:, :, i, j, k]
    return gx


def _correlate(xp, w_mat, window, stride):
    """Cross-correlate the padded NCDHW array ``xp`` with the kernel matrix
    ``w_mat`` (out channels, in channels * window volume): one im2col GEMM
    per sample, so one sample's columns are live at a time."""
    grid = tuple((s - k) // st + 1
                 for s, k, st in zip(xp.shape[2:], window, stride))
    out = np.empty((xp.shape[0], w_mat.shape[0], int(np.prod(grid))),
                   np.result_type(xp, w_mat))
    for k, out_k in enumerate(out):
        cols = _gather_windows(xp[k:k + 1], window, stride)
        np.matmul(w_mat, cols.reshape(w_mat.shape[1], -1), out=out_k)
    return out.reshape(out.shape[:2] + grid)


class _ShiftedGrid:
    """Stride-1 correlation over the padded NCDHW grid flattened per
    (n, c). The window at kernel offset (i, j, k) of every output voxel
    is then one contiguous slice, starting at i*Hp*Wp + j*Wp + k, of
    length L = (Do-1)*Hp*Wp + (Ho-1)*Wp + Wo. A length-L row holds the
    output grid at strides (Hp*Wp, Wp, 1) with junk in between: the
    positions whose window would wrap past an edge of the padded grid."""

    def __init__(self, xp_shape, window):
        dp, hp, wp = xp_shape[2:]
        kd, kh, kw = window
        self.grid = (dp - kd + 1, hp - kh + 1, wp - kw + 1)
        do, ho, wo = self.grid
        self.length = (do - 1) * hp * wp + (ho - 1) * wp + wo
        self.offsets = [((i, j, k), i * hp * wp + j * wp + k)
                        for i in range(kd) for j in range(kh)
                        for k in range(kw)]
        self.row_strides = (hp * wp, wp, 1)

    def view(self, rows):
        """The output grid inside the (n, ch, L) rows, as a strided view."""
        isz = rows.itemsize
        return np.lib.stride_tricks.as_strided(
            rows, rows.shape[:2] + self.grid,
            rows.strides[:2] + tuple(s * isz for s in self.row_strides))

    def correlate(self, xflat, w):
        """(n, o, Do, Ho, Wo) output: one batched GEMM per kernel offset,
        accumulated over the rows, then cropped."""
        n, o, ell = xflat.shape[0], w.shape[0], self.length
        acc = np.empty((n, o, ell), np.result_type(xflat, w))
        part = np.empty_like(acc)
        for t, ((i, j, k), s) in enumerate(self.offsets):
            np.matmul(w[:, :, i, j, k], xflat[:, :, s:s + ell],
                      out=part if t else acc)
            if t:
                acc += part
        return np.ascontiguousarray(self.view(acc))

    def grads(self, g, xflat, w, need_x, need_w):
        """Input gradient over the flattened padded grid, and weight
        gradient, each only if asked for: one GEMM per kernel offset
        against the output gradient laid out as the rows, junk zeroed."""
        n, c, o, ell = xflat.shape[0], xflat.shape[1], w.shape[0], self.length
        dtype = np.result_type(g, xflat, w)
        rows = np.zeros((n, o, ell), dtype)
        self.view(rows)[...] = g
        gx = np.zeros(xflat.shape, dtype) if need_x else None
        gw = np.empty(w.shape, dtype) if need_w else None
        part_x = np.empty((n, c, ell), dtype)
        part_w = np.empty((n, o, c), dtype)
        for (i, j, k), s in self.offsets:
            if need_x:
                np.matmul(w[:, :, i, j, k].T, rows, out=part_x)
                gx[:, :, s:s + ell] += part_x
            if need_w:
                np.matmul(rows, xflat[:, :, s:s + ell].transpose(0, 2, 1),
                          out=part_w)
                gw[:, :, i, j, k] = part_w.sum(axis=0)
        return gx, gw


def conv3d(x, w, stride=1, padding=0):
    """3-D cross-correlation on NCDHW input with OIKdKhKw kernels.

    Two paths, chosen from the stride and the input channels alone:

    * Stride 1 with at least 2 input channels: shifted GEMMs on the
      flattened padded input (``_ShiftedGrid``). The forward is one
      batched GEMM per kernel offset; so are the weight gradient and the
      input gradient (transposed, added into the flat padded gradient and
      cropped).
    * Otherwise (the 1-channel stems and every strided conv): im2col, one
      sample's columns at a time, gathered again for the weight gradient;
      the column gradients are scatter-added back through the kernel
      footprint. The shifted form ran the (8, 1, 32^3) -> 8 stem forward
      18x slower (249 against 14 ms, its 1-row GEMMs); at a larger
      stride it would compute every stride-1 position.

    On both paths the tape keeps the padded input (x itself when there
    is no padding), never the columns. The VJP computes only the
    gradients whose inputs require one.
    """
    stride = _triple(stride, "stride")
    padding = _triple(padding, "padding")
    if x.ndim != 5 or w.ndim != 5:
        raise ShapeError("conv3d expects (N,C,D,H,W) input and (O,I,kd,kh,kw) kernel")
    n, c, d, h, wd = x.shape
    o, ci, kd, kh, kw = w.shape
    if ci != c:
        raise ShapeError(f"conv3d: input has {c} channels, kernel expects {ci}")
    pd, ph, pw = padding
    if kd > d + 2 * pd or kh > h + 2 * ph or kw > wd + 2 * pw:
        raise ShapeError("conv3d: kernel larger than padded input")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw))) \
        if any(padding) else x.data
    window = (kd, kh, kw)
    crop = (slice(None), slice(None), slice(pd, pd + d), slice(ph, ph + h),
            slice(pw, pw + wd))
    w_mat = w.data.reshape(o, -1)
    if stride == (1, 1, 1) and c >= 2:
        shifted = _ShiftedGrid(xp.shape, window)
        out = shifted.correlate(xp.reshape(n, c, -1), w.data)
    else:
        shifted = None
        out = _correlate(xp, w_mat, window, stride)
    cols_shape = (n, c) + window + out.shape[2:]

    def vjp(g):
        gx = gw = None
        if shifted is not None:
            gxflat, gw = shifted.grads(g, xp.reshape(n, c, -1), w.data,
                                       x.requires_grad, w.requires_grad)
            if gxflat is not None:
                gx = gxflat.reshape(xp.shape)[crop]
        else:
            g_mat = g.reshape(n, o, -1)
            if x.requires_grad:
                gcols = np.matmul(w_mat.T[None], g_mat).reshape(cols_shape)
                gx = _scatter_windows(np.zeros(xp.shape, x.dtype), gcols,
                                      stride)[crop]
            if w.requires_grad:
                # added from zero in batch order, like the batched sum(axis=0)
                gw = np.zeros(w_mat.shape, np.result_type(g, xp))
                for k in range(n):
                    cols = _gather_windows(xp[k:k + 1], window, stride)
                    gw += g_mat[k] @ cols.reshape(gw.shape[1], -1).T
                gw = gw.reshape(w.shape)
        return gx, gw

    return _make("conv3d", out, (x, w), vjp)


def conv2d(x, w, stride=1, padding=0):
    """2-D convolution routed through conv3d with a singleton depth axis."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d expects (N,C,H,W) input and (O,I,kh,kw) kernel")
    if isinstance(stride, int):
        stride = (stride, stride)
    if isinstance(padding, int):
        padding = (padding, padding)
    x3 = reshape(x, (x.shape[0], x.shape[1], 1) + x.shape[2:])
    w3 = reshape(w, (w.shape[0], w.shape[1], 1) + w.shape[2:])
    out = conv3d(x3, w3, stride=(1,) + tuple(stride),
                 padding=(0,) + tuple(padding))
    return reshape(out, (out.shape[0], out.shape[1]) + out.shape[3:])


def pool3d(x, window=2, stride=None):
    """Max pooling over NCDHW input. The window must fit the input. The
    tape keeps the input, not the windows: the VJP gathers them again
    from it."""
    window = _triple(window, "window")
    stride = window if stride is None else _triple(stride, "stride")
    if x.ndim != 5:
        raise ShapeError("pool3d expects (N,C,D,H,W) input")
    n, c = x.shape[:2]
    if any(k > s for k, s in zip(window, x.shape[2:])):
        raise ShapeError("pool3d: window larger than input")

    cols = _gather_windows(x.data, window, stride)
    shape = cols.shape  # the closure keeps the shape, not the buffer
    count = window[0] * window[1] * window[2]
    out = cols.reshape((n, c, count) + shape[5:]).max(axis=2)

    def vjp(g):
        # each window's gradient goes to its first maximum, argmax's tie
        # rule; one pass over the window offsets, not an argmax
        flat = _gather_windows(x.data, window, stride).reshape(
            (n, c, count) + shape[5:])
        gflat = np.empty_like(flat)
        free = np.ones(out.shape, bool)
        hit = np.empty(out.shape, bool)
        for i in range(count):
            np.equal(flat[:, :, i], out, out=hit)
            hit &= free
            free ^= hit
            np.multiply(g, hit, out=gflat[:, :, i])
        return (_scatter_windows(np.zeros_like(x.data),
                                 gflat.reshape(shape), stride),)

    return _make("pool3d", out, (x,), vjp)


def pool2d(x, window=2, stride=None):
    """2-D max pooling routed through pool3d with a singleton depth axis."""
    if x.ndim != 4:
        raise ShapeError("pool2d expects (N,C,H,W) input")
    if isinstance(window, int):
        window = (window, window)
    if stride is None:
        stride = window
    elif isinstance(stride, int):
        stride = (stride, stride)
    x3 = reshape(x, (x.shape[0], x.shape[1], 1) + x.shape[2:])
    out = pool3d(x3, window=(1,) + tuple(window),
                 stride=(1,) + tuple(stride))
    return reshape(out, (out.shape[0], out.shape[1]) + out.shape[3:])


# ---------------------------------------------------------------------------
# checkpoint serialization

CHECKPOINT_MAGIC = b"VLCK"


def save_checkpoint(path, params):
    """Write named float32 arrays: magic, count, then per entry
    (name length, name bytes, rank, dims, little-endian float32 data)."""
    out = Packer(CHECKPOINT_MAGIC)
    out.fields("I", len(params))
    for name, arr in params.items():
        data = np.ascontiguousarray(arr, dtype="<f4")  # scalars become (1,)
        out.string(name)
        out.fields(f"I{data.ndim}I", data.ndim, *data.shape)
        out.array(data)
    out.save(path)


def load_checkpoint(path):
    """Read a checkpoint back into an ordered {name: float32 array} dict.
    A missing, truncated or malformed file raises DataError."""
    src = Unpacker(path, CHECKPOINT_MAGIC, "checkpoint")
    params = {}
    for _ in range(src.fields("I")[0]):
        name = src.string()
        (rank,) = src.fields("I")
        params[name] = src.array(src.fields(f"{rank}I"))
    src.finish()
    return params
