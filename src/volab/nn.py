"""Neural-network building blocks on top of the tensor engine.

Modules hold parameters as Tensor attributes and child modules as
attributes or lists of them. One walk of that tree, ``Module.modules``,
names every parameter and buffer and switches train/eval, so
checkpointing and the optimizer never need per-layer registration code.
Everything here is written against the suffix-broadcasting rules of the
engine: any mask or bias that has to hit an interior axis is reshaped so
the add happens on a suffix.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    batch_norm,
    concat,
    conv2d,
    conv3d,
    dropout,
    gelu,
    layer_norm,
    matmul,
    mul,
    narrow,
    reshape,
    roll,
    sigmoid,
    softmax,
    take,
    tanh,
    transpose,
)


BN_MOMENTUM = 0.1  # weight of a batch's statistics in the running ones


class Module:
    """Base class for layers: parameter discovery + train/eval switching."""

    def __init__(self):
        self.training = True

    def _children(self):
        for name in sorted(vars(self)):
            value = vars(self)[name]
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def modules(self, prefix=""):
        """Pre-order (dotted prefix, module) pairs over this module and
        every descendant; a child's prefix ends in a dot."""
        yield prefix, self
        for name, child in self._children():
            yield from child.modules(f"{prefix}{name}.")

    def named_parameters(self):
        """(name, Tensor) pairs for every Tensor attribute, frozen or not:
        each module's in sorted-attribute order, parents first."""
        return [(f"{prefix}{name}", value)
                for prefix, module in self.modules()
                for name, value in sorted(vars(module).items())
                if isinstance(value, Tensor)]

    def named_buffers(self):
        """Non-trainable numpy state (e.g. batch-norm running stats)."""
        return [(f"{prefix}{name}", buf)
                for prefix, module in self.modules()
                for name, buf in sorted(getattr(module, "_buffers",
                                                {}).items())]

    @contextlib.contextmanager
    def frozen(self):
        """No parameter requires a gradient within this scope, so a forward
        records no tape node for them; each flag is restored on exit."""
        params = [p for _, p in self.named_parameters()]
        flags = [p.requires_grad for p in params]
        for p in params:
            p.requires_grad = False
        try:
            yield
        finally:
            for p, flag in zip(params, flags):
                p.requires_grad = flag

    def set_training(self, flag):
        for _, module in self.modules():
            module.training = bool(flag)
        return self


def _normal(rng, shape, std):
    return Tensor(rng.normal(0.0, std, size=shape).astype(np.float32),
                  requires_grad=True)


class Linear(Module):
    def __init__(self, rng, in_dim, out_dim, bias=True):
        super().__init__()
        # fan-in scaled gaussian init keeps activation variance O(1)
        self.weight = _normal(rng, (in_dim, out_dim), 1.0 / math.sqrt(in_dim))
        self.bias = (Tensor(np.zeros(out_dim, np.float32), requires_grad=True)
                     if bias else None)

    def __call__(self, x):
        y = matmul(x, self.weight)
        if self.bias is not None:
            y = add(y, self.bias)
        return y


class Conv(Module):
    """2-D or 3-D convolution, selected by the length of `kernel`, without
    a bias: every conv feeds a BatchNorm, whose shift takes its place."""

    def __init__(self, rng, in_ch, out_ch, kernel, stride=1, padding=0):
        super().__init__()
        kernel = tuple(int(k) for k in kernel)
        if len(kernel) not in (2, 3):
            raise ShapeError(f"conv kernel must be 2-D or 3-D, got {kernel}")
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_ch * math.prod(kernel)
        self.weight = _normal(rng, (out_ch, in_ch) + kernel,
                              1.0 / math.sqrt(fan_in))

    def __call__(self, x):
        op = conv3d if len(self.kernel) == 3 else conv2d
        return op(x, self.weight, stride=self.stride, padding=self.padding)


class BatchNorm(Module):
    """Batch norm over (batch, *spatial) with running statistics.

    Training uses batch statistics and differentiates through them; eval
    uses the stored running mean/var. Running var is the biased estimate,
    updated with momentum ``BN_MOMENTUM``.
    """

    def __init__(self, channels):
        super().__init__()
        self.gamma = Tensor(np.ones(channels, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, np.float32), requires_grad=True)
        self._buffers = {
            "running_mean": np.zeros(channels, np.float32),
            "running_var": np.ones(channels, np.float32),
        }

    def __call__(self, x):
        if self.training:
            axes = (0,) + tuple(range(2, x.data.ndim))
            batch_mean = x.data.mean(axis=axes)
            batch_var = x.data.var(axis=axes)
            m = BN_MOMENTUM
            rb = self._buffers
            rb["running_mean"] = ((1 - m) * rb["running_mean"]
                                  + m * batch_mean).astype(x.data.dtype)
            rb["running_var"] = ((1 - m) * rb["running_var"]
                                 + m * batch_var).astype(x.data.dtype)
            return batch_norm(x, self.gamma, self.beta,
                              (batch_mean, batch_var), frozen=False)
        stats = (self._buffers["running_mean"], self._buffers["running_var"])
        return batch_norm(x, self.gamma, self.beta, stats)


class LayerNorm(Module):
    def __init__(self, dim):
        super().__init__()
        self.gamma = Tensor(np.ones(dim, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, np.float32), requires_grad=True)

    def __call__(self, x):
        return layer_norm(x, self.gamma, self.beta)


def sinusoid_positions(n_positions, dim):
    """Fixed sin/cos position table of shape (n_positions, dim)."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / dim)
    table = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return table.astype(np.float32)


def _raster_split(shape, window, first):
    """How a grid is cut into raster-ordered windows; every partition in
    this module is built from it. The grid is ``shape[first:first + nd]``
    and must be divisible by the window along every axis; the other axes
    stay in place. Returns the per-axis window counts, ``shape`` with each
    grid axis split into (count, window), and the permutation of that
    split shape that moves every count axis ahead of every window axis."""
    nd = len(window)
    grid = tuple(shape[first:first + nd])
    if any(g % w for g, w in zip(grid, window)):
        raise ShapeError(f"grid {grid} not divisible by window "
                         f"{tuple(window)}")
    counts = tuple(g // w for g, w in zip(grid, window))
    split = (tuple(shape[:first]) + sum(zip(counts, window), ())
             + tuple(shape[first + nd:]))
    pairs = range(first, first + 2 * nd)
    perm = (tuple(range(first)) + tuple(pairs[::2]) + tuple(pairs[1::2])
            + tuple(range(first + 2 * nd, len(split))))
    return counts, split, perm


def window_partition(x, window):
    """(N, g0..gk, D) -> (N * n_windows, window_len, D), plus the
    per-axis window counts.

    Windows are raster-ordered: all windows of the first sample, then the
    next sample. Grid must be divisible by the window along every axis.
    """
    counts, split, perm = _raster_split(x.shape, window, 1)
    x = transpose(reshape(x, split), perm)
    return reshape(x, (x.shape[0] * math.prod(counts), math.prod(window),
                       x.shape[-1])), counts


def window_unpartition(x, window, counts, n):
    """Inverse of window_partition for a batch of n samples."""
    grid = tuple(c * w for c, w in zip(counts, window))
    shape = (n,) + grid + (x.shape[-1],)
    _, split, perm = _raster_split(shape, window, 1)
    x = reshape(x, tuple(split[a] for a in perm))
    return reshape(transpose(x, np.argsort(perm)), shape)


def _partition_np(arr, window):
    """Numpy twin of window_partition for (*grid,) or (*grid, extra)."""
    counts, split, perm = _raster_split(arr.shape, window, 0)
    arr = arr.reshape(split).transpose(perm)
    return arr.reshape((math.prod(counts), math.prod(window))
                       + arr.shape[2 * len(window):])


def shift_window_mask(grid, window, shift):
    """Additive attention mask (n_windows, L, L) for cyclic-shift windows.

    Tokens may attend iff they belong to the same window of the truncated
    non-cyclic shifted partition (boundaries at positions congruent to the
    shift modulo the window size along each axis). Forbidden pairs get -1e9,
    which underflows to exactly zero after softmax in float32. The mask is
    float32; its two values are exact in every float dtype.
    """
    nd = len(grid)
    ids = np.zeros(grid, dtype=np.int64)
    for a, (g, w, s) in enumerate(zip(grid, window, shift)):
        ax = np.floor_divide(np.arange(g) - s, w) + 1
        shape = [1] * nd
        shape[a] = g
        ids = ids * (2 * g + 3) + ax.reshape(shape)
    rolled = np.roll(ids, tuple(-s for s in shift), axis=tuple(range(nd)))
    wins = _partition_np(rolled, window)
    return np.where(wins[:, :, None] == wins[:, None, :],
                    np.float32(0.0), np.float32(-1e9))


def relative_position_index(window, radix):
    """Flat lookup index (L, L) into a (prod(2r-1), heads) bias table.

    ``radix`` is the window the table was sized for; a window clamped
    below it indexes into the full table's radix system.
    """
    nd = len(window)
    axes = [np.arange(w) for w in window]
    coords = np.stack(np.meshgrid(*axes, indexing="ij"))
    flat = coords.reshape(nd, -1)
    rel = flat[:, :, None] - flat[:, None, :]
    index = np.zeros(rel.shape[1:], dtype=np.int64)
    for a in range(nd):
        index = index * (2 * radix[a] - 1) + (rel[a] + radix[a] - 1)
    return index


def multi_head_attention(x, qkv, proj, n_heads, bias=None, group_mask=None,
                         groups=1):
    """Standard scaled dot-product self-attention.

    x:          (B, L, D) with B = batch * groups (windows flatten into B)
    qkv:        Linear D -> 3D, proj: Linear D -> D
    bias:       optional Tensor (heads, L, L) added to every score block
                (relative-position bias)
    group_mask: optional numpy (groups, heads, L, L) additive mask; scores
                are viewed as (batch, groups, heads, L, L) for the add
    Returns (out, attn) with attn the (B, heads, L, L) softmax output
    array, which the tape holds anyway; no primitive writes into it.
    """
    b, l, d = x.shape
    if d % n_heads != 0:
        raise ShapeError(f"embed dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads
    fused = qkv(x)
    fused = reshape(fused, (b, l, 3, n_heads, dh))
    fused = transpose(fused, (2, 0, 3, 1, 4))
    q = reshape(narrow(fused, 0, 0, 1), (b, n_heads, l, dh))
    k = reshape(narrow(fused, 0, 1, 1), (b, n_heads, l, dh))
    v = reshape(narrow(fused, 0, 2, 1), (b, n_heads, l, dh))
    scores = matmul(q, transpose(k, (0, 1, 3, 2)))
    scores = mul(scores, Tensor(np.asarray(1.0 / math.sqrt(dh),
                                           dtype=scores.data.dtype)))
    if bias is not None:
        scores = add(scores, bias)
    if group_mask is not None:
        scores = reshape(scores, (b // groups, groups, n_heads, l, l))
        scores = add(scores, Tensor(group_mask))
        scores = reshape(scores, (b, n_heads, l, l))
    attn = softmax(scores, axis=-1)
    out = matmul(attn, v)
    out = transpose(out, (0, 2, 1, 3))
    out = reshape(out, (b, l, d))
    return proj(out), attn.data


class Mlp(Module):
    def __init__(self, rng, dim, hidden):
        super().__init__()
        self.fc1 = Linear(rng, dim, hidden)
        self.fc2 = Linear(rng, hidden, dim)

    def __call__(self, x):
        return self.fc2(gelu(self.fc1(x)))


class TransformerBlock(Module):
    """Pre-norm transformer encoder block (global attention)."""

    def __init__(self, rng, dim, n_heads, mlp_ratio=4.0, drop=0.0):
        super().__init__()
        self.n_heads = int(n_heads)
        self.drop = float(drop)
        self.norm1 = LayerNorm(dim)
        self.qkv = Linear(rng, dim, 3 * dim)
        self.proj = Linear(rng, dim, dim)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(rng, dim, int(dim * mlp_ratio))

    def __call__(self, x, rng=None):
        h, attn = multi_head_attention(self.norm1(x), self.qkv, self.proj,
                                       self.n_heads)
        if self.drop > 0.0:
            h = dropout(h, self.drop, training=self.training, rng=rng)
        x = add(x, h)
        h = self.mlp(self.norm2(x))
        if self.drop > 0.0:
            h = dropout(h, self.drop, training=self.training, rng=rng)
        return add(x, h), attn


class SwinBlock(TransformerBlock):
    """The pre-norm block with window attention and an optional cyclic
    shift (Liu et al., arXiv:2103.14030), plus a relative-position bias.

    Operates on token grids shaped (N, g0..gk, D). The window is clamped
    per axis to the grid size, and the shift is dropped along any axis
    where the clamped window covers the whole grid (shifting a full-span
    window is a no-op partition-wise).
    """

    def __init__(self, rng, dim, n_heads, window, shift, mlp_ratio=4.0):
        super().__init__(rng, dim, n_heads, mlp_ratio=mlp_ratio)
        self.window = tuple(int(w) for w in window)
        self.shift = tuple(int(s) for s in shift)
        table_rows = math.prod(2 * w - 1 for w in self.window)
        self.rel_bias = _normal(rng, (table_rows, self.n_heads), 0.02)
        self._masks = {}

    def _effective(self, grid):
        window = tuple(min(w, g) for w, g in zip(self.window, grid))
        shift = tuple(0 if win >= g else s
                      for s, win, g in zip(self.shift, window, grid))
        return window, shift

    def _bias(self, window):
        index = relative_position_index(window, radix=self.window)
        l = index.shape[0]
        rows = take(self.rel_bias, index.reshape(-1))
        rows = reshape(rows, (l, l, self.n_heads))
        return transpose(rows, (2, 0, 1))

    def __call__(self, x, centroid_grid):
        """(x, attn, centroids): the block output, the attention map and
        ``centroid_grid`` (*grid, nd) partitioned into windows exactly
        like the tokens, so each attention row aligns with its window's
        voxel positions."""
        n = x.shape[0]
        grid = x.shape[1:-1]
        window, shift = self._effective(grid)
        h = self.norm1(x)
        if any(shift):
            h = roll(h, tuple(-s for s in shift),
                     tuple(range(1, 1 + len(grid))))
        windows, counts = window_partition(h, window)
        groups = math.prod(counts)
        bias = self._bias(window)
        group_mask = None
        if any(shift):
            key = (grid, window, shift)
            if key not in self._masks:
                base = shift_window_mask(grid, window, shift)
                self._masks[key] = np.ascontiguousarray(np.broadcast_to(
                    base[:, None], (groups, self.n_heads) + base.shape[1:]))
            group_mask = self._masks[key]
        out, attn = multi_head_attention(windows, self.qkv, self.proj,
                                         self.n_heads, bias=bias,
                                         group_mask=group_mask,
                                         groups=groups)
        out = window_unpartition(out, window, counts, n)
        if any(shift):
            out = roll(out, shift, tuple(range(1, 1 + len(grid))))
        x = add(x, out)
        x = add(x, self.mlp(self.norm2(x)))
        if any(shift):
            centroid_grid = np.roll(centroid_grid, tuple(-s for s in shift),
                                    axis=tuple(range(len(grid))))
        return x, attn, _partition_np(centroid_grid, window)


class PatchEmbed(Module):
    """Non-overlapping patch embedding for an (N, 1, *spatial) input.

    The patches are window_partition's windows of the channel-last input,
    projected with one Linear: exactly a stride=patch convolution. Spatial
    dims that do not divide the patch are zero-padded at the high end;
    only a ModelConfig that allows padding admits such an input.
    """

    def __init__(self, rng, patch, dim):
        super().__init__()
        self.patch = tuple(int(p) for p in patch)
        self.proj = Linear(rng, math.prod(self.patch), dim)

    def __call__(self, x):
        n, spatial = x.shape[0], x.shape[2:]
        if len(spatial) != len(self.patch):
            raise ShapeError(f"expected {len(self.patch)} spatial dims, "
                             f"got {spatial}")
        x = _zero_pad_high(x, [(-s) % p for s, p in
                               zip(spatial, self.patch)], 2)
        x = reshape(x, (n,) + x.shape[2:] + (1,))
        patches, grid = window_partition(x, self.patch)
        tokens = self.proj(reshape(patches, (n, math.prod(grid),
                                             math.prod(self.patch))))
        return tokens, grid

    def centroids(self, grid):
        """Voxel-space centroid (L, nd) of each patch, raster order."""
        axes = [np.arange(g, dtype=np.float64) * p + (p - 1) / 2.0
                for g, p in zip(grid, self.patch)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _zero_pad_high(x, pads, first):
    """Zero-pad axes first, first + 1, ... at the high end by ``pads``."""
    for axis, p in enumerate(pads, start=first):
        if p == 0:
            continue
        shape = list(x.shape)
        shape[axis] = p
        zeros = Tensor(np.zeros(shape, dtype=x.data.dtype))
        x = concat([x, zeros], axis=axis)
    return x


class PatchMerge(Module):
    """Swin downsampling: concat each 2^nd block of neighbors, project
    2^nd * D -> 2D. An odd grid axis is zero-extended by one token; only
    a ModelConfig that allows padding admits such a grid."""

    def __init__(self, rng, dim, nd):
        super().__init__()
        self.nd = int(nd)
        self.norm = LayerNorm((2 ** nd) * dim)
        self.proj = Linear(rng, (2 ** nd) * dim, 2 * dim, bias=False)

    def __call__(self, x):
        n = x.shape[0]
        x = _zero_pad_high(x, [g % 2 for g in x.shape[1:-1]], 1)
        blocks, half = window_partition(x, (2,) * self.nd)
        x = reshape(blocks, (n,) + half + ((2 ** self.nd) * x.shape[-1],))
        return self.proj(self.norm(x)), half


class LstmCell(Module):
    def __init__(self, rng, in_dim, hidden):
        super().__init__()
        self.hidden = int(hidden)
        self.w_ih = _normal(rng, (in_dim, 4 * hidden),
                            1.0 / math.sqrt(in_dim))
        self.w_hh = _normal(rng, (hidden, 4 * hidden),
                            1.0 / math.sqrt(hidden))
        self.bias = Tensor(np.zeros(4 * hidden, np.float32),
                           requires_grad=True)

    def step(self, x_t, h, c):
        gates = add(add(matmul(x_t, self.w_ih), matmul(h, self.w_hh)),
                    self.bias)
        u = self.hidden
        i = sigmoid(narrow(gates, 1, 0, u))
        f = sigmoid(narrow(gates, 1, u, u))
        g = tanh(narrow(gates, 1, 2 * u, u))
        o = sigmoid(narrow(gates, 1, 3 * u, u))
        c = add(mul(f, c), mul(i, g))
        h = mul(o, tanh(c))
        return h, c


class BiLstm(Module):
    """Bidirectional LSTM over (N, S, F); returns the concatenated final
    hidden states of both directions, shape (N, 2 * hidden). Initial
    hidden and cell states are zero."""

    def __init__(self, rng, in_dim, hidden):
        super().__init__()
        self.hidden = int(hidden)
        self.fw = LstmCell(rng, in_dim, hidden)
        self.bw = LstmCell(rng, in_dim, hidden)

    def __call__(self, x):
        n, s, f = x.shape
        dtype = x.data.dtype
        states = []
        for cell, order in ((self.fw, range(s)),
                            (self.bw, range(s - 1, -1, -1))):
            h = Tensor(np.zeros((n, self.hidden), dtype=dtype))
            c = Tensor(np.zeros((n, self.hidden), dtype=dtype))
            for t in order:
                x_t = reshape(narrow(x, 1, t, 1), (n, f))
                h, c = cell.step(x_t, h, c)
            states.append(h)
        return concat(states, axis=1)


__all__ = [
    "BatchNorm", "BiLstm", "Conv", "Linear", "LayerNorm", "LstmCell",
    "Mlp", "Module", "PatchEmbed", "PatchMerge", "SwinBlock",
    "TransformerBlock", "multi_head_attention", "relative_position_index",
    "shift_window_mask", "sinusoid_positions", "window_partition",
    "window_unpartition",
]
