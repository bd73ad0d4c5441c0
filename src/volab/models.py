"""Model zoo: conv nets, token transformers, hierarchical window
transformers, and slice-sequence hybrids, in 2-D and 3-D.

Every family shares one contract: ``build_model(cfg, seed)`` gives a
``ModelInstance`` whose ``forward`` returns a probability in [0, 1]
(sigmoid head) plus every per-stage activation tap and every attention
record, with token centroids in voxel units. Stage taps follow a fixed
per-family protocol, named by ``ModelConfig.stage_names``, so the
analysis instruments can address layers uniformly:

  cnn                 stage1..stage4 (the four residual blocks)
  hybrid_*            encoder, aggregator
  vit                 block1..blockN
  swin                patch_embed, stage1..stageN
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import is_count, is_real, require
from .nn import (
    BatchNorm,
    BiLstm,
    Conv,
    LayerNorm,
    Linear,
    Module,
    PatchEmbed,
    PatchMerge,
    SwinBlock,
    TransformerBlock,
    _normal,
    _partition_np,
    sinusoid_positions,
)
from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    expand_batch,
    load_checkpoint,
    mean,
    narrow,
    pool2d,
    pool3d,
    relu,
    reshape,
    save_checkpoint,
    sigmoid,
    transpose,
)

FAMILIES = ("cnn", "hybrid_lstm", "hybrid_transformer", "vit", "swin")


@dataclass(frozen=True)
class ModelConfig:
    """Declarative architecture description; JSON round-trippable.

    input_shape is the spatial shape the network consumes: 2 dims for 2-D
    models, 3 dims for 3-D models and for hybrids (whose first axis is the
    slice-sequence axis feeding a 2-D per-slice encoder). Every input has
    one channel. A degenerate value raises ConfigError here, before any
    network is built.
    """

    family: str
    input_dims: int
    input_shape: tuple
    pad_policy: str = "strict"
    # conv backbone (cnn family; also the hybrid per-slice encoder)
    stem_channels: int = 8
    stage_channels: tuple = (8, 16, 32, 64)
    stage_strides: tuple = (1, 2, 2, 2)
    # token families
    patch_size: tuple = ()
    embed_dim: int = 32
    depth: int = 2
    n_heads: int = 2
    mlp_ratio: float = 4.0
    window_size: tuple = ()
    stage_depths: tuple = ()
    # hybrid aggregator
    agg_hidden: int = 16
    agg_depth: int = 2
    agg_heads: int = 4
    agg_dropout: float = 0.1

    def __post_init__(self):
        for name in ("input_shape", "stage_channels", "stage_strides",
                     "patch_size", "window_size", "stage_depths"):
            value = getattr(self, name)
            require(isinstance(value, (list, tuple))
                    and all(map(is_count, value)),
                    name, value, "a list of integers >= 1")
            object.__setattr__(self, name, tuple(value))
        for name in ("stem_channels", "embed_dim", "depth", "n_heads",
                     "agg_hidden", "agg_depth", "agg_heads"):
            require(is_count(getattr(self, name)), name, getattr(self, name),
                    "an integer >= 1")
        require(self.family in FAMILIES, "family", self.family,
                f"one of {FAMILIES}")
        require(is_count(self.input_dims) and self.input_dims in (2, 3),
                "input_dims", self.input_dims, "2 or 3")
        require(self.pad_policy in ("strict", "pad"), "pad_policy",
                self.pad_policy, "strict or pad")
        require(is_real(self.agg_dropout) and 0.0 <= self.agg_dropout < 1.0,
                "agg_dropout", self.agg_dropout, "in [0, 1)")
        # the narrowest width an MLP widens by mlp_ratio: the token width,
        # or for hybrids the encoder's output channels
        width = (((self.stem_channels,) + self.stage_channels)[-1]
                 if self.family.startswith("hybrid") else self.embed_dim)
        hidden = width * self.mlp_ratio if is_real(self.mlp_ratio) else 0
        require(is_real(hidden) and hidden >= 1, "mlp_ratio", self.mlp_ratio,
                "a number that gives every MLP a hidden unit")
        expect = 3 if self.family.startswith("hybrid") else self.input_dims
        require(len(self.input_shape) == expect, "input_shape",
                self.input_shape, f"{expect} spatial sizes for {self.family}")
        pad = self.pad_policy == "pad"
        if self.family in ("vit", "swin"):
            require(len(self.patch_size) == self.input_dims, "patch_size",
                    self.patch_size, "one size per input dim")
            require(self.embed_dim % self.n_heads == 0, "embed_dim",
                    self.embed_dim, f"divisible by {self.n_heads} heads")
            require(pad or all(s % p == 0 for s, p in
                               zip(self.input_shape, self.patch_size)),
                    "input_shape", self.input_shape,
                    f"divisible by patch {self.patch_size} (or pad_policy "
                    f"pad)")
        if self.family == "swin":
            require(len(self.window_size) == self.input_dims, "window_size",
                    self.window_size, "one size per input dim")
            require(self.stage_depths, "stage_depths", self.stage_depths,
                    "non-empty for swin")
            # each stage after the first starts with a 2x merge
            require(pad or all(g % 2 == 0 for grid in
                               self.stage_grids()[:-1] for g in grid),
                    "token grid", self.token_grid(),
                    f"halvable before each of stages "
                    f"2-{len(self.stage_depths)} (or pad_policy pad)")
        if self.family == "cnn" or self.family.startswith("hybrid"):
            require(self.stage_channels, "stage_channels",
                    self.stage_channels, f"non-empty for {self.family}")
            require(len(self.stage_channels) == len(self.stage_strides),
                    "stage_strides", self.stage_strides,
                    "as long as stage_channels")
            # the stem's 2x max pool needs two voxels along each pooled
            # axis: every axis for cnn, the per-slice axes for hybrids
            pooled = self.input_shape[0 if self.family == "cnn" else 1:]
            require(min(pooled) >= 2, "input_shape", self.input_shape,
                    "2 or more voxels along each axis the stem's 2x pool "
                    "halves")
        if self.family == "hybrid_transformer":
            require(width % self.agg_heads == 0, "encoder width", width,
                    f"divisible by {self.agg_heads} heads")

    def token_grid(self):
        """Token grid after patch embedding, a partial patch padded."""
        if self.family not in ("vit", "swin"):
            raise ShapeError(f"{self.family} has no token grid")
        return tuple(-(-s // p)
                     for s, p in zip(self.input_shape, self.patch_size))

    def stage_grids(self):
        """Token grid of each swin stage: the patch grid, then halved by
        the merge ahead of each later stage, an odd axis rounding up."""
        grids = [self.token_grid()]
        for _ in self.stage_depths[1:]:
            grids.append(tuple(-(-g // 2) for g in grids[-1]))
        return grids

    def stage_windows(self):
        """(grid, window, shift) of each swin stage. The window is clamped
        per axis to the grid; the shift, half the window, is what the
        stage's odd blocks roll by, and is dropped along any axis where
        the window spans the grid (shifting a full-span window changes
        no partition)."""
        stages = []
        for grid in self.stage_grids():
            window = tuple(min(w, g) for w, g in zip(self.window_size, grid))
            shift = tuple(w // 2 if w < g else 0
                          for w, g in zip(window, grid))
            stages.append((grid, window, shift))
        return stages

    def stage_names(self):
        """Names of the stage taps every forward returns, in order."""
        if self.family == "cnn":
            return [f"stage{i + 1}" for i in range(len(self.stage_channels))]
        if self.family == "vit":
            return [f"block{i + 1}" for i in range(self.depth)]
        if self.family == "swin":
            return ["patch_embed"] + [f"stage{s + 1}" for s in
                                      range(len(self.stage_depths))]
        return ["encoder", "aggregator"]


def desk_config(name):
    """Small CPU-tractable presets keyed by family+dimensionality."""
    presets = {
        "cnn2d": ModelConfig(
            family="cnn", input_dims=2, input_shape=(32, 32),
            stem_channels=8, stage_channels=(8, 16, 32, 64),
            stage_strides=(1, 2, 2, 2)),
        "cnn3d": ModelConfig(
            family="cnn", input_dims=3, input_shape=(32, 32, 32),
            stem_channels=8, stage_channels=(8, 16, 32, 64),
            stage_strides=(1, 2, 2, 2)),
        "vit2d": ModelConfig(
            family="vit", input_dims=2, input_shape=(32, 32),
            patch_size=(8, 8), embed_dim=32, depth=2, n_heads=2),
        "vit3d": ModelConfig(
            family="vit", input_dims=3, input_shape=(32, 32, 32),
            patch_size=(4, 8, 8), embed_dim=32, depth=2, n_heads=2),
        "swin2d": ModelConfig(
            family="swin", input_dims=2, input_shape=(32, 32),
            patch_size=(2, 2), embed_dim=12, n_heads=2,
            window_size=(4, 4), stage_depths=(2, 2, 1, 1)),
        "swin3d": ModelConfig(
            family="swin", input_dims=3, input_shape=(32, 32, 32),
            patch_size=(4, 4, 4), embed_dim=12, n_heads=2,
            window_size=(4, 4, 4), stage_depths=(2, 2, 1, 1)),
        "hybrid_lstm": ModelConfig(
            family="hybrid_lstm", input_dims=2, input_shape=(32, 32, 32),
            stem_channels=4, stage_channels=(4, 8, 16, 32),
            stage_strides=(1, 2, 2, 2), agg_hidden=16),
        "hybrid_transformer": ModelConfig(
            family="hybrid_transformer", input_dims=2,
            input_shape=(32, 32, 32), stem_channels=4,
            stage_channels=(4, 8, 16, 32), stage_strides=(1, 2, 2, 2),
            agg_depth=2, agg_heads=4, agg_dropout=0.1),
    }
    if name not in presets:
        raise KeyError(f"unknown desk preset {name!r}; "
                       f"choose from {sorted(presets)}")
    return presets[name]


def paper_config(name):
    """Full-scale geometry presets (shape-level tests; too slow to train
    here). Widths/depths follow the published configurations."""
    presets = {
        "cnn2d": ModelConfig(
            family="cnn", input_dims=2, input_shape=(224, 224),
            stem_channels=64, stage_channels=(64, 128, 256, 512),
            stage_strides=(1, 2, 2, 2)),
        "cnn3d": ModelConfig(
            family="cnn", input_dims=3, input_shape=(112, 112, 80),
            stem_channels=64, stage_channels=(64, 128, 256, 512),
            stage_strides=(1, 2, 2, 2)),
        "vit2d": ModelConfig(
            family="vit", input_dims=2, input_shape=(224, 224),
            patch_size=(16, 16), embed_dim=768, depth=12, n_heads=12),
        "vit3d": ModelConfig(
            family="vit", input_dims=3, input_shape=(112, 112, 80),
            patch_size=(16, 16, 4), embed_dim=512, depth=12, n_heads=8),
        "swin2d": ModelConfig(
            family="swin", input_dims=2, input_shape=(224, 224),
            patch_size=(4, 4), embed_dim=96, n_heads=3,
            window_size=(7, 7), stage_depths=(2, 2, 6, 2)),
        "swin3d": ModelConfig(
            family="swin", input_dims=3, input_shape=(112, 112, 80),
            patch_size=(4, 4, 4), embed_dim=96, n_heads=3,
            window_size=(4, 4, 4), stage_depths=(2, 2, 6, 2),
            pad_policy="pad"),
        "hybrid_lstm": ModelConfig(
            family="hybrid_lstm", input_dims=2,
            input_shape=(24, 224, 224), stem_channels=64,
            stage_channels=(64, 128, 256, 512), stage_strides=(1, 2, 2, 2),
            agg_hidden=256),
        "hybrid_transformer": ModelConfig(
            family="hybrid_transformer", input_dims=2,
            input_shape=(24, 224, 224), stem_channels=64,
            stage_channels=(64, 128, 256, 512), stage_strides=(1, 2, 2, 2),
            agg_depth=6, agg_heads=8, agg_dropout=0.1),
    }
    if name not in presets:
        raise KeyError(f"unknown paper preset {name!r}; "
                       f"choose from {sorted(presets)}")
    return presets[name]


@dataclass
class AttentionRecord:
    """One attention map: (groups, heads, L, L) probabilities plus the
    voxel-space centroids (1 or groups, L, nd) of the tokens, NaN rows
    marking class tokens. One centroid group serves every attention group;
    a swin record of a batch of one has one centroid group per window."""
    layer: str
    attn: np.ndarray
    centroids: np.ndarray


@dataclass
class StageTap:
    """A named activation snapshot for mechanistic analysis.

    kind "grid" taps are (N, C, *spatial); "tokens" are (N, L, D) with
    per-token voxel centroids; "vector" are (N, F).
    """
    name: str
    kind: str
    data: Tensor
    centroids: np.ndarray = None


@dataclass
class ForwardResult:
    pred: Tensor
    attention: list = field(default_factory=list)
    stages: list = field(default_factory=list)


class ResidualBlock(Module):
    """conv3x3(stride)-BN-ReLU-conv3x3-BN + projection skip, ReLU after."""

    def __init__(self, rng, nd, in_ch, out_ch, stride):
        super().__init__()
        k = (3,) * nd
        self.conv1 = Conv(rng, in_ch, out_ch, k, stride=stride, padding=1)
        self.bn1 = BatchNorm(out_ch)
        self.conv2 = Conv(rng, out_ch, out_ch, k, stride=1, padding=1)
        self.bn2 = BatchNorm(out_ch)
        if stride != 1 or in_ch != out_ch:
            self.proj = Conv(rng, in_ch, out_ch, (1,) * nd, stride=stride,
                             padding=0)
            self.proj_bn = BatchNorm(out_ch)
        else:
            self.proj = None
            self.proj_bn = None

    def __call__(self, x):
        h = self.bn2(self.conv2(relu(self.bn1(self.conv1(x)))))
        skip = x if self.proj is None else self.proj_bn(self.proj(x))
        return relu(add(h, skip))


class ConvBackbone(Module):
    """Stem (conv-BN-ReLU-maxpool2) + one residual block per stage, on a
    one-channel input."""

    def __init__(self, rng, nd, stem_ch, channels, strides):
        super().__init__()
        self.nd = nd
        self.stem = Conv(rng, 1, stem_ch, (3,) * nd, stride=1, padding=1)
        self.stem_bn = BatchNorm(stem_ch)
        widths = (stem_ch,) + tuple(channels)
        self.blocks = [ResidualBlock(rng, nd, a, b, st)
                       for a, b, st in zip(widths, widths[1:], strides)]
        self.out_channels = widths[-1]

    def __call__(self, x):
        """(features, taps): the globally average-pooled (N, C) output
        and the output of every residual block."""
        pool = pool3d if self.nd == 3 else pool2d
        h = pool(relu(self.stem_bn(self.stem(x))), 2, stride=2)
        taps = []
        for blk in self.blocks:
            h = blk(h)
            taps.append(h)
        return mean(h, axis=tuple(range(2, h.ndim))), taps


def class_token_encode(tokens, cls, pos, blocks, norm, centroids, names,
                       rng):
    """The class-token encoder of vit and hybrid_transformer: prepend the
    class token to (N, L, D) tokens, add the positions, run the blocks,
    normalize, and read the class token out as (N, D) features. Also
    returns, per block and named by ``names``, its tokens tap and its
    attention record; the centroids (L, nd) gain a NaN class-token row."""
    n, _, d = tokens.shape
    cents = np.concatenate([np.full((1, centroids.shape[1]), np.nan),
                            centroids], axis=0)
    t = add(concat([expand_batch(cls, n), tokens], axis=1), pos)
    taps, records = [], []
    for name, blk in zip(names, blocks):
        t, attn = blk(t, rng=rng)
        records.append(AttentionRecord(layer=name, attn=attn,
                                       centroids=cents[None]))
        taps.append(StageTap(name, "tokens", t, centroids=cents))
    t = norm(t)
    return reshape(narrow(t, 1, 0, 1), (n, d)), taps, records


class ModelInstance(Module):
    """A family network: its config, the input check and the forward
    protocol. Each family builds its layers and a ``head`` on its
    features and implements ``_forward(x, rng)`` returning (features,
    stage taps, attention records); the taps are named, in order, by
    ``config.stage_names()``. Geometry the input shape fixes (swin
    windows, masks and centroids) is built with the layers."""

    def __init__(self, config):
        super().__init__()
        self.config = config

    def forward(self, x, training=False, rng=None):
        """ForwardResult with the prediction, every stage tap and every
        attention record of this input."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x))
        expect = (1,) + self.config.input_shape
        if x.shape[1:] != expect:
            raise ShapeError(f"input shape {x.shape[1:]} does not match "
                             f"model input {expect}")
        self.set_training(training)
        feat, stages, records = self._forward(x, rng)
        pred = reshape(sigmoid(self.head(feat)), (x.shape[0],))
        return ForwardResult(pred=pred, attention=records, stages=stages)

    def param_count(self):
        return sum(int(p.size) for _, p in self.named_parameters())

    def state_arrays(self):
        arrays = {name: p.data for name, p in self.named_parameters()}
        arrays.update(self.named_buffers())
        return arrays

    def save(self, path, epoch=0, val_mse=0.0):
        arrays = dict(self.state_arrays())
        arrays["meta.epoch"] = np.asarray(float(epoch), dtype=np.float32)
        arrays["meta.val_mse"] = np.asarray(float(val_mse), dtype=np.float32)
        save_checkpoint(path, arrays)

    def load(self, path):
        """Copy a checkpoint written by ``save`` into this model: every
        state entry and both meta entries must be there, and nothing else."""
        arrays = load_checkpoint(path)
        state = self.state_arrays()
        missing = sorted((set(state) | {"meta.epoch", "meta.val_mse"})
                         - set(arrays))
        if missing:
            raise ShapeError(f"checkpoint lacks {missing}")
        del arrays["meta.epoch"], arrays["meta.val_mse"]
        for name, arr in arrays.items():
            if name not in state:
                raise ShapeError(f"checkpoint entry {name!r} not in model")
            target = state[name]
            if target.shape != arr.shape:
                raise ShapeError(f"checkpoint shape {arr.shape} does not "
                                 f"match {name} {target.shape}")
            target[...] = arr.astype(target.dtype)


class CnnNet(ModelInstance):
    def __init__(self, rng, cfg):
        super().__init__(cfg)
        self.backbone = ConvBackbone(rng, cfg.input_dims, cfg.stem_channels,
                                     cfg.stage_channels, cfg.stage_strides)
        self.head = Linear(rng, self.backbone.out_channels, 1)

    def _forward(self, x, rng):
        feat, taps = self.backbone(x)
        names = self.config.stage_names()
        return feat, [StageTap(name, "grid", t)
                      for name, t in zip(names, taps)], []


class VitNet(ModelInstance):
    def __init__(self, rng, cfg):
        super().__init__(cfg)
        d = cfg.embed_dim
        self.embed = PatchEmbed(rng, cfg.patch_size, d)
        self.cls = _normal(rng, (1, d), 0.02)
        # learned position table covers CLS (row 0) + every patch token
        self.pos = _normal(rng, (math.prod(cfg.token_grid()) + 1, d), 0.02)
        self.blocks = [TransformerBlock(rng, d, cfg.n_heads,
                                        mlp_ratio=cfg.mlp_ratio)
                       for _ in range(cfg.depth)]
        self.norm = LayerNorm(d)
        self.head = Linear(rng, d, 1)

    def _forward(self, x, rng):
        tokens, grid = self.embed(x)
        return class_token_encode(tokens, self.cls, self.pos, self.blocks,
                                  self.norm, self.embed.centroids(grid),
                                  self.config.stage_names(), rng)


def merge_centroids(cgrid):
    """Parent centroid = mean of its real 2^nd children (numpy twin of the
    token merge). The token that pads an odd axis covers no voxels, so it
    enters as NaN and is left out of its parent's mean."""
    nd = cgrid.ndim - 1
    pads = [(0, g % 2) for g in cgrid.shape[:-1]] + [(0, 0)]
    arr = np.pad(cgrid, pads, constant_values=np.nan)
    half = tuple(g // 2 for g in arr.shape[:-1])
    blocks = _partition_np(arr, (2,) * nd)
    return np.nanmean(blocks, axis=1).reshape(half + (nd,))


class SwinNet(ModelInstance):
    def __init__(self, rng, cfg):
        super().__init__(cfg)
        nd = cfg.input_dims
        d = cfg.embed_dim
        self.embed = PatchEmbed(rng, cfg.patch_size, d)
        self.embed_norm = LayerNorm(d)
        # voxel centroids (*grid, nd) of each stage's tokens
        cgrid = self.embed.centroids(cfg.token_grid()).reshape(
            cfg.token_grid() + (nd,))
        self.stages, self.merges, self._cgrids = [], [], []
        for s, (depth, (grid, window, shift)) in enumerate(
                zip(cfg.stage_depths, cfg.stage_windows())):
            if s:
                cgrid = merge_centroids(cgrid)
            cgrid.flags.writeable = False
            self._cgrids.append(cgrid)
            dim_s = d * (2 ** s)
            # even blocks use plain windows, odd blocks shifted ones
            self.stages += [
                SwinBlock(rng, dim_s, cfg.n_heads * (2 ** s), grid, window,
                          shift if b % 2 == 1 else (0,) * nd, cgrid,
                          radix=cfg.window_size, mlp_ratio=cfg.mlp_ratio)
                for b in range(depth)]
            if s < len(cfg.stage_depths) - 1:
                self.merges.append(PatchMerge(rng, dim_s, nd))
        final_dim = d * (2 ** (len(cfg.stage_depths) - 1))
        self.norm = LayerNorm(final_dim)
        self.head = Linear(rng, final_dim, 1)

    def _forward(self, x, rng):
        n = x.shape[0]
        tokens, grid = self.embed(x)
        t = self.embed_norm(tokens)
        nd = len(grid)
        stages = [StageTap("patch_embed", "tokens", t,
                           centroids=self._cgrids[0].reshape(-1, nd))]
        records = []
        t = reshape(t, (n,) + grid + (self.config.embed_dim,))
        blocks = iter(self.stages)
        for s, depth in enumerate(self.config.stage_depths):
            if s:
                t, _ = self.merges[s - 1](t)
            for b in range(depth):
                blk = next(blocks)
                t, attn = blk(t)
                records.append(AttentionRecord(
                    layer=f"stage{s + 1}.block{b + 1}", attn=attn,
                    centroids=blk.centroids))
            stages.append(StageTap(
                f"stage{s + 1}", "tokens", reshape(t, (n, -1, t.shape[-1])),
                centroids=self._cgrids[s].reshape(-1, nd)))
        t = self.norm(reshape(t, (n, -1, t.shape[-1])))
        return mean(t, axis=1), stages, records


class HybridNet(ModelInstance):
    """Shared 2-D encoder over the slice sequence + sequence aggregator."""

    def __init__(self, rng, cfg):
        super().__init__(cfg)
        self.encoder = ConvBackbone(rng, 2, cfg.stem_channels,
                                    cfg.stage_channels, cfg.stage_strides)
        f = self.encoder.out_channels
        n_slices = cfg.input_shape[0]
        if cfg.family == "hybrid_lstm":
            self.agg = BiLstm(rng, f, cfg.agg_hidden)
            agg_out = 2 * cfg.agg_hidden
        else:
            self.cls = _normal(rng, (1, f), 0.02)
            # fixed sin/cos positions; row 0 is taken by the class token
            self._buffers = {"pos_table": sinusoid_positions(n_slices + 1, f)}
            self.agg_blocks = [
                TransformerBlock(rng, f, cfg.agg_heads, mlp_ratio=cfg.mlp_ratio,
                                 drop=cfg.agg_dropout)
                for _ in range(cfg.agg_depth)]
            self.agg_norm = LayerNorm(f)
            agg_out = f
        self.head = Linear(rng, agg_out, 1)

    def _forward(self, x, rng):
        lstm = self.config.family == "hybrid_lstm"
        if self.training and not lstm and rng is None:
            raise ValueError("hybrid_transformer in training mode needs "
                             "an rng for dropout")
        n, c, s = x.shape[:3]
        slices = reshape(transpose(x, (0, 2, 1, 3, 4)),
                         (n * s, c) + tuple(x.shape[3:]))
        feat, _ = self.encoder(slices)
        seq = reshape(feat, (n, s, feat.shape[1]))
        slice_cents = np.arange(s, dtype=np.float64)[:, None]
        records = []
        if lstm:
            agg_feat = self.agg(seq)
        else:
            agg_feat, _, records = class_token_encode(
                seq, self.cls, Tensor(self._buffers["pos_table"]),
                self.agg_blocks, self.agg_norm, slice_cents,
                [f"agg_block{i + 1}" for i in range(len(self.agg_blocks))],
                rng)
        stages = [StageTap("encoder", "tokens", seq, centroids=slice_cents),
                  StageTap("aggregator", "vector", agg_feat)]
        return agg_feat, stages, records


_NETS = {
    "cnn": CnnNet,
    "vit": VitNet,
    "swin": SwinNet,
    "hybrid_lstm": HybridNet,
    "hybrid_transformer": HybridNet,
}


def build_model(cfg, seed=0):
    """Deterministic instantiation: same (cfg, seed) -> same float32
    parameters."""
    rng = np.random.default_rng(seed)
    return _NETS[cfg.family](rng, cfg)


__all__ = [
    "AttentionRecord", "FAMILIES", "ForwardResult", "ModelConfig",
    "ModelInstance", "StageTap", "build_model", "class_token_encode",
    "desk_config", "merge_centroids", "paper_config",
]
