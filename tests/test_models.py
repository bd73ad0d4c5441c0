"""Architecture tests: token geometry, window mechanics against the
brute-force oracle, merge behavior, aggregators, and the forward contract
shared by every family."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import as_float64, shifted_window_attention_loops
from volab import models, nn
from volab.analysis import attention_distances
from volab.artifacts import ConfigError, DataError
from volab.models import (
    ModelConfig,
    build_model,
    desk_config,
    merge_centroids,
    paper_config,
)
from volab.tensor import (
    NORM_EPS,
    ShapeError,
    Tensor,
    add,
    backward,
    concat,
    conv2d,
    conv3d,
    expand_batch,
    load_checkpoint,
    matmul,
    mul,
    reshape,
    roll,
    save_checkpoint,
    softmax,
    transpose,
    tsum,
)


PRESET_NAMES = ["cnn2d", "cnn3d", "vit2d", "vit3d", "swin2d", "swin3d",
                "hybrid_lstm", "hybrid_transformer"]

SWIN_CONFIGS = {
    "swin2d": desk_config("swin2d"),
    "swin3d": desk_config("swin3d"),
    # grid (4, 4, 3) after a padded patch row; the merge pads the odd axis
    "swin3d_padded": ModelConfig(
        family="swin", input_dims=3, input_shape=(30, 32, 24),
        patch_size=(8, 8, 8), window_size=(4, 4, 4), stage_depths=(1, 1),
        embed_dim=12, n_heads=2, pad_policy="pad"),
}
# (grid, window, shift) of every block in order: the window clamped to the
# grid per axis; on odd blocks a shift of half the window, dropped along
# any axis the window spans
BLOCK_WINDOWS = {
    "swin2d": [((16, 16), (4, 4), (0, 0)), ((16, 16), (4, 4), (2, 2)),
               ((8, 8), (4, 4), (0, 0)), ((8, 8), (4, 4), (2, 2)),
               ((4, 4), (4, 4), (0, 0)), ((2, 2), (2, 2), (0, 0))],
    "swin3d": [((8, 8, 8), (4, 4, 4), (0, 0, 0)),
               ((8, 8, 8), (4, 4, 4), (2, 2, 2)),
               ((4, 4, 4), (4, 4, 4), (0, 0, 0)),
               ((4, 4, 4), (4, 4, 4), (0, 0, 0)),
               ((2, 2, 2), (2, 2, 2), (0, 0, 0)),
               ((1, 1, 1), (1, 1, 1), (0, 0, 0))],
    "swin3d_padded": [((4, 4, 3), (4, 4, 3), (0, 0, 0)),
                      ((2, 2, 2), (2, 2, 2), (0, 0, 0))],
}


def _rng(seed=0):
    return np.random.default_rng(seed)


def _index_grid(grid):
    """(*grid, nd) voxel coordinates of every token of a token grid."""
    axes = [np.arange(g, dtype=np.float64) for g in grid]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


class TestTokenGeometry:
    def test_desk_vit3d_token_count(self):
        cfg = desk_config("vit3d")
        assert cfg.patch_size == (4, 8, 8)
        assert cfg.token_grid() == (8, 4, 4)
        m = build_model(cfg, seed=0)
        x = Tensor(np.zeros((1, 1, 32, 32, 32), np.float32))
        res = m.forward(x)
        # 128 patch tokens + 1 class token
        assert res.stages[0].data.shape == (1, 129, 32)
        # the class token is the row without a voxel centroid
        assert np.isnan(res.stages[0].centroids[0]).all()
        assert not np.isnan(res.stages[0].centroids[1:]).any()

    def test_paper_vit3d_980_tokens_plus_cls(self):
        cfg = paper_config("vit3d")
        assert cfg.token_grid() == (7, 7, 20)
        m = build_model(cfg, seed=0)
        tokens, grid = m.embed(Tensor(np.zeros((1, 1, 112, 112, 80),
                                                   np.float32)))
        assert grid == (7, 7, 20)
        assert tokens.shape == (1, 980, 512)
        assert m.pos.shape == (981, 512)

    def test_paper_vit2d_196_tokens(self):
        cfg = paper_config("vit2d")
        assert cfg.token_grid() == (14, 14)
        assert int(np.prod(cfg.token_grid())) == 196

    def test_paper_swin3d_grid_and_window_count(self):
        cfg = paper_config("swin3d")
        assert cfg.token_grid() == (28, 28, 20)
        assert cfg.stage_grids() == [(28, 28, 20), (14, 14, 10), (7, 7, 5),
                                     (4, 4, 3)]
        x = Tensor(np.zeros((1, 28, 28, 20, 8), np.float32))
        wins, counts = nn.window_partition(x, (4, 4, 4))
        assert counts == (7, 7, 5)
        assert wins.shape == (245, 64, 8)

    def test_paper_swin3d_merge_halves_and_doubles(self):
        rng = _rng(0)
        merge = nn.PatchMerge(rng, 96, 3)
        x = Tensor(rng.normal(size=(1, 28, 28, 20, 96)).astype(np.float32))
        out, half = merge(x)
        assert half == (14, 14, 10)
        assert out.shape == (1, 14, 14, 10, 192)

    def test_patch_divisibility_strict_vs_pad(self):
        with pytest.raises(ConfigError):
            ModelConfig(family="vit", input_dims=2, input_shape=(30, 32),
                        patch_size=(8, 8), embed_dim=32, n_heads=2)
        cfg = ModelConfig(family="vit", input_dims=2, input_shape=(30, 32),
                          patch_size=(8, 8), embed_dim=32, n_heads=2,
                          pad_policy="pad")
        assert cfg.token_grid() == (4, 4)
        m = build_model(cfg, seed=0)
        tokens, grid = m.embed(Tensor(np.zeros((1, 1, 30, 32),
                                                   np.float32)))
        assert grid == (4, 4) and tokens.shape == (1, 16, 32)

    def test_zero_input_zero_proj_gives_cls_only(self):
        cfg = desk_config("vit2d")
        net = build_model(cfg, seed=3)
        net.embed.proj.weight.data[...] = 0.0
        net.embed.proj.bias.data[...] = 0.0
        net.pos.data[...] = 0.0
        x = Tensor(np.zeros((1, 1, 32, 32), np.float32))
        tokens, _ = net.embed(x)
        t = add(concat([expand_batch(net.cls, 1), tokens], axis=1), net.pos)
        assert np.all(t.data[0, 1:] == 0.0)
        assert np.array_equal(t.data[0, 0], net.cls.data[0])
        assert np.any(net.cls.data != 0.0)


class TestWindowMechanics:
    @given(st.sampled_from([((4, 4), (2, 2)), ((6, 4), (3, 2)),
                            ((4, 4, 4), (2, 2, 2)), ((8, 2), (2, 2))]),
           st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_partition_unpartition_roundtrip(self, geom, seed):
        grid, window = geom
        rng = _rng(seed)
        x = Tensor(rng.normal(size=(2,) + grid + (3,)).astype(np.float32))
        wins, counts = nn.window_partition(x, window)
        back = nn.window_unpartition(wins, window, counts, 2)
        assert np.array_equal(back.data, x.data)

    def test_partition_indivisible_raises(self):
        x = Tensor(np.zeros((1, 5, 4, 3), np.float32))
        with pytest.raises(ShapeError):
            nn.window_partition(x, (2, 2))

    @pytest.mark.parametrize("grid,window", [
        ((4, 6), (2, 3)), ((4, 4, 2), (2, 2, 1)), ((6,), (3,))])
    def test_numpy_partition_matches_tensor_partition(self, grid, window):
        a = _rng(4).normal(size=grid + (3,))
        wins, _ = nn.window_partition(Tensor(a[None]), window)
        assert np.array_equal(nn._partition_np(a, window), wins.data)

    def test_shift_then_inverse_is_identity(self):
        rng = _rng(1)
        x = Tensor(rng.normal(size=(1, 6, 8, 4, 2)).astype(np.float32))
        shift = (2, 3, 1)
        axes = (1, 2, 3)
        back = roll(roll(x, tuple(-s for s in shift), axes), shift, axes)
        assert np.array_equal(back.data, x.data)

    @pytest.mark.parametrize("grid,window", [
        ((8, 8), (4, 4)),
        ((8, 4), (4, 2)),
        ((4, 4, 4), (2, 2, 2)),
        ((8, 8, 8), (4, 4, 4)),
        ((6,), (3,)),
    ])
    def test_masked_shift_attention_matches_oracle_all_shifts(self, grid,
                                                              window):
        """Cyclic shift + additive mask equals brute-force attention over
        the truncated shifted partition, for every shift value."""
        rng = _rng(42)
        nd = len(grid)
        L = int(np.prod(grid))
        d = 5
        shifts = [tuple(t) for t in
                  np.stack(np.meshgrid(*[np.arange(w) for w in window],
                                       indexing="ij"), -1).reshape(-1, nd)]
        for shift in shifts:
            tokens = rng.normal(size=(L, d))
            want = shifted_window_attention_loops(tokens, grid, window,
                                                  shift)
            x = Tensor(tokens.reshape((1,) + grid + (d,)))
            h = roll(x, tuple(-s for s in shift), tuple(range(1, 1 + nd)))
            wins, counts = nn.window_partition(h, window)
            g = int(np.prod(counts))
            wl = int(np.prod(window))
            scores = matmul(wins, transpose(wins, (0, 2, 1)))
            scores = mul(scores, Tensor(np.asarray(1.0 / np.sqrt(d))))
            if any(shift):
                mask = nn.shift_window_mask(grid, window, shift)
                scores = reshape(scores, (1, g, wl, wl))
                scores = add(scores, Tensor(mask))
                scores = reshape(scores, (g, wl, wl))
            attn = softmax(scores, axis=-1)
            out = nn.window_unpartition(matmul(attn, wins), window, counts,
                                        1)
            out = roll(out, shift, tuple(range(1, 1 + nd)))
            got = out.data.reshape(L, d)
            assert np.abs(got - want).max() < 1e-10, (grid, window, shift)

    def test_swin_block_attention_rows_sum_to_one(self):
        rng = _rng(5)
        blk = nn.SwinBlock(rng, 12, 2, (8, 8), window=(4, 4), shift=(2, 2),
                           centroids=_index_grid((8, 8)), radix=(4, 4))
        blk.set_training(False)
        x = Tensor(rng.normal(size=(1, 8, 8, 12)).astype(np.float32))
        _, attn = blk(x)
        assert attn.shape == (4, 2, 16, 16)
        assert np.allclose(attn.sum(axis=-1), 1.0, atol=1e-5)
        assert blk.centroids.shape == (4, 16, 2)

    def test_relative_position_index_radix(self):
        # unclamped windows index their own table; a clamped (2, 3) window
        # indexes the (4, 4) table at the same relative offsets
        full = nn.relative_position_index((4, 4), (4, 4))
        assert full.max() == 7 * 7 - 1 and full.min() == 0
        clamped = nn.relative_position_index((2, 3), radix=(4, 4))
        keep = [r * 4 + c for r in range(2) for c in range(3)]
        assert np.array_equal(clamped, full[np.ix_(keep, keep)])

    def test_window_clamps_to_small_grid(self):
        cfg = ModelConfig(family="swin", input_dims=2, input_shape=(8, 8),
                          patch_size=(4, 4), embed_dim=8, n_heads=2,
                          window_size=(4, 4), stage_depths=(2,))
        [(grid, window, shift)] = cfg.stage_windows()
        # window covers the whole grid, shift becomes a no-op
        assert (grid, window, shift) == ((2, 2), (2, 2), (0, 0))
        rng = _rng(6)
        blk = nn.SwinBlock(rng, 8, 2, grid, window, shift, _index_grid(grid),
                           radix=cfg.window_size)
        x = Tensor(rng.normal(size=(1, 2, 2, 8)).astype(np.float32))
        out, attn = blk(x)
        assert out.shape == (1, 2, 2, 8)
        assert attn.shape == (1, 2, 4, 4)
        assert blk.rel_bias.shape == (7 * 7, 2)

    @pytest.mark.parametrize("name", sorted(BLOCK_WINDOWS))
    def test_stage_windows_match_per_block_clamp(self, name):
        """Every block's (grid, window, shift), from the config and as
        built, is the table's."""
        cfg = SWIN_CONFIGS[name]
        stages = cfg.stage_windows()
        blocks = iter(build_model(cfg, seed=0).stages)
        got = []
        for s, depth in enumerate(cfg.stage_depths):
            grid, window, shift = stages[s]
            for b in range(depth):
                blk = next(blocks)
                want = (window, shift if b % 2 else (0,) * len(grid))
                assert (blk.window, blk.shift) == want
                got.append((grid,) + want)
        assert got == BLOCK_WINDOWS[name]

    @pytest.mark.parametrize("name", ["swin3d", "swin3d_padded"])
    def test_forward_builds_no_geometry(self, name, monkeypatch):
        """Shift masks, bias indices and centroids are built with the
        model: neither a training nor a frozen forward rebuilds them."""
        cfg = SWIN_CONFIGS[name]
        model = build_model(cfg, seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("a forward rebuilt fixed geometry")

        monkeypatch.setattr(nn, "shift_window_mask", refuse)
        monkeypatch.setattr(nn, "relative_position_index", refuse)
        monkeypatch.setattr(models, "merge_centroids", refuse)
        x = _rng(1).normal(size=(2, 1) + cfg.input_shape).astype(np.float32)
        model.forward(Tensor(x), training=True, rng=_rng(2))
        with model.frozen():
            result = model.forward(Tensor(x[:1]))
        assert len(result.attention) == sum(cfg.stage_depths)


class TestPatchEmbed:
    @pytest.mark.parametrize("spatial,patch", [
        ((8, 12), (4, 3)), ((8, 4, 6), (2, 2, 3)), ((7, 8, 5), (4, 4, 2))],
        ids=["2d", "3d", "3d_padded"])
    def test_matches_strided_conv(self, spatial, patch):
        """Tokens equal a stride=patch convolution with the projection as
        its kernel, in raster order (zero padding at the high end)."""
        rng = _rng(6)
        embed = nn.PatchEmbed(rng, patch, 5)
        embed.proj.bias.data[...] = rng.normal(size=5)
        x = rng.normal(size=(2, 1) + spatial).astype(np.float32)
        tokens, grid = embed(Tensor(x))
        pads = [(0, 0), (0, 0)] + [(0, (-s) % p)
                                   for s, p in zip(spatial, patch)]
        w = embed.proj.weight.data.T.reshape((5, 1) + patch)
        op = conv3d if len(patch) == 3 else conv2d
        out = op(Tensor(np.pad(x, pads)), Tensor(w), stride=patch).data
        want = np.moveaxis(out, 1, -1).reshape(2, -1, 5) \
            + embed.proj.bias.data
        assert grid == out.shape[2:]
        assert np.allclose(tokens.data, want, atol=1e-5)


class TestPatchMerge:
    def test_constant_tokens_stay_constant(self):
        rng = _rng(0)
        merge = nn.PatchMerge(rng, 6, 2)
        x = Tensor(np.full((1, 4, 4, 6), 1.7, np.float32))
        out, half = merge(x)
        assert half == (2, 2)
        flat = out.data.reshape(-1, 12)
        assert np.allclose(flat, flat[0], atol=1e-6)

    def test_merged_centroid_is_child_mean(self):
        grid = (4, 4, 2)
        axes = [np.arange(g, dtype=np.float64) * 3 + 1.0 for g in grid]
        cgrid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        merged = merge_centroids(cgrid)
        assert merged.shape == (2, 2, 1, 3)
        children = [cgrid[2 * i + a, 2 * j + b, 2 * k + c]
                    for a in (0, 1) for b in (0, 1) for c in (0, 1)
                    for i, j, k in [(1, 0, 0)]]
        assert np.allclose(merged[1, 0, 0], np.mean(children, axis=0))

    def test_odd_grid_pads_one_token(self):
        rng = _rng(2)
        x = Tensor(np.ones((1, 3, 4, 6), np.float32))
        out, half = nn.PatchMerge(rng, 6, 2)(x)
        assert half == (2, 2)


    def test_odd_grid_merged_centroids_average_real_children(self):
        cfg = ModelConfig(family="swin", input_dims=3,
                          input_shape=(32, 32, 24), patch_size=(8, 8, 8),
                          window_size=(4, 4, 4), stage_depths=(1, 1),
                          pad_policy="pad", embed_dim=12, n_heads=2)
        x = _rng(5).normal(size=(1, 1) + cfg.input_shape).astype(np.float32)
        recs = build_model(cfg, seed=3).forward(x)
        stage1, stage2 = (r.centroids for r in recs.attention)
        cgrid = stage1.reshape(4, 4, 3, 3)  # one window spans the grid
        got = stage2.reshape(2, 2, 2, 3)
        assert np.isfinite(got).all()
        for i, j, k in np.ndindex(2, 2, 2):
            children = cgrid[2 * i:2 * i + 2, 2 * j:2 * j + 2, 2 * k:2 * k + 2]
            assert np.allclose(got[i, j, k],
                               children.reshape(-1, 3).mean(axis=0))


class TestAttentionBlocks:
    def test_single_token_attention_weight_one(self):
        rng = _rng(0)
        qkv = nn.Linear(rng, 8, 24)
        proj = nn.Linear(rng, 8, 8)
        x = Tensor(rng.normal(size=(1, 1, 8)).astype(np.float32))
        _, attn = nn.multi_head_attention(x, qkv, proj, 2)
        assert np.allclose(attn, 1.0)

    def test_identical_keys_give_uniform_attention(self):
        rng = _rng(1)
        qkv = nn.Linear(rng, 8, 24)
        proj = nn.Linear(rng, 8, 8)
        row = rng.normal(size=8).astype(np.float32)
        x = Tensor(np.stack([row, row])[None])
        _, attn = nn.multi_head_attention(x, qkv, proj, 2)
        assert np.allclose(attn, 0.5, atol=1e-6)

    def test_vit_cls_invariant_to_token_permutation_with_zero_pos(self):
        cfg = desk_config("vit2d")
        net = build_model(cfg, seed=7)
        net.pos.data[...] = 0.0
        net.set_training(False)
        rng = _rng(3)
        tokens = rng.normal(size=(1, 17, 32)).astype(np.float32)

        def run(tok):
            t = Tensor(tok)
            for blk in net.blocks:
                t, _ = blk(t)
            out = net.norm(t)
            return out.data[0, 0]

        perm = np.concatenate([[0], 1 + rng.permutation(16)])
        base = run(tokens)
        shuffled = run(tokens[:, perm])
        assert np.allclose(base, shuffled, atol=1e-5)

    def test_transformer_agg_with_zeroed_attention_matches_direct(self):
        cfg = desk_config("hybrid_transformer")
        net = build_model(cfg, seed=9)
        blk = net.agg_blocks[0]
        blk.proj.weight.data[...] = 0.0
        blk.proj.bias.data[...] = 0.0
        blk.set_training(False)
        rng = _rng(4)
        x = rng.normal(size=(1, 5, 32)).astype(np.float32)
        out, _ = blk(Tensor(x))
        # attention contributes zero, so the block is x + mlp(norm2(x))
        h = x.astype(np.float64)
        mu = h.mean(-1, keepdims=True)
        var = h.var(-1, keepdims=True)
        ln = ((h - mu) / np.sqrt(var + 1e-5)
              * blk.norm2.gamma.data + blk.norm2.beta.data)
        z = ln @ blk.mlp.fc1.weight.data + blk.mlp.fc1.bias.data
        from scipy.special import erf as _erf
        z = 0.5 * z * (1.0 + _erf(z / np.sqrt(2.0)))
        want = h + z @ blk.mlp.fc2.weight.data + blk.mlp.fc2.bias.data
        assert np.abs(out.data - want).max() < 1e-5


class TestAggregators:
    def test_zero_lstm_single_step_outputs_zero(self):
        rng = _rng(0)
        lstm = nn.BiLstm(rng, 6, 4)
        for _, p in lstm.named_parameters():
            p.data[...] = 0.0
        out = lstm(Tensor(np.ones((2, 1, 6), np.float32)))
        assert np.all(out.data == 0.0)

    def test_lstm_is_order_sensitive(self):
        rng = _rng(1)
        lstm = nn.BiLstm(rng, 6, 4)
        x = rng.normal(size=(1, 5, 6)).astype(np.float32)
        a = lstm(Tensor(x)).data
        b = lstm(Tensor(x[:, ::-1].copy())).data
        assert not np.allclose(a, b)

    def test_hybrid_transformer_training_needs_rng(self):
        cfg = desk_config("hybrid_transformer")
        m = build_model(cfg, seed=0)
        x = Tensor(np.zeros((2, 1, 32, 32, 32), np.float32))
        with pytest.raises(ValueError):
            m.forward(x, training=True)
        res = m.forward(x, training=True, rng=_rng(0))
        assert res.pred.shape == (2,)


def _reference_batch_norm(x, gamma, beta, running, m, eps, g):
    """The training-form batch norm written out once: output, the three
    VJPs for cotangent g, and the updated running buffers."""
    axes = (0,) + tuple(range(2, x.ndim))
    mean, var = running
    running = (((1 - m) * mean + m * x.mean(axis=axes)).astype(x.dtype),
               ((1 - m) * var + m * x.var(axis=axes)).astype(x.dtype))
    pshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    gam, bet = gamma.reshape(pshape), beta.reshape(pshape)
    inv = 1.0 / np.sqrt(x.var(axis=axes, keepdims=True) + eps)
    xhat = (x - x.mean(axis=axes, keepdims=True)) * inv
    gx_hat = g * gam
    m1 = gx_hat.mean(axis=axes, keepdims=True)
    m2 = (gx_hat * xhat).mean(axis=axes, keepdims=True)
    grads = (inv * (gx_hat - m1 - xhat * m2), (g * xhat).sum(axis=axes),
             g.sum(axis=axes))
    return xhat * gam + bet, grads, running


class TestBatchNormStatistics:
    """nn.BatchNorm computes its batch statistics once and hands them to
    the training form: the output, the VJPs and the running buffers are
    bitwise those of the formula that computes them in the primitive."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 8, 32, 32, 32), (8, 16, 8, 8, 8),
                                       (8, 64, 2, 2, 2), (256, 4, 32, 32)],
                             ids=["cnn3d_stem", "cnn3d_stage2",
                                  "cnn3d_stage4", "hybrid_stem"])
    def test_training_form_matches_reference(self, dtype, shape):
        rng = _rng(3)
        bn = nn.BatchNorm(shape[1])
        if dtype == np.float64:
            as_float64(bn)
        bn.gamma.data[...] = rng.normal(1.0, 0.2, shape[1])
        bn.beta.data[...] = rng.normal(0.0, 0.2, shape[1])
        running = (bn._buffers["running_mean"].copy(),
                   bn._buffers["running_var"].copy())
        for step in range(2):
            x = (rng.normal(0.3, 1.5, shape)).astype(dtype)
            g = rng.normal(size=shape).astype(dtype)
            out = bn(Tensor(x, requires_grad=True))
            want, grads, running = _reference_batch_norm(
                x, bn.gamma.data, bn.beta.data, running, nn.BN_MOMENTUM,
                NORM_EPS, g)
            assert out.data.dtype == dtype
            assert np.array_equal(out.data, want), step
            for got, ref in zip(out.node.vjp(g), grads):
                assert np.array_equal(got, ref), step
            assert np.array_equal(bn._buffers["running_mean"], running[0])
            assert np.array_equal(bn._buffers["running_var"], running[1])


class TestForwardContract:
    @pytest.mark.parametrize("name", ["cnn2d", "cnn3d", "vit2d", "vit3d",
                                      "swin2d", "swin3d", "hybrid_lstm",
                                      "hybrid_transformer"])
    def test_zero_head_predicts_half(self, name):
        cfg = desk_config(name)
        m = build_model(cfg, seed=11)
        head = m.head
        head.weight.data[...] = 0.0
        head.bias.data[...] = 0.0
        x = Tensor(_rng(0).normal(size=(2, 1) + cfg.input_shape)
                   .astype(np.float32))
        res = m.forward(x)
        assert np.allclose(res.pred.data, 0.5)

    def test_desk_cnn_stage_shapes_follow_strides(self):
        m = build_model(desk_config("cnn3d"), seed=0)
        x = Tensor(np.zeros((2, 1, 32, 32, 32), np.float32))
        res = m.forward(x)
        shapes = [s.data.shape for s in res.stages]
        assert shapes == [(2, 8, 16, 16, 16), (2, 16, 8, 8, 8),
                          (2, 32, 4, 4, 4), (2, 64, 2, 2, 2)]

    def test_desk_swin_stage_shapes(self):
        m = build_model(desk_config("swin3d"), seed=0)
        x = Tensor(np.zeros((1, 1, 32, 32, 32), np.float32))
        res = m.forward(x)
        shapes = [(s.name, s.data.shape) for s in res.stages]
        assert shapes == [("patch_embed", (1, 512, 12)),
                          ("stage1", (1, 512, 12)), ("stage2", (1, 64, 24)),
                          ("stage3", (1, 8, 48)), ("stage4", (1, 1, 96))]

    def test_input_shape_mismatch_raises(self):
        m = build_model(desk_config("cnn3d"), seed=0)
        with pytest.raises(ShapeError):
            m.forward(Tensor(np.zeros((1, 1, 16, 32, 32), np.float32)))

    def test_batched_window_records_refused_by_distances(self):
        # two inputs attend in twice the windows one input's centroids span
        m = build_model(desk_config("swin3d"), seed=0)
        x = Tensor(np.zeros((2, 1, 32, 32, 32), np.float32))
        res = m.forward(x)
        rec = res.attention[0]
        assert rec.attn.shape[0] == 2 * rec.centroids.shape[0] == 16
        with pytest.raises(DataError, match="centroid groups"):
            attention_distances(res.attention)

    def test_attention_rows_sum_to_one_everywhere(self):
        for name in ("vit3d", "swin3d", "hybrid_transformer"):
            cfg = desk_config(name)
            m = build_model(cfg, seed=2)
            x = Tensor(_rng(1).normal(size=(1, 1) + cfg.input_shape)
                       .astype(np.float32))
            res = m.forward(x)
            assert res.attention
            for rec in res.attention:
                assert np.all(rec.attn >= 0.0)
                assert np.allclose(rec.attn.sum(axis=-1), 1.0, atol=1e-5)

    def test_cls_centroids_are_nan(self):
        m = build_model(desk_config("vit3d"), seed=2)
        x = Tensor(np.zeros((1, 1, 32, 32, 32), np.float32))
        res = m.forward(x)
        rec = res.attention[0]
        assert np.all(np.isnan(rec.centroids[0, 0]))
        assert np.all(np.isfinite(rec.centroids[0, 1:]))

    def test_swin_centroids_are_patch_centers(self):
        m = build_model(desk_config("swin3d"), seed=2)
        x = Tensor(np.zeros((1, 1, 32, 32, 32), np.float32))
        res = m.forward(x)
        cents = res.attention[0].centroids
        # patch 4 along each axis: centers at 1.5, 5.5, ..., 29.5
        vals = np.unique(cents)
        assert vals.min() == 1.5 and vals.max() == 29.5
        assert np.allclose(np.diff(np.unique(vals)), 4.0)


class TestBuildDeterminism:
    def test_preset_hash_script_is_deterministic(self):
        """scripts/preset_hash.py prints one `name hash` line per desk
        preset and padded geometry, the same on every run."""
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        outs = [subprocess.run(
            [sys.executable, str(root / "scripts" / "preset_hash.py")],
            env=env, capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
        assert outs[0] == outs[1]
        lines = outs[0].splitlines()
        assert len(lines) == 10
        assert all(re.fullmatch(r"\w+ [0-9a-f]{16}", ln) for ln in lines)
        assert [ln.split()[0] for ln in lines[:8]] == PRESET_NAMES

    def test_same_seed_same_params(self):
        cfg = desk_config("swin2d")
        a = build_model(cfg, seed=5)
        b = build_model(cfg, seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        cfg = desk_config("vit2d")
        a = build_model(cfg, seed=1)
        b = build_model(cfg, seed=2)
        diffs = [not np.array_equal(pa.data, pb.data)
                 for (_, pa), (_, pb) in zip(a.named_parameters(),
                                             b.named_parameters())]
        assert any(diffs)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_state_is_float32_and_casts_to_float64(self, name):
        """Models are built float32, and as_float64 reaches every parameter
        and buffer, so a gradient check never runs in mixed precision."""
        model = build_model(desk_config(name), seed=0)
        dtypes = {a.dtype for a in model.state_arrays().values()}
        assert dtypes == {np.dtype(np.float32)}
        as_float64(model)
        dtypes = {a.dtype for a in model.state_arrays().values()}
        assert dtypes == {np.dtype(np.float64)}

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_config_json_roundtrip(self, scale, name):
        """The round trip train and analyze perform through
        resolved_config.json."""
        cfg = (desk_config if scale == "desk" else paper_config)(name)
        again = ModelConfig(**json.loads(json.dumps(asdict(cfg))))
        assert again == cfg

    def test_checkpoint_roundtrip_preserves_forward(self, tmp_path):
        cfg = desk_config("cnn2d")
        m = build_model(cfg, seed=3)
        x = Tensor(_rng(0).normal(size=(2, 1, 32, 32)).astype(np.float32))
        before = m.forward(x).pred.data.copy()
        path = tmp_path / "model.ckpt"
        m.save(str(path), epoch=4, val_mse=0.125)
        meta = load_checkpoint(path)
        assert meta["meta.epoch"] == 4 and meta["meta.val_mse"] == 0.125
        other = build_model(cfg, seed=99)
        other.load(str(path))
        after = other.forward(x).pred.data
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("dropped", ["backbone.blocks.0.bn1.beta",
                                         "backbone.stem_bn.running_var",
                                         "meta.epoch"])
    def test_checkpoint_missing_entry_raises(self, tmp_path, dropped):
        m = build_model(desk_config("cnn2d"), seed=3)
        path = tmp_path / "model.ckpt"
        m.save(str(path))
        arrays = load_checkpoint(path)
        del arrays[dropped]
        save_checkpoint(path, arrays)
        with pytest.raises(ShapeError, match=dropped):
            build_model(desk_config("cnn2d"), seed=4).load(str(path))

    def test_param_count_positive_and_stable(self):
        m = build_model(desk_config("vit2d"), seed=0)
        assert m.param_count() == build_model(desk_config("vit2d"),
                                              seed=1).param_count()
        assert m.param_count() > 1000


def _reachable_modules(module):
    """Every Module reachable from ``module`` through attributes and
    list or tuple attributes, found without Module.modules()."""
    found = {id(module): module}
    for value in vars(module).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            if isinstance(item, nn.Module):
                found.update(_reachable_modules(item))
    return found


def _resolve(root, prefix):
    """The object a dotted prefix such as ``blocks.0.`` names."""
    obj = root
    for part in prefix.split(".")[:-1]:
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


class TestModuleWalk:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_each_module_once_parents_first(self, name):
        model = build_model(desk_config(name), seed=0)
        walk = list(model.modules())
        order = {id(m): i for i, (_, m) in enumerate(walk)}
        assert len(order) == len(walk)
        assert order.keys() == _reachable_modules(model).keys()
        assert walk[0] == ("", model)
        for prefix, module in walk:
            assert _resolve(model, prefix) is module
            for child_name, child in module._children():
                assert order[id(child)] > order[id(module)]
                assert walk[order[id(child)]][0] == f"{prefix}{child_name}."

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_prefixes_are_the_parameter_name_prefixes(self, name):
        model = build_model(desk_config(name), seed=0)
        walk = list(model.modules())
        names = [n for n, _ in model.named_parameters()]
        owners = {n[:n.rfind(".") + 1] for n in names}
        assert owners <= {prefix for prefix, _ in walk}
        for prefix, module in walk:
            under = [n for n in names if n.startswith(prefix)]
            assert under, prefix
            assert under == [prefix + n for n, _ in module.named_parameters()]
        for n, p in model.named_parameters():
            owner = n[:n.rfind(".") + 1]
            assert getattr(_resolve(model, owner), n[len(owner):]) is p

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_set_training_reaches_every_module(self, name):
        model = build_model(desk_config(name), seed=0)
        modules = _reachable_modules(model).values()
        for flag in (False, True, False):
            assert model.set_training(flag) is model
            assert all(m.training is flag for m in modules)


class TestModelGradients:
    def test_backward_through_every_family(self):
        for name in ("cnn3d", "vit3d", "swin3d", "hybrid_lstm",
                     "hybrid_transformer"):
            cfg = desk_config(name)
            m = build_model(cfg, seed=4)
            x = Tensor(_rng(2).normal(size=(1, 1) + cfg.input_shape)
                       .astype(np.float32), requires_grad=True)
            res = m.forward(x)
            backward(tsum(res.pred))
            assert x.grad is not None
            assert np.isfinite(x.grad).all()
            assert np.abs(x.grad).max() > 0.0, name
