"""Receptive fields, attention distances, CKA, and dump-file tests."""

import contextlib

import numpy as np
import pytest

from volab import analysis

from volab.analysis import (
    attention_distance_stats,
    attention_distances,
    cka_matrix,
    cka_pair,
    conv_extent,
    distance_stats,
    erf_map,
    read_activation_dump,
    theoretical_extents,
    theoretical_rf,
    write_activation_dump,
)
from volab.labels import DataError
from volab.models import (
    AttentionRecord,
    ForwardResult,
    ModelConfig,
    build_model,
    desk_config,
)
from volab.tensor import NumericError, ShapeError, Tensor, backward, mean, \
    mul, tsum

from oracles import (
    as_float64,
    attention_distances_loop,
    cka_direct,
    swin_reachable_extent,
    topk_attention_distances,
)


class _LinearStub:
    """y = sum(w * V); gradient w.r.t. the input is exactly |w|."""

    frozen = contextlib.nullcontext  # no parameters to freeze

    def __init__(self, w):
        self.w = np.asarray(w, dtype=np.float64)
        self.config = ModelConfig(family="cnn", input_dims=3,
                                  input_shape=self.w.shape)

    def forward(self, x, **kwargs):
        return ForwardResult(pred=tsum(mul(x, Tensor(self.w[None, None]))))


class _MeanStub:
    config = desk_config("cnn3d")
    frozen = contextlib.nullcontext

    def forward(self, x, **kwargs):
        return ForwardResult(pred=mean(x))


class TestErfMap:
    def test_uniform_gradient_covers_volume_with_unit_ratio(self):
        x = np.random.default_rng(0).normal(size=(1, 32, 32, 32))
        [erf] = erf_map(_MeanStub(), x)
        assert erf.mask.all()
        assert erf.erf_size == 32 ** 3
        assert np.allclose(erf.normalized, 1.0)
        assert erf.erf_radius == pytest.approx(
            np.linalg.norm([15.5, 15.5, 15.5]), abs=1e-9)
        assert erf.et_ratio == pytest.approx(1.0, abs=1e-12)

    def test_threshold_is_strict_and_relative(self):
        w = np.full((6, 6, 6), 0.001)
        w[3, 3, 3] = 1.0
        [erf] = erf_map(_LinearStub(w), np.zeros((1, 6, 6, 6)))
        assert erf.erf_size == 1 and erf.mask[3, 3, 3]
        assert erf.erf_radius == 0.0
        # weights exactly at the threshold stay excluded (strict >)
        w2 = np.full((6, 6, 6), 0.01)
        w2[3, 3, 3] = 1.0
        assert erf_map(_LinearStub(w2),
                       np.zeros((1, 6, 6, 6)))[0].erf_size == 1

    def test_mask_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(size=(5, 5, 5))
        x = np.zeros((1, 5, 5, 5))
        stub = _LinearStub(w)
        m_loose = erf_map(stub, x, threshold=0.01)[0].mask
        m_mid = erf_map(stub, x, threshold=0.05)[0].mask
        m_tight = erf_map(stub, x, threshold=0.2)[0].mask
        assert (m_mid <= m_loose).all() and (m_tight <= m_mid).all()

    def test_translation_equivariance(self):
        w = np.zeros((8, 8, 8))
        blob = np.array([1.0, 0.7, 0.4])
        w[1, 1, 1:4] = blob
        shifted = np.zeros((8, 8, 8))
        shifted[4, 3, 2:5] = blob
        x = np.zeros((1, 8, 8, 8))
        [a] = erf_map(_LinearStub(w), x)
        [b] = erf_map(_LinearStub(shifted), x)
        assert a.erf_radius == pytest.approx(b.erf_radius, abs=1e-12)
        assert np.array_equal(np.roll(a.mask, (3, 2, 1), axis=(0, 1, 2)),
                              b.mask)

    def test_matches_finite_differences_on_small_cnn(self):
        cfg = ModelConfig(family="cnn", input_dims=3, input_shape=(8, 8, 8),
                          stem_channels=2, stage_channels=(2, 4),
                          stage_strides=(1, 2))
        model = as_float64(build_model(cfg, seed=3))
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 8, 8, 8))
        grad = erf_map(model, x, ["output"])[0].gradient

        def f(arr):
            return float(model.forward(Tensor(arr[None])).pred.data[0])

        eps = 1e-5
        for v in [(0, 0, 0), (4, 4, 4), (7, 7, 7), (2, 5, 3), (6, 1, 4)]:
            hi, lo = x.copy(), x.copy()
            hi[(0,) + v] += eps
            lo[(0,) + v] -= eps
            fd = abs((f(hi) - f(lo)) / (2 * eps))
            err = abs(grad[v] - fd) / max(grad[v], fd, 1e-12)
            assert err < 1e-3, (v, grad[v], fd)

    @pytest.mark.parametrize("name,tap", [("cnn3d", "stage2"),
                                          ("swin3d", "stage1")])
    def test_parameters_frozen_for_the_call(self, name, tap):
        cfg = desk_config(name)
        model = build_model(cfg, seed=9)
        x = np.random.default_rng(10).normal(
            size=(1,) + cfg.input_shape).astype(np.float32)
        count = model.param_count()
        got = erf_map(model, x, [tap])[0].gradient
        assert model.param_count() == count > 0
        params = [p for _, p in model.named_parameters()]
        assert all(p.grad is None and p.requires_grad for p in params)
        # the same map from a call that also computes every weight gradient
        xt = Tensor(x[None], requires_grad=True)
        backward(analysis._tap_scalar(model.forward(xt),
                                      cfg.input_shape, tap))
        assert any(p.grad is not None for p in params)
        want = np.abs(np.asarray(xt.grad, dtype=np.float64))[0].sum(axis=0)
        assert np.array_equal(got, want)

    def test_parameters_thawed_after_a_failed_call(self):
        model = build_model(desk_config("cnn3d"), seed=0)
        count = model.param_count()
        with pytest.raises(ShapeError):
            erf_map(model, np.random.default_rng(1).normal(
                size=(1, 32, 32, 32)).astype(np.float32), ["stage1", "stage9"])
        assert model.param_count() == count > 0
        assert all(p.requires_grad for _, p in model.named_parameters())

    @pytest.mark.parametrize("name", ["cnn3d", "swin3d"])
    def test_one_call_over_all_taps_equals_single_tap_calls(self, name):
        cfg = desk_config(name)
        model = build_model(cfg, seed=11)
        x = np.random.default_rng(12).normal(
            size=(1,) + cfg.input_shape).astype(np.float32)
        taps = model.stage_names() + ["output"]
        maps = erf_map(model, x, taps, threshold=0.05)
        assert len(maps) == len(taps)
        for tap, got in zip(taps, maps):
            [want] = erf_map(model, x, [tap], threshold=0.05)
            for field in ("gradient", "normalized", "mask"):
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field)), (tap, field)
            assert (got.erf_size, got.erf_radius, got.et_ratio) == \
                (want.erf_size, want.erf_radius, want.et_ratio), tap

    def test_zero_model_rejected(self):
        stub = _LinearStub(np.zeros((4, 4, 4)))
        with pytest.raises(NumericError):
            erf_map(stub, np.zeros((1, 4, 4, 4)))

    def test_unknown_tap_rejected(self):
        model = build_model(desk_config("cnn3d"), seed=0)
        with pytest.raises(ShapeError):
            erf_map(model, np.zeros((1, 32, 32, 32), np.float32), ["stage9"])

    @pytest.mark.parametrize("name,tap", [
        ("cnn3d", "stage1"), ("cnn3d", "stage3"),
        ("swin3d", "stage1"), ("swin3d", "stage2"),
        ("vit3d", "block1"),
        ("hybrid_lstm", "encoder"), ("hybrid_lstm", "aggregator"),
        ("hybrid_transformer", "aggregator"),
    ])
    def test_gradient_support_inside_theoretical_box(self, name, tap):
        cfg = desk_config(name)
        model = as_float64(build_model(cfg, seed=5))
        if name == "hybrid_transformer":
            # the aggregator tap sums agg_norm's CLS row; with the init
            # gamma (all ones, beta zero) that sum is constant, so its
            # gradient is zero up to rounding
            gamma = model.agg_norm.gamma.data
            gamma[...] = np.random.default_rng(7).uniform(0.5, 1.5,
                                                          gamma.shape)
        x = np.random.default_rng(6).normal(size=(1,) + cfg.input_shape)
        grad = erf_map(model, x, [tap])[0].gradient
        pos = np.argwhere(grad > 0)
        support = pos.max(axis=0) - pos.min(axis=0) + 1
        assert (support <= theoretical_extents(cfg, tap)).all(), (
            support, theoretical_extents(cfg, tap))

    def test_patch_embed_support_is_exactly_one_patch(self):
        cfg = desk_config("swin3d")
        model = as_float64(build_model(cfg, seed=7))
        x = np.random.default_rng(8).normal(size=(1,) + cfg.input_shape)
        grad = erf_map(model, x, ["patch_embed"])[0].gradient
        pos = np.argwhere(grad > 0)
        support = pos.max(axis=0) - pos.min(axis=0) + 1
        assert np.array_equal(support, theoretical_extents(cfg,
                                                           "patch_embed"))


class TestTheoreticalRf:
    def test_single_conv_base_case(self):
        assert conv_extent([(3, 1)]) == 3  # half-extent radius 1 per axis
        assert (conv_extent([(3, 1)]) - 1) // 2 == 1

    def test_stacked_convs_compose(self):
        assert conv_extent([(3, 1), (3, 1)]) == 5
        # a stride doubles the jump of every later kernel
        assert conv_extent([(3, 1), (2, 2), (3, 1)]) == 8

    def test_cnn_stage_extents(self):
        cfg = desk_config("cnn3d")
        assert list(theoretical_extents(cfg, "stage1")) == [12, 12, 12]
        assert list(theoretical_extents(cfg, "stage2")) == [24, 24, 24]
        # stages 3-4 exceed the input and clip to it
        assert list(theoretical_extents(cfg, "stage3")) == [32, 32, 32]
        assert list(theoretical_extents(cfg, "stage4")) == [32, 32, 32]
        assert theoretical_rf(cfg, "stage1") == pytest.approx(
            np.linalg.norm([5.5] * 3))

    def test_vit_full_span_from_first_block(self):
        cfg = desk_config("vit3d")
        for tap in ("block1", "block2", "output"):
            assert list(theoretical_extents(cfg, tap)) == [32, 32, 32]

    def test_vit_first_block_not_smaller_than_cnn_last(self):
        assert (theoretical_rf(desk_config("vit3d"), "block1")
                >= theoretical_rf(desk_config("cnn3d"), "stage4"))

    def test_hybrid_stages(self):
        cfg = desk_config("hybrid_lstm")
        assert list(theoretical_extents(cfg, "encoder")) == [1, 32, 32]
        assert list(theoretical_extents(cfg, "aggregator")) == [32, 32, 32]

    def test_desk_swin_matches_reachability_oracle(self):
        cfg = desk_config("swin3d")
        for stage in range(1, 5):
            got = theoretical_extents(cfg, f"stage{stage}")
            for axis in range(3):
                want, contiguous = swin_reachable_extent(
                    cfg.input_shape[axis], cfg.patch_size[axis],
                    cfg.window_size[axis], cfg.window_size[axis] // 2,
                    cfg.stage_depths, stage)
                assert contiguous
                assert got[axis] == want, (stage, axis)

    @pytest.mark.parametrize("n,patch,window,depths", [
        (64, 2, 4, (2, 2, 2)),
        (64, 1, 4, (2, 2, 2, 2)),
        (96, 2, 4, (2, 2, 6, 2)),
        (60, 2, 3, (2, 2, 2)),
        (80, 4, 4, (1, 3, 2)),
        (112, 4, 4, (2, 2, 6, 2)),
        (20, 2, 4, (2, 2, 2)),   # odd merged grids exercise the ceil path
    ])
    def test_synthetic_swin_geometries_match_oracle(self, n, patch, window,
                                                    depths):
        cfg = ModelConfig(family="swin", input_dims=2, input_shape=(n, n),
                          patch_size=(patch,) * 2, embed_dim=4, n_heads=2,
                          window_size=(window,) * 2, stage_depths=depths,
                          pad_policy="pad")
        for stage in range(1, len(depths) + 1):
            got = theoretical_extents(cfg, f"stage{stage}")
            want, contiguous = swin_reachable_extent(
                n, patch, window, window // 2, depths, stage)
            assert contiguous
            assert got[0] == got[1] == want, stage

    def test_swin_patch_embed_extent(self):
        cfg = desk_config("swin3d")
        assert list(theoretical_extents(cfg, "patch_embed")) == [4, 4, 4]

    def test_output_tap_spans_input(self):
        for name in ("cnn3d", "vit2d", "swin2d", "hybrid_transformer"):
            cfg = desk_config(name)
            assert list(theoretical_extents(cfg, "output")) == \
                list(cfg.input_shape)

    def test_unknown_stage_rejected(self):
        with pytest.raises(ShapeError):
            theoretical_rf(desk_config("cnn3d"), "stage5")
        with pytest.raises(ShapeError):
            theoretical_rf(desk_config("vit3d"), "encoder")


def _record(attn, cents, layer="L"):
    return AttentionRecord(layer=layer, attn=np.asarray(attn, np.float64),
                           centroids=np.asarray(cents, np.float64))


_ORDER_CASES = ("tied_weights", "zero_weights", "nan_class_rows",
                "k_above_length", "per_group_centroids")


class TestAttentionDistances:
    def test_two_tokens_three_voxels_apart(self):
        rec = _record([[[[0.0, 1.0], [1.0, 0.0]]]], [[0.0], [3.0]])
        d = attention_distances([rec])
        assert np.allclose(d, [3.0, 3.0])

    def test_single_token_yields_nothing(self):
        rec = _record([[[[1.0]]]], [[2.0]])
        assert attention_distances([rec]).size == 0

    def test_identity_attention(self):
        eye = np.eye(3)[None, None]
        rec = _record(eye, [[0.0], [1.0], [2.0]])
        assert attention_distances([rec]).size == 0

    def test_cls_rows_excluded(self):
        attn = np.full((1, 1, 3, 3), 1 / 3)
        cents = [[np.nan, np.nan], [0.0, 0.0], [0.0, 4.0]]
        d = attention_distances([_record(attn, cents)])
        # queries: the two spatial tokens; targets exclude CLS and self
        assert sorted(d) == [4.0, 4.0]

    def test_zero_weight_targets_never_selected(self):
        attn = np.array([[[[0.0, 0.6, 0.4, 0.0],
                           [0.5, 0.0, 0.5, 0.0],
                           [1.0, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0, 0.0]]]])
        cents = [[0.0], [1.0], [2.0], [10.0]]
        d = attention_distances([_record(attn, cents)], k=5)
        assert 10.0 not in np.round(d, 6)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(12):
            L = int(rng.integers(3, 8))
            attn = rng.uniform(size=(2, 2, L, L))
            attn[rng.uniform(size=attn.shape) < 0.3] = 0.0
            attn /= np.maximum(attn.sum(-1, keepdims=True), 1e-9)
            cents = rng.uniform(0, 30, size=(L, 3))
            if trial % 2:
                cents[0] = np.nan
            k = int(rng.integers(1, 6))
            mine = attention_distances([_record(attn, cents)], k=k)
            want = []
            for g in range(2):
                for h in range(2):
                    want.extend(topk_attention_distances(attn[g, h], cents,
                                                         k=k))
            assert np.allclose(np.sort(mine), np.sort(want), atol=1e-12)

    @pytest.mark.parametrize("case", _ORDER_CASES)
    def test_matches_per_query_loop_in_order(self, case):
        rng = np.random.default_rng(_ORDER_CASES.index(case))
        records = []
        for r in range(3):
            groups, L = 3, int(rng.integers(4, 9))
            if case == "tied_weights":
                attn = rng.choice([0.125, 0.25, 0.5], size=(groups, 2, L, L))
            else:
                attn = rng.uniform(size=(groups, 2, L, L))
            if case in ("zero_weights", "nan_class_rows",
                        "per_group_centroids"):
                attn[rng.uniform(size=attn.shape) < 0.3] = 0.0
            shape = (groups, L, 3) if case == "per_group_centroids" else (L, 3)
            cents = rng.uniform(0, 30, size=shape)
            if case in ("nan_class_rows", "per_group_centroids"):
                cents[..., r % L, :] = np.nan
            if case == "per_group_centroids":  # a different CLS row per group
                for g in range(groups):
                    cents[g, (r + g + 1) % L] = np.nan
            records.append(_record(attn, cents, layer=f"L{r}"))
        k = {"k_above_length": 12, "tied_weights": 3}.get(case, 2)
        mine = attention_distances(records, k=k)
        want = attention_distances_loop(records, k=k)
        assert want.size > 0
        assert np.array_equal(mine, want)

    def test_real_vit_records(self):
        cfg = desk_config("vit3d")
        model = build_model(cfg, seed=10)
        x = np.random.default_rng(11).normal(
            size=(1, 1) + cfg.input_shape).astype(np.float32)
        res = model.forward(Tensor(x))
        d = attention_distances(res.attention)
        assert d.size > 0 and np.isfinite(d).all()
        assert d.max() <= np.linalg.norm([31, 31, 31]) + 1e-9

    def test_stats_hand_case(self):
        s = distance_stats([1.0, 25.0, 3.0])
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(29 / 3)
        assert s["median"] == 3.0
        assert s["pct_gt20"] == pytest.approx(1 / 3)
        assert s["max"] == 25.0
        assert s["sd"] == pytest.approx(np.std([1.0, 25.0, 3.0]))

    def test_stats_reject_empty(self):
        with pytest.raises(DataError):
            distance_stats([])

    def test_binned_by_true_label(self):
        rec_a = _record([[[[0.0, 1.0], [1.0, 0.0]]]], [[0.0], [3.0]])
        rec_b = _record([[[[0.0, 1.0], [1.0, 0.0]]]], [[0.0], [30.0]])
        stats = attention_distance_stats([(0.1, [rec_a]), (0.9, [rec_b])])
        assert set(stats) == {"healthy", "keratoconus"}
        assert stats["healthy"]["mean"] == pytest.approx(3.0)
        assert stats["keratoconus"]["pct_gt20"] == 1.0

    def test_missing_centroids_rejected(self):
        rec = AttentionRecord(layer="L", attn=np.ones((1, 1, 2, 2)) / 2,
                              centroids=None)
        with pytest.raises(DataError):
            attention_distances([rec])


class TestCka:
    def test_self_similarity_is_one(self):
        x = np.random.default_rng(12).normal(size=(20, 7))
        assert cka_pair(x, x) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_and_scale_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(24, 6))
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        assert cka_pair(x, x @ q) == pytest.approx(1.0, abs=1e-9)
        assert cka_pair(x, -2.5 * x) == pytest.approx(1.0, abs=1e-10)

    def test_centering_applied(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(18, 5))
        y = rng.normal(size=(18, 4))
        shifted = y + rng.normal(size=(1, 4)) * 10
        assert cka_pair(x, shifted) == pytest.approx(cka_pair(x, y),
                                                     abs=1e-9)

    def test_gram_form_equals_direct_form(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(10, 30))  # D > N: gram path
        y = rng.normal(size=(10, 44))
        assert cka_pair(x, y) == pytest.approx(cka_direct(x, y), abs=1e-10)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            x = rng.normal(size=(n, int(rng.integers(2, 20))))
            y = rng.normal(size=(n, int(rng.integers(2, 20))))
            v = cka_pair(x, y)
            assert -1e-12 <= v <= 1.0 + 1e-12

    def test_independent_null_below_monte_carlo_threshold(self):
        """Independent activations score below the null's 99th percentile
        and far below genuinely shared structure. (The null concentrates
        near D/N, about 0.21 at N=200, D=50.)"""
        rng = np.random.default_rng(17)
        null = np.array([cka_pair(rng.normal(size=(200, 50)),
                                  rng.normal(size=(200, 50)))
                         for _ in range(60)])
        threshold = np.percentile(null, 99)
        probe = np.random.default_rng(999)
        fresh = cka_pair(probe.normal(size=(200, 50)),
                         probe.normal(size=(200, 50)))
        assert fresh < threshold
        x = probe.normal(size=(200, 50))
        related = x + 0.5 * probe.normal(size=(200, 50))
        assert cka_pair(x, related) > 2 * threshold

    def test_errors(self):
        with pytest.raises(DataError):
            cka_pair(np.zeros((4, 3)), np.zeros((5, 3)))
        with pytest.raises(DataError):
            cka_pair(np.ones((4, 3)), np.ones((4, 3)))  # zero after center
        with pytest.raises(DataError):
            cka_pair(np.ones((1, 3)), np.ones((1, 3)))

    def test_matrix_fold_averaging(self):
        rng = np.random.default_rng(20)
        folds = []
        for _ in range(2):
            folds.append({name: rng.normal(size=(12, 6))
                          for name in ("a", "b", "c")})
        ids, avg = cka_matrix(folds)
        assert ids == ["a", "b", "c"]
        per_fold = []
        for fold in folds:
            m = np.array([[cka_pair(fold[i], fold[j]) for j in ids]
                          for i in ids])
            per_fold.append(m)
        assert np.allclose(avg, np.mean(per_fold, axis=0), atol=1e-12)
        assert np.allclose(avg, avg.T)
        assert np.allclose(np.diag(avg), 1.0, atol=1e-6)

    def test_matrix_id_mismatch_rejected(self):
        x = np.random.default_rng(21).normal(size=(8, 3))
        with pytest.raises(DataError):
            cka_matrix([{"a": x}, {"b": x}])


class TestActivationDump:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(22)
        layers = {"stage1": rng.normal(size=(6, 9)).astype(np.float32),
                  "stage2": rng.normal(size=(6, 4)).astype(np.float32)}
        path = tmp_path / "dump.admp"
        write_activation_dump(path, "cnn3d", layers)
        model_id, back = read_activation_dump(path)
        assert model_id == "cnn3d"
        assert list(back) == ["stage1", "stage2"]
        for k in layers:
            assert np.array_equal(back[k], layers[k])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.admp"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(DataError):
            read_activation_dump(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "dump.admp"
        write_activation_dump(path, "m", {"x": np.zeros((3, 3),
                                                        np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(DataError):
            read_activation_dump(path)

    def test_nonfinite_write_rejected(self, tmp_path):
        arr = np.full((2, 2), np.nan, np.float32)
        with pytest.raises(DataError):
            write_activation_dump(tmp_path / "x.admp", "m", {"x": arr})

    def test_float32_overflow_write_rejected(self, tmp_path):
        # finite in float64, inf once cast to the float32 the file holds
        path = tmp_path / "x.admp"
        with pytest.raises(DataError):
            write_activation_dump(path, "m", {"x": np.full((2, 2), 1e39)})
        assert not path.exists()

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "dump.admp"
        write_activation_dump(path, "m", {"x": np.zeros((2, 2),
                                                        np.float32)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(DataError):
            read_activation_dump(path)
