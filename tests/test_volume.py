"""Volume pipeline tests: geometry, normalization, phantoms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from volab.artifacts import ConfigError
from volab.labels import DataError
from volab.volume import (PhantomSpec, Volume, crop_or_pad,
                          default_phantom_gmm, extract_bscan,
                          generate_phantom, read_volume, resample_trilinear,
                          write_volume, zscore)

def grid_volume(shape, fn, spacing=(1.0, 1.0, 1.0)):
    idx = np.indices(shape, dtype=np.float64)
    phys = [idx[a] * spacing[a] for a in range(3)]
    return Volume(fn(*phys).astype(np.float32), spacing)


class TestResample:
    def test_identity_spacing_is_copy(self):
        rng = np.random.default_rng(0)
        v = Volume(rng.normal(size=(6, 7, 8)).astype(np.float32), (0.2, 0.3, 0.4))
        out = resample_trilinear(v, (0.2, 0.3, 0.4))
        assert out.shape == v.shape
        np.testing.assert_allclose(out.data, v.data, atol=1e-6)

    def test_constant_volume_stays_constant(self):
        v = Volume(np.full((5, 6, 7), 3.25, dtype=np.float32), (1.0, 1.0, 1.0))
        out = resample_trilinear(v, 0.4)
        np.testing.assert_allclose(out.data, 3.25, atol=1e-6)

    def test_trilinear_function_reproduced_exactly(self):
        # f(x,y,z) = x + 2y + 3z in physical coordinates survives resampling
        spacing = (0.8, 0.5, 1.2)
        v = grid_volume((9, 11, 7), lambda x, y, z: x + 2 * y + 3 * z, spacing)
        target = (0.37, 0.9, 0.61)
        out = resample_trilinear(v, target)
        idx = np.indices(out.shape, dtype=np.float64)
        # sampling clamps at the input border; clamp expected coords the same way
        phys = [np.minimum(idx[a] * target[a], (v.shape[a] - 1) * spacing[a])
                for a in range(3)]
        want = phys[0] + 2 * phys[1] + 3 * phys[2]
        np.testing.assert_allclose(out.data, want, atol=1e-4)

    def test_output_dims_follow_spacing_ratio(self):
        v = Volume(np.zeros((24, 1800, 1024), dtype=np.float32),
                   (1.5015, 16.0 / 1800.0, 7.0 / 1024.0))
        out = resample_trilinear(v, 0.143)
        assert out.shape == (252, 112, 49)
        assert out.spacing == (0.143, 0.143, 0.143)

    def test_bad_spacing_raises(self):
        v = Volume(np.zeros((4, 4, 4), dtype=np.float32), (1, 1, 1))
        with pytest.raises(DataError):
            resample_trilinear(v, -1.0)


class TestCropOrPad:
    def test_pad_49_to_80_offsets(self):
        v = Volume(np.ones((4, 4, 49), dtype=np.float32), (1, 1, 1))
        out = crop_or_pad(v, (4, 4, 80))
        assert out.shape == (4, 4, 80)
        assert (out.data[:, :, 15:64] == 1).all()
        assert (out.data[:, :, :15] == 0).all()
        assert (out.data[:, :, 64:] == 0).all()

    def test_center_crop_offset(self):
        data = np.arange(10, dtype=np.float32).reshape(1, 1, 10)
        v = Volume(np.broadcast_to(data, (3, 3, 10)).copy(), (1, 1, 1))
        out = crop_or_pad(v, (3, 3, 4))
        np.testing.assert_array_equal(out.data[0, 0], [3, 4, 5, 6])

    def test_crop_then_pad_mixed_axes(self):
        v = Volume(np.random.default_rng(1).normal(size=(252, 112, 49))
                   .astype(np.float32), (0.143,) * 3)
        out = crop_or_pad(v, (112, 112, 80))
        assert out.shape == (112, 112, 80)
        np.testing.assert_array_equal(out.data[:, :, 15:64], v.data[70:182])

    def test_round_trip_pad_then_crop(self):
        rng = np.random.default_rng(2)
        v = Volume(rng.normal(size=(5, 7, 9)).astype(np.float32), (1, 1, 1))
        out = crop_or_pad(crop_or_pad(v, (9, 11, 13)), (5, 7, 9))
        np.testing.assert_array_equal(out.data, v.data)

    @given(st.integers(1, 12), st.integers(1, 12))
    def test_shape_always_hits_target(self, a, b):
        v = Volume(np.ones((4, a, b), dtype=np.float32), (1, 1, 1))
        assert crop_or_pad(v, (4, 7, 5)).shape == (4, 7, 5)


class TestZscore:
    def test_moments_after_normalization(self):
        rng = np.random.default_rng(3)
        v = Volume((rng.normal(5.0, 2.5, size=(8, 8, 8))).astype(np.float32), (1, 1, 1))
        out = zscore(v)
        assert out.data.mean() == pytest.approx(0.0, abs=1e-5)
        assert out.data.std() == pytest.approx(1.0, abs=1e-5)

    def test_constant_volume_raises(self):
        v = Volume(np.full((4, 4, 4), 2.0, dtype=np.float32), (1, 1, 1))
        with pytest.raises(DataError):
            zscore(v)


class TestBscan:
    def test_native_size_is_pure_copy(self):
        rng = np.random.default_rng(4)
        v = Volume(rng.normal(size=(5, 16, 12)).astype(np.float32), (1, 1, 1))
        out = extract_bscan(v, 2, target_hw=(16, 12))
        np.testing.assert_array_equal(out, v.data[2])

    def test_resize_preserves_bilinear_ramp(self):
        v = grid_volume((3, 11, 21), lambda s, y, x: y + x)
        out = extract_bscan(v, 1, target_hw=(21, 41))
        ys = np.arange(21)[:, None] * (10 / 20)
        xs = np.arange(41)[None, :] * (20 / 40)
        np.testing.assert_allclose(out, ys + xs, atol=1e-5)

    def test_out_of_range_slice_raises(self):
        v = Volume(np.zeros((4, 4, 4), dtype=np.float32), (1, 1, 1))
        with pytest.raises(DataError):
            extract_bscan(v, 7)


class TestPaperShapePipeline:
    def test_resample_then_crop_hits_canonical_shape(self):
        rng = np.random.default_rng(12)
        for shape, spacing in [((24, 180, 100), (1.5, 16 / 180, 7 / 100)),
                               ((9, 64, 40), (4.0, 0.25, 0.18))]:
            v = Volume(rng.normal(size=shape).astype(np.float32), spacing)
            out = crop_or_pad(resample_trilinear(v, 0.143), (112, 112, 80))
            assert out.shape == (112, 112, 80)


class TestVolbFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        v = Volume(rng.normal(size=(5, 6, 7)).astype(np.float32), (0.25, 0.5, 0.125))
        path = tmp_path / "v.volb"
        write_volume(path, v)
        back = read_volume(path)
        np.testing.assert_array_equal(back.data, v.data)
        assert back.spacing == v.spacing

    def test_header_layout(self, tmp_path):
        v = Volume(np.zeros((2, 3, 4), dtype=np.float32), (1.0, 1.0, 1.0))
        path = tmp_path / "v.volb"
        write_volume(path, v)
        blob = path.read_bytes()
        assert blob[:4] == b"VOLB"
        assert blob[4] == 1
        dims = [int.from_bytes(blob[5 + 4 * i:9 + 4 * i], "little") for i in range(3)]
        assert dims == [2, 3, 4]
        assert len(blob) == 29 + 4 * 24

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "v.volb"
        v = Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))
        write_volume(path, v)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataError):
            read_volume(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "v.volb"
        path.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(DataError):
            read_volume(path)


class TestPhantom:
    def test_seed_determinism(self):
        spec = PhantomSpec()
        a, pa, xa = generate_phantom(spec, np.random.default_rng(100))
        b, pb, xb = generate_phantom(spec, np.random.default_rng(100))
        np.testing.assert_array_equal(a.data, b.data)
        assert pa == pb
        np.testing.assert_array_equal(xa, xb)

    def test_zero_amplitude_is_healthy(self):
        spec = PhantomSpec(anomaly_amplitude=0.0)
        _, p, x = generate_phantom(spec, np.random.default_rng(101))
        assert p < 0.1
        assert x[0] == pytest.approx(0.0, abs=1e-9)

    def test_high_amplitude_is_diseased(self):
        spec = PhantomSpec(anomaly_amplitude=1.0)
        _, p, _ = generate_phantom(spec, np.random.default_rng(102))
        assert p > 0.9

    def test_posterior_monotone_in_amplitude(self):
        ps = []
        for amp in np.linspace(0.0, 1.2, 13):
            spec = PhantomSpec(anomaly_amplitude=float(amp))
            _, p, _ = generate_phantom(spec, np.random.default_rng(103))
            ps.append(p)
        diffs = np.diff(ps)
        assert (diffs >= -1e-12).all()

    def test_sparsity_controls_support_fraction(self):
        spec = PhantomSpec(anomaly_amplitude=1.0, anomaly_sparsity=0.2,
                           noise_sigma=0.0)
        v, _, _ = generate_phantom(spec, np.random.default_rng(104))
        clean_bg, _, _ = generate_phantom(
            PhantomSpec(anomaly_amplitude=0.0, anomaly_sparsity=0.2,
                        noise_sigma=0.0), np.random.default_rng(104))
        support = np.abs(v.data - clean_bg.data) > 1e-7
        frac = support.mean()
        assert 0.15 <= frac <= 0.25

    def test_bad_sparsity_raises(self):
        with pytest.raises(ConfigError):
            PhantomSpec(anomaly_sparsity=0.0)

    @pytest.mark.parametrize("change", [
        {"noise_sigma": math.nan}, {"noise_sigma": math.inf},
        {"anomaly_amplitude": math.nan}, {"anomaly_amplitude": math.inf},
        {"anomaly_amplitude": -0.5}, {"anomaly_sparsity": math.nan},
        {"shape": (0, 32, 32)}, {"shape": (32, 32)}, {"shape": (32, 32.0, 32)},
        {"noise_sigma": True},
    ], ids=["nan_noise", "inf_noise", "nan_amplitude", "inf_amplitude",
            "negative_amplitude", "nan_sparsity", "zero_axis", "two_axes",
            "float_axis", "bool_noise"])
    def test_degenerate_spec_raises_config_error(self, change):
        with pytest.raises(ConfigError):
            PhantomSpec(**change)

    def test_default_gmm_valid(self):
        m = default_phantom_gmm()
        assert m.dim == 2
