"""Optimizer, schedule, early-stopping, accumulation, and CV tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import volab.tensor as T
from oracles import grad_check
from volab.labels import CohortRecord, stratified_patient_split
from volab.models import build_model, desk_config
from volab.tensor import NumericError, Tensor, backward
from volab.training import (
    AdamW,
    EarlyStopper,
    TrainConfig,
    cosine_lr,
    cross_validate,
    _sse,
    make_input,
    predict,
    train_fold,
    Sample,
)
from volab.volume import PhantomSpec, generate_phantom


class TestMseLoss:
    """The squared-error loss ``train_fold`` minimizes; it is summed, and
    the fold divides it by the accumulation group's sample count."""

    def test_equal_is_zero(self):
        v = Tensor(np.array([0.2, 0.7, 0.9], np.float64))
        assert float(_sse(v, Tensor(v.data)).data) == 0.0

    def test_unit_error(self):
        loss = _sse(Tensor(np.array([0.0, 1.0])), Tensor(np.array([1.0, 0.0])))
        assert float(loss.data) == 2.0

    def test_gradient_matches_finite_differences(self):
        target = Tensor(np.array([0.1, 0.6, 0.3, 0.9]))
        err = grad_check(lambda p: _sse(p, target),
                         [Tensor(np.array([0.5, 0.5, 0.5, 0.5]),
                                 requires_grad=True)])
        assert err < 1e-7

    def test_gradient_closed_form(self):
        pred = Tensor(np.array([0.4, 0.9]), requires_grad=True)
        target = np.array([0.0, 1.0])
        backward(_sse(pred, Tensor(target)))
        assert np.allclose(pred.grad, 2 * (pred.data - target))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            _sse(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_empty(self):
        with pytest.raises(ValueError):
            _sse(Tensor(np.zeros(0)), Tensor(np.zeros(0)))


class TestAdamW:
    def test_zero_grad_zero_decay_keeps_params(self):
        p = Tensor(np.array([1.0, -2.0], np.float32), requires_grad=True)
        p.grad = np.zeros(2, np.float32)
        opt = AdamW([("p", p)], weight_decay=0.0)
        opt.step(0.1)
        assert np.allclose(p.data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = AdamW([("p", p)], weight_decay=0.0, eps=1e-12)
        opt.step(0.1)
        # m_hat/sqrt(v_hat) = 1 on the first step
        assert abs(p.data[0] - 0.9) < 1e-9

    def test_decay_is_decoupled(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([0.0])
        opt = AdamW([("p", p)], weight_decay=0.5)
        opt.step(0.1)
        # zero gradient: only the decay shrink acts
        assert abs(p.data[0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-12

    def test_identical_params_update_identically(self):
        a = Tensor(np.array([0.7, -0.3]), requires_grad=True)
        b = Tensor(np.array([0.7, -0.3]), requires_grad=True)
        a.grad = np.array([0.2, -0.1])
        b.grad = np.array([0.2, -0.1])
        opt = AdamW([("a", a), ("b", b)], weight_decay=0.01)
        for _ in range(3):
            opt.step(0.05)
        assert np.array_equal(a.data, b.data)

    def test_nonfinite_gradient_raises(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = AdamW([("p", p)])
        with pytest.raises(NumericError):
            opt.step(0.1)

    @pytest.mark.parametrize("preset", ["vit2d", "swin2d", "swin3d",
                                        "hybrid_transformer"])
    def test_accumulated_grads_and_moments_stay_float32(self, preset):
        """Two backward passes before a step, as gradient accumulation
        runs them: a float64 VJP (gelu's) must not turn a float32 leaf's
        gradient, or the AdamW moments built from it, into float64."""
        cfg = desk_config(preset)
        model = build_model(cfg, seed=0)
        opt = AdamW(model.named_parameters(), weight_decay=0.01)
        rng = np.random.default_rng(1)
        for _ in range(2):
            x = rng.normal(size=(1, 1) + cfg.input_shape).astype(np.float32)
            res = model.forward(Tensor(x), training=True, rng=rng)
            backward(_sse(res.pred, Tensor(np.array([0.5], np.float32))))
        opt.step(1e-3)
        for (name, p), m, v in zip(opt.named_params, opt.m, opt.v):
            assert p.grad.dtype == np.float32, name
            assert m.dtype == np.float32 and v.dtype == np.float32, name


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 10, 1e-3, 1e-5) == pytest.approx(1e-3)
        assert cosine_lr(10, 10, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert cosine_lr(5, 10, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5)
                                                             / 2)

    def test_monotone_decay(self):
        vals = [cosine_lr(s, 20, 1.0, 0.0) for s in range(21)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_zero_total_raises(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 1e-3, 1e-5)


class TestEarlyStopper:
    def test_quoted_trace_stops_after_epoch_four(self):
        stopper = EarlyStopper(min_delta=0.001, patience=3)
        trace = [0.50, 0.4995, 0.4991, 0.4989]
        fired = [stopper.update(v) for v in trace]
        assert fired == [False, False, False, True]

    def test_strict_improvement_never_stops(self):
        stopper = EarlyStopper(min_delta=0.001, patience=3)
        assert not any(stopper.update(1.0 - 0.01 * i) for i in range(50))

    def test_reset_after_real_improvement(self):
        stopper = EarlyStopper(min_delta=0.001, patience=2)
        assert not stopper.update(0.5)
        assert not stopper.update(0.4999)   # stale 1
        assert not stopper.update(0.4)      # big improvement, reset
        assert not stopper.update(0.3999)   # stale 1
        assert stopper.update(0.3998)       # stale 2 -> fire

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
           st.integers(1, 5))
    @settings(max_examples=50)
    def test_never_fires_before_patience_plus_one(self, vals, patience):
        stopper = EarlyStopper(min_delta=1e-3, patience=patience)
        for i, v in enumerate(vals):
            if stopper.update(v):
                assert i + 1 >= patience + 1
                break


def _toy_samples(n, dim, seed, sep=True):
    """Linearly separable toy set on ViT-sized 2-D inputs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        y = float(i % 2)
        x = rng.normal(0.0, 0.05, size=(1,) + dim).astype(np.float32)
        if sep:
            x += np.float32(2.0 * y - 1.0)
        out.append(Sample(f"P{i:03d}", "OD", x, y))
    return out


class TestTrainFold:
    def test_constant_weights_stop_after_patience(self):
        model = build_model(desk_config("vit2d"), seed=0)
        samples = _toy_samples(8, (32, 32), seed=1)
        cfg = TrainConfig(lr_max=0.0, lr_min=0.0, weight_decay=0.0,
                          physical_batch=4, accumulation_steps=1,
                          max_epochs=50, patience=3, seed=0)
        res = train_fold(model, samples, samples, cfg)
        # frozen weights: epoch 1 sets the best, then 3 stale epochs
        assert len(res.history) == 4
        assert res.best_epoch == 1

    def test_checkpoint_is_argmin_of_history(self):
        model = build_model(desk_config("vit2d"), seed=2)
        samples = _toy_samples(12, (32, 32), seed=3)
        cfg = TrainConfig(lr_max=3e-3, lr_min=1e-4, weight_decay=0.0,
                          physical_batch=4, accumulation_steps=1,
                          max_epochs=5, patience=5, seed=1)
        res = train_fold(model, samples, samples[:6], cfg)
        vals = [row[2] for row in res.history]
        assert res.best_epoch == int(np.argmin(vals)) + 1
        assert res.best_val_mse == pytest.approx(min(vals))
        # restored weights reproduce the best validation MSE
        preds = predict(model, samples[:6])
        got = float(np.mean((preds - np.array([s.y for s in
                                               samples[:6]])) ** 2))
        assert got == pytest.approx(res.best_val_mse, abs=1e-6)

    def test_history_schema(self):
        model = build_model(desk_config("vit2d"), seed=4)
        samples = _toy_samples(6, (32, 32), seed=5)
        cfg = TrainConfig(max_epochs=2, patience=5, physical_batch=3,
                          accumulation_steps=1, seed=0)
        res = train_fold(model, samples, samples, cfg)
        assert len(res.history) == 2
        for i, (epoch, train, val, lr) in enumerate(res.history):
            assert epoch == i + 1
            assert math.isfinite(train) and math.isfinite(val)
        assert res.history[0][3] == pytest.approx(cfg.lr_max)

    def test_nan_parameter_aborts_with_context(self):
        model = build_model(desk_config("vit2d"), seed=6)
        model.head.weight.data[0] = np.nan
        samples = _toy_samples(4, (32, 32), seed=7)
        cfg = TrainConfig(max_epochs=1, physical_batch=4,
                          accumulation_steps=1)
        with pytest.raises(NumericError, match="epoch 1"):
            train_fold(model, samples, samples, cfg)

    def test_empty_sets_rejected(self):
        model = build_model(desk_config("vit2d"), seed=0)
        with pytest.raises(ValueError):
            train_fold(model, [], [], TrainConfig())


class TestPredict:
    @pytest.mark.parametrize("preset,dim", [("cnn3d", (32, 32, 32)),
                                            ("vit2d", (32, 32))],
                             ids=["cnn3d", "vit2d"])
    def test_eval_forward_records_no_node(self, monkeypatch, preset, dim):
        made = []

        class Counting(T.Node):
            def __init__(self, *args):
                made.append(args[0])
                super().__init__(*args)

        model = build_model(desk_config(preset), seed=0)
        samples = _toy_samples(3, dim, seed=1)
        monkeypatch.setattr(T, "Node", Counting)
        preds = predict(model, samples, batch=3)
        assert made == []
        params = model.named_parameters()
        assert len(params) > 0 and all(p.requires_grad for _, p in params)
        # the tape-free forward computes what a taped one does
        x = np.stack([s.x for s in samples])
        taped = model.forward(Tensor(x)).pred.data
        assert made and np.array_equal(preds, taped)


class TestAccumulationEquivalence:
    def test_micro_batches_match_single_batch(self):
        """Two micro-batches of 4 with summed SSE / effective-N scaling give
        the same update as one batch of 8 (LayerNorm model: no batch
        statistics)."""
        samples = _toy_samples(8, (32, 32), seed=11)
        updated = []
        for phys, acc in ((4, 2), (8, 1)):
            model = build_model(desk_config("vit2d"), seed=12)
            cfg = TrainConfig(lr_max=1e-3, lr_min=1e-3, weight_decay=0.01,
                              physical_batch=phys, accumulation_steps=acc,
                              max_epochs=1, seed=13)
            train_fold(model, samples, samples, cfg)
            updated.append({k: v.copy()
                            for k, v in model.state_arrays().items()})
        a, b = updated
        assert a.keys() == b.keys()
        for k in a:
            assert np.allclose(a[k], b[k], atol=1e-5), k


class TestCrossValidation:
    def _records_and_samples(self, n_patients, seed):
        rng = np.random.default_rng(seed)
        records, samples = [], []
        for i in range(n_patients):
            p = rng.uniform(0.02, 0.98)
            for eye in ("OD", "OS"):
                records.append(CohortRecord(patient_id=f"P{i:03d}",
                                            eye_id=eye,
                                            volume_path=f"v{i}_{eye}.volb",
                                            p_kc=p))
                x = rng.normal(0, 0.05, size=(1, 32, 32)).astype(np.float32)
                x += np.float32(p)
                samples.append(Sample(f"P{i:03d}", eye, x, float(p)))
        return records, samples

    def _cfg(self):
        return TrainConfig(lr_max=2e-3, lr_min=1e-4, physical_batch=8,
                           accumulation_steps=1, max_epochs=2, patience=5,
                           seed=21)

    def _split(self, records, n_folds=5):
        return stratified_patient_split(records, n_folds=n_folds,
                                        seed=self._cfg().seed)

    def test_every_record_predicted_once_and_patient_grouped(self):
        records, samples = self._records_and_samples(10, seed=1)
        outs = cross_validate(records, samples, desk_config("vit2d"),
                              self._cfg(), self._split(records))
        fold_of = {}
        for k, (_, _, test_idx, preds) in enumerate(outs):
            assert len(preds) == len(test_idx)
            assert np.isfinite(preds).all()
            for i in test_idx:
                assert i not in fold_of
                fold_of[i] = k
        assert sorted(fold_of) == list(range(len(records)))
        assert set(fold_of.values()) == set(range(5))
        by_patient = {}
        for i, rec in enumerate(records):
            by_patient.setdefault(rec.patient_id, set()).add(fold_of[i])
        # both eyes of a patient always land in the same test fold
        assert all(len(fs) == 1 for fs in by_patient.values())

    def test_rerun_is_identical(self):
        records, samples = self._records_and_samples(10, seed=2)
        r1 = cross_validate(records, samples, desk_config("vit2d"),
                            self._cfg(), self._split(records))
        r2 = cross_validate(records, samples, desk_config("vit2d"),
                            self._cfg(), self._split(records))
        for (_, _, idx1, p1), (_, _, idx2, p2) in zip(r1, r2):
            assert idx1 == idx2
            assert np.array_equal(p1, p2)

    def test_pool_matches_calling_thread(self):
        records, samples = self._records_and_samples(10, seed=4)
        split = self._split(records)
        full = cross_validate(records, samples, desk_config("vit2d"),
                              self._cfg(), split)
        pooled = cross_validate(records, samples, desk_config("vit2d"),
                                self._cfg(), split, n_workers=2)
        assert len(pooled) == len(full)
        for (res, _, idx, preds), want in zip(pooled, full):
            assert idx == want[2]
            assert res.history == want[0].history
            assert np.array_equal(preds, want[3])

    def test_misaligned_inputs_rejected(self):
        records, samples = self._records_and_samples(6, seed=3)
        with pytest.raises(ValueError):
            cross_validate(records, samples[:-1], desk_config("vit2d"),
                           self._cfg(), self._split(records))


class TestMakeInput:
    def _volume(self, seed=0):
        spec = PhantomSpec(shape=(32, 32, 32), anomaly_amplitude=0.8)
        vol, _, _ = generate_phantom(spec, np.random.default_rng(seed))
        return vol

    def test_3d_shape(self):
        x = make_input(self._volume(), desk_config("cnn3d"))
        assert x.shape == (1, 32, 32, 32)
        assert abs(float(x.mean())) < 1e-4

    def test_hybrid_keeps_volume(self):
        x = make_input(self._volume(), desk_config("hybrid_lstm"))
        assert x.shape == (1, 32, 32, 32)

    def test_2d_takes_middle_slice(self):
        vol = self._volume()
        x = make_input(vol, desk_config("cnn2d"))
        assert x.shape == (1, 32, 32)
        from volab.volume import zscore
        assert np.allclose(x[0], zscore(vol).data[16], atol=1e-6)


class TestLearningProgress:
    @pytest.mark.parametrize("name", ["cnn3d", "vit3d", "swin3d",
                                      "hybrid_lstm", "hybrid_transformer"])
    def test_loss_decreases_on_separable_phantoms(self, name):
        cfg = desk_config(name)
        samples = []
        for i in range(16):
            amp = 1.0 if i % 2 else 0.0
            spec = PhantomSpec(shape=(32, 32, 32), anomaly_amplitude=amp,
                               anomaly_sparsity=0.2)
            vol, p_kc, _ = generate_phantom(spec,
                                            np.random.default_rng(100 + i))
            samples.append(Sample(f"P{i:03d}", "OD",
                                  make_input(vol, cfg), p_kc))
        model = build_model(cfg, seed=31)
        tc = TrainConfig(lr_max=1e-3, lr_min=2e-4, weight_decay=0.0,
                         physical_batch=8, accumulation_steps=1,
                         max_epochs=6, patience=20, seed=32)
        res = train_fold(model, samples, samples, tc)
        val = [row[2] for row in res.history]
        assert val[-1] < val[0]
        for prev, cur in zip(val[1:], val[2:]):
            assert cur <= prev + 1e-4, val
