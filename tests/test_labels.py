"""Label model tests: posterior arithmetic, bins, splits, manifest files."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from volab.labels import (CohortRecord, DataError, GmmModel, RiskBin,
                          read_manifest, risk_bin, stratified_patient_split,
                          write_manifest, gmm_posterior)


def two_gaussians_1d(mu0=0.0, mu1=4.0, var=1.0, w=0.5):
    return GmmModel(weights=[w, 1.0 - w],
                    means=[[mu0], [mu1]],
                    covariances=[[[var]], [[var]]])


class TestPosterior:
    def test_midpoint_of_symmetric_mixture_is_half(self):
        m = two_gaussians_1d(0.0, 4.0)
        assert gmm_posterior([2.0], m) == pytest.approx(0.5, abs=1e-12)

    def test_zero_prior_forces_zero_posterior(self):
        m = GmmModel(weights=[1.0, 0.0], means=[[0.0], [4.0]],
                     covariances=[[[1.0]], [[1.0]]])
        assert gmm_posterior([2.0], m) == 0.0

    def test_logistic_form_equal_priors(self):
        # equal isotropic covs: posterior = logistic(delta * (x - midpoint))
        m = two_gaussians_1d(0.0, 4.0)
        got = gmm_posterior([3.0], m)
        want = 1.0 / (1.0 + np.exp(-4.0 * (3.0 - 2.0)))
        assert got == pytest.approx(0.98201379, abs=1e-5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_complement_sums_to_one_exactly_in_log_space(self):
        m = two_gaussians_1d(0.0, 1.0, var=0.5)
        swapped = GmmModel(weights=m.weights[::-1].copy(),
                           means=m.means[::-1].copy(),
                           covariances=m.covariances[::-1].copy())
        for x in np.linspace(-50.0, 50.0, 41):
            p = gmm_posterior([x], m)
            q = gmm_posterior([x], swapped)
            assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_far_tail_stays_finite_and_saturates(self):
        m = two_gaussians_1d(0.0, 4.0)
        assert gmm_posterior([1e3], m) == pytest.approx(1.0)
        assert gmm_posterior([-1e3], m) == pytest.approx(0.0)

    def test_batched_matches_scalar(self):
        m = two_gaussians_1d(0.0, 3.0, var=2.0)
        xs = np.linspace(-2, 5, 9).reshape(-1, 1)
        batch = gmm_posterior(xs, m)
        singles = np.array([gmm_posterior(x, m) for x in xs])
        np.testing.assert_allclose(batch, singles, atol=1e-14)

    def test_multivariate_label_exchange_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2))
        cov = a @ a.T + 2.0 * np.eye(2)
        m = GmmModel(weights=[0.3, 0.7], means=[[0.0, 1.0], [2.0, -1.0]],
                     covariances=[cov, cov * 1.5])
        flipped = GmmModel(weights=[0.7, 0.3], means=[[2.0, -1.0], [0.0, 1.0]],
                           covariances=[cov * 1.5, cov])
        for x in rng.normal(size=(20, 2)):
            assert gmm_posterior(x, m) == pytest.approx(
                1.0 - gmm_posterior(x, flipped), abs=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DataError):
            gmm_posterior([1.0, 2.0], two_gaussians_1d())

    def test_bad_weights_raise(self):
        with pytest.raises(DataError):
            GmmModel(weights=[0.6, 0.6], means=[[0.0], [1.0]],
                     covariances=[[[1.0]], [[1.0]]])

    def test_non_psd_covariance_raises(self):
        with pytest.raises(DataError):
            GmmModel(weights=[0.5, 0.5], means=[[0.0, 0.0], [1.0, 1.0]],
                     covariances=[np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2)])

    def test_json_round_trip(self, tmp_path):
        m = GmmModel(weights=[0.4, 0.6], means=[[0.0, 0.5], [1.0, 0.5]],
                     covariances=[np.eye(2) * 0.03, np.eye(2) * 0.05])
        path = tmp_path / "gmm.json"
        path.write_text(json.dumps({k: getattr(m, k).tolist() for k in
                                    ("weights", "means", "covariances")}))
        back = GmmModel.from_json(path)
        np.testing.assert_array_equal(back.weights, m.weights)
        np.testing.assert_array_equal(back.means, m.means)
        np.testing.assert_array_equal(back.covariances, m.covariances)


class TestRiskBin:
    @pytest.mark.parametrize("p,want", [
        (0.0, RiskBin.HEALTHY),
        (0.25, RiskBin.HEALTHY),
        (0.2500001, RiskBin.SUBCLINICAL),
        (0.5, RiskBin.SUBCLINICAL),
        (0.7499999, RiskBin.SUBCLINICAL),
        (0.75, RiskBin.KERATOCONUS),
        (1.0, RiskBin.KERATOCONUS),
    ])
    def test_boundaries(self, p, want):
        assert risk_bin(p) is want

    def test_out_of_range_raises(self):
        with pytest.raises(DataError):
            risk_bin(1.5)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_total_on_unit_interval(self, p):
        assert risk_bin(p) in RiskBin


def make_records(n_patients, volumes_per_patient=1, p_fn=None, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_patients):
        p = p_fn(i) if p_fn else float(rng.random())
        for v in range(volumes_per_patient):
            records.append(CohortRecord(
                patient_id=f"P{i:04d}", eye_id="OD" if v == 0 else "OS",
                volume_path=f"vol_{i}_{v}.volb", p_kc=p))
    return records


class TestSplits:
    def test_ten_uniform_patients_five_folds_two_each(self):
        records = make_records(10, p_fn=lambda i: (i + 0.5) / 10.0)
        folds = stratified_patient_split(records, n_folds=5, seed=3)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 2]
        assert sorted(i for f in folds for i in f) == list(range(10))

    def test_partition_is_exact_and_disjoint(self):
        records = make_records(37, volumes_per_patient=2, seed=1)
        folds = stratified_patient_split(records, n_folds=5, seed=9)
        seen = [i for f in folds for i in f]
        assert sorted(seen) == list(range(len(records)))

    def test_patients_never_straddle_folds(self):
        records = make_records(30, volumes_per_patient=2, seed=2)
        folds = stratified_patient_split(records, n_folds=5, seed=4)
        for fold in folds:
            pids = {records[i].patient_id for i in fold}
            for other in folds:
                if other is fold:
                    continue
                assert pids.isdisjoint({records[i].patient_id for i in other})

    def test_bin_histogram_tally_oracle(self):
        # 100 patients, known histogram; per-fold counts must stay within
        # +-2 of proportional allocation, tallied by hand
        records = make_records(100, p_fn=lambda i: (i % 10) / 10.0 + 0.05)
        folds = stratified_patient_split(records, n_folds=5, n_bins=10, seed=7)
        for fold in folds:
            tally = {}
            for i in fold:
                b = min(int(records[i].p_kc * 10), 9)
                tally[b] = tally.get(b, 0) + 1
            for b in range(10):
                assert abs(tally.get(b, 0) - 2.0) <= 2.0

    def test_deterministic_given_seed(self):
        records = make_records(25, seed=3)
        a = stratified_patient_split(records, n_folds=5, seed=11)
        b = stratified_patient_split(records, n_folds=5, seed=11)
        c = stratified_patient_split(records, n_folds=5, seed=12)
        assert a == b
        assert a != c

    def test_too_few_patients_raises(self):
        with pytest.raises(DataError):
            stratified_patient_split(make_records(3), n_folds=5)


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [
            CohortRecord("P0001", "OD", "a.volb", 0.125, age=42, sex="F"),
            CohortRecord("P0001", "OS", "b.volb", 0.25, age=42, sex="F"),
            CohortRecord("P0002", "OD", "c.volb", 0.875),
        ]
        path = tmp_path / "manifest.csv"
        write_manifest(path, records)
        back = read_manifest(path)
        assert back == records

    def test_header_is_pinned(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(path, [CohortRecord("P1", "OD", "x.volb", 0.5)])
        assert path.read_text().splitlines()[0] == \
            "patient_id,eye_id,volume_path,p_kc,age,sex"

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            read_manifest(path)

    def test_out_of_range_p_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("patient_id,eye_id,volume_path,p_kc,age,sex\n"
                        "P1,OD,x.volb,1.5,,\n")
        with pytest.raises(DataError):
            read_manifest(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError):
            read_manifest(tmp_path / "nope.csv")
