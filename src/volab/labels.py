"""Continuous risk labels from a two-component Gaussian mixture, risk bins,
and patient-grouped stratified cross-validation splits."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .artifacts import DataError, read_csv_rows, read_json_object, \
    write_csv


class RiskBin(Enum):
    HEALTHY = "healthy"
    SUBCLINICAL = "subclinical"
    KERATOCONUS = "keratoconus"


def risk_bin(p: float) -> RiskBin:
    """Bin a posterior: healthy p <= 0.25, keratoconus p >= 0.75, else subclinical."""
    if not 0.0 <= p <= 1.0:
        raise DataError(f"posterior {p} outside [0, 1]")
    if p <= 0.25:
        return RiskBin.HEALTHY
    if p >= 0.75:
        return RiskBin.KERATOCONUS
    return RiskBin.SUBCLINICAL


_GMM_FIELDS = ("weights", "means", "covariances")


@dataclass
class GmmModel:
    """Two-component Gaussian mixture over a k-dim feature space.

    Component 0 is the healthy mode, component 1 the diseased mode.
    """

    weights: np.ndarray   # (2,)
    means: np.ndarray     # (2, k)
    covariances: np.ndarray  # (2, k, k)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        cov = np.asarray(self.covariances, dtype=np.float64)
        if cov.ndim == 1:  # per-component scalar variances in 1-D
            cov = cov.reshape(2, 1, 1)
        self.covariances = cov
        if self.weights.shape != (2,):
            raise DataError("mixture needs exactly two component weights")
        if not np.isclose(self.weights.sum(), 1.0, atol=1e-9):
            raise DataError(f"component weights sum to {self.weights.sum()}, not 1")
        if (self.weights < 0).any():
            raise DataError("component weights must be nonnegative")
        k = self.means.shape[1]
        if self.means.shape != (2, k) or self.covariances.shape != (2, k, k):
            raise DataError("means must be (2,k) and covariances (2,k,k)")
        for c in range(2):
            try:
                np.linalg.cholesky(self.covariances[c])
            except np.linalg.LinAlgError:
                raise DataError(f"covariance {c} is not positive definite") from None

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @classmethod
    def from_json(cls, path) -> "GmmModel":
        payload = read_json_object(path, "mixture file")
        try:
            return cls(*(np.array(payload[k]) for k in _GMM_FIELDS))
        except (KeyError, TypeError, ValueError) as err:
            raise DataError(f"{path}: bad mixture file: {err}") from err


def _log_gaussian(x, mean, cov):
    # log N(x; mean, cov) via Cholesky, batched over leading axes of x
    k = mean.shape[0]
    chol = np.linalg.cholesky(cov)
    diff = x - mean
    # solve L z = diff^T for the Mahalanobis term
    z = np.linalg.solve(chol, diff[..., None])[..., 0]
    maha = (z * z).sum(axis=-1)
    logdet = 2.0 * np.log(np.diag(chol)).sum()
    return -0.5 * (maha + logdet + k * np.log(2.0 * np.pi))


def gmm_posterior(x, model: GmmModel):
    """Posterior probability of the diseased component, in log space.

    Accepts a single feature vector (k,) or a batch (..., k); returns a float
    or an array matching the batch shape. Degenerate inputs where both
    component densities underflow to zero raise DataError.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar_input = x.ndim <= 1
    x = np.atleast_2d(x)
    if x.shape[-1] != model.dim:
        raise DataError(f"feature dim {x.shape[-1]} != mixture dim {model.dim}")

    with np.errstate(divide="ignore"):
        log_prior = np.log(model.weights)
    log_joint = np.stack(
        [log_prior[c] + _log_gaussian(x, model.means[c], model.covariances[c])
         for c in range(2)], axis=-1)
    if np.isneginf(log_joint).all(axis=-1).any():
        raise DataError("both mixture components have zero density at some input")
    top = log_joint.max(axis=-1, keepdims=True)
    log_norm = top[..., 0] + np.log(np.exp(log_joint - top).sum(axis=-1))
    post = np.exp(log_joint[..., 1] - log_norm)
    if scalar_input:
        return float(post.reshape(-1)[0])
    return post


@dataclass
class CohortRecord:
    """One volume of one eye; the manifest row unit."""

    patient_id: str
    eye_id: str
    volume_path: str
    p_kc: float
    age: int | None = None
    sex: str | None = None

    @property
    def bin(self) -> RiskBin:
        return risk_bin(self.p_kc)


MANIFEST_HEADER = ["patient_id", "eye_id", "volume_path", "p_kc", "age", "sex"]


def write_manifest(path, records) -> None:
    write_csv(path, MANIFEST_HEADER, [
        [r.patient_id, r.eye_id, r.volume_path, float(r.p_kc), r.age, r.sex]
        for r in records], lineterminator="\r\n")


def read_manifest(path) -> list[CohortRecord]:
    records = []
    rows = read_csv_rows(path, "manifest", MANIFEST_HEADER)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(MANIFEST_HEADER):
            raise DataError(f"{path}:{lineno}: expected "
                            f"{len(MANIFEST_HEADER)} fields, got {len(row)}")
        try:
            p = float(row[3])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad p_kc {row[3]!r}") from None
        if not 0.0 <= p <= 1.0:
            raise DataError(f"{path}:{lineno}: p_kc {p} outside [0, 1]")
        try:
            age = int(row[4]) if row[4] else None
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad age {row[4]!r}") from None
        records.append(CohortRecord(row[0], row[1], row[2], p, age,
                                    row[5] or None))
    if not records:
        raise DataError(f"{path}: manifest has no records")
    return records


def stratified_patient_split(records, n_folds=5, n_bins=10, seed=0):
    """Patient-grouped, risk-stratified fold assignment.

    Patients are bucketed by their mean p_kc into ``n_bins`` equal-width bins
    over [0, 1]; each bucket is shuffled deterministically and dealt across
    folds with largest-remainder balancing (leftover patients go to the
    currently smallest folds). Returns a list of ``n_folds`` lists of record
    indices. Every record of a patient lands in the same fold.
    """
    records = list(records)
    if n_folds < 2:
        raise DataError("need at least two folds")
    by_patient: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_patient.setdefault(r.patient_id, []).append(i)
    if len(by_patient) < n_folds:
        raise DataError(f"{len(by_patient)} patients cannot fill {n_folds} folds")

    mean_p = {pid: float(np.mean([records[i].p_kc for i in idx]))
              for pid, idx in by_patient.items()}
    buckets: list[list[str]] = [[] for _ in range(n_bins)]
    for pid in sorted(by_patient):
        b = min(int(mean_p[pid] * n_bins), n_bins - 1)
        buckets[b].append(pid)

    rng = np.random.default_rng(seed)
    fold_patients: list[list[str]] = [[] for _ in range(n_folds)]
    for bucket in buckets:
        if not bucket:
            continue
        order = [bucket[j] for j in rng.permutation(len(bucket))]
        base, rem = divmod(len(order), n_folds)
        cursor = 0
        for f in range(n_folds):
            fold_patients[f].extend(order[cursor:cursor + base])
            cursor += base
        # leftovers go to the smallest folds, lowest index on ties
        for pid in order[cursor:]:
            sizes = [(len(fold_patients[f]), f) for f in range(n_folds)]
            _, f = min(sizes)
            fold_patients[f].append(pid)

    folds = [sorted(i for pid in pids for i in by_patient[pid])
             for pids in fold_patients]
    if any(not f for f in folds):
        raise DataError("a fold received no records; too few patients per stratum")
    return folds
