"""Regression, discrimination, calibration, and risk-bin-stratified
classification metrics, plus percentile-bootstrap confidence intervals."""

from __future__ import annotations

import numpy as np

from .artifacts import DataError, is_count, is_real, require
from .labels import RiskBin, risk_bin

N_RELIABILITY_BINS = 10

# Most resample indices one bootstrap draw holds, so a large n never
# allocates n x m at once.
_DRAW_ELEMENTS = 1 << 18


def _vec(values, name):
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    if arr.size == 0:
        raise DataError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite values")
    return arr


def _pair(pred, target):
    p = _vec(pred, "pred")
    t = _vec(target, "target")
    if p.size != t.size:
        raise DataError(f"length mismatch: {p.size} predictions vs "
                        f"{t.size} targets")
    return p, t


# Row-wise kernels: (rows, m) predictions and targets, one sample of m
# records per row, to one value per row, NaN where the metric is
# undefined. Every regression metric is undefined on a constant target,
# as r2 and pearson are. Positives are soft or hard labels > 0.5.


def _defined(values, ok):
    return np.where(ok, values, np.nan)


def _ratio(num, den, ok):
    return np.divide(num, den, out=np.full(num.shape, np.nan), where=ok)


def _ss_tot(T):
    dt = T - T.mean(axis=1, keepdims=True)
    return np.sum(dt * dt, axis=1)


def _mse_rows(P, T):
    err = P - T
    return _defined(np.mean(err * err, axis=1), _ss_tot(T) != 0.0)


def _mae_rows(P, T):
    return _defined(np.mean(np.abs(P - T), axis=1), _ss_tot(T) != 0.0)


def _r2_rows(P, T):
    err = P - T
    ss_tot = _ss_tot(T)
    return 1.0 - _ratio(np.sum(err * err, axis=1), ss_tot, ss_tot != 0.0)


def _pearson_rows(P, T):
    sp = P.std(axis=1)
    cov = np.mean((P - P.mean(axis=1, keepdims=True))
                  * (T - T.mean(axis=1, keepdims=True)), axis=1)
    return _ratio(cov, sp * T.std(axis=1), (sp != 0.0) & (_ss_tot(T) != 0.0))


def _brier_rows(P, T):
    err = P - (T > 0.5)
    return _defined(np.mean(err * err, axis=1),
                    ((P >= 0.0) & (P <= 1.0)).all(axis=1))


def _average_ranks(P):
    """1-based float64 ranks along axis 1, tied values sharing their mean
    rank: a run of ties at sorted positions first..last ranks
    (first + last) / 2 + 1, an exact half-integer."""
    order = np.argsort(P, axis=1, kind="stable")
    s = np.take_along_axis(P, order, axis=1)
    rows, m = s.shape
    idx = np.broadcast_to(np.arange(m), s.shape)
    change = s[:, 1:] != s[:, :-1]
    edge = np.ones((rows, 1), dtype=bool)
    first = np.maximum.accumulate(
        np.where(np.hstack([edge, change]), idx, 0), axis=1)
    last = np.minimum.accumulate(
        np.where(np.hstack([change, edge]), idx, m)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(s.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=1)
    return ranks


def _auroc_rows(P, T):
    # Mann-Whitney on average ranks; the rank sums are exact in float64
    pos = T > 0.5
    n_pos = pos.sum(axis=1)
    n_pairs = n_pos * (pos.shape[1] - n_pos)
    rank_sum = np.sum(_average_ranks(P), axis=1, where=pos)
    return _ratio(rank_sum - n_pos * (n_pos + 1) / 2.0, n_pairs, n_pairs > 0)


ROW_METRICS = {"mse": _mse_rows, "mae": _mae_rows, "r2": _r2_rows,
               "pearson": _pearson_rows, "brier": _brier_rows,
               "auroc": _auroc_rows}


def _one_row(kernel, p, t, undefined=None):
    """The kernel on one sample; NaN raises ``undefined`` if given."""
    value = float(kernel(p[None], t[None])[0])
    if undefined and np.isnan(value):
        raise DataError(undefined)
    return value


def regression_metrics(pred, target):
    """mse, mae, r2 (= 1 - SS_res/SS_tot), and Pearson correlation.

    A constant target leaves both r2 and pearson undefined and is an
    error; constant predictions only lose pearson, reported as None.
    """
    p, t = _pair(pred, target)
    r2 = _one_row(_r2_rows, p, t,
                  "constant target: r2 and pearson are undefined")
    pearson = _one_row(_pearson_rows, p, t)
    return {"mse": _one_row(_mse_rows, p, t),
            "mae": _one_row(_mae_rows, p, t), "r2": r2,
            "pearson": None if np.isnan(pearson) else pearson}


def auroc(pred, label):
    """Probability that a random positive outranks a random negative.

    Mann-Whitney form on average ranks, so tied scores earn half credit.
    ``label`` may be soft; positives are label > 0.5.
    """
    return _one_row(_auroc_rows, *_pair(pred, label),
                    "auroc needs both classes present")


def brier_and_reliability(pred, label):
    """Brier score plus an equal-frequency decile reliability table.

    Rows are (mean predicted probability, empirical positive fraction,
    count) over 10 equal-count bins of the sorted predictions (counts
    differ by at most one; empty bins on tiny inputs are dropped).
    """
    p, t = _pair(pred, label)
    brier = _one_row(_brier_rows, p, t, "predictions must lie in [0, 1]")
    y = (t > 0.5).astype(np.float64)
    order = np.argsort(p, kind="stable")
    rows = []
    for chunk in np.array_split(order, N_RELIABILITY_BINS):
        if chunk.size == 0:
            continue
        rows.append((float(p[chunk].mean()), float(y[chunk].mean()),
                     int(chunk.size)))
    return brier, rows


def stratified_sens_spec(pred, target):
    """One-vs-rest sensitivity/specificity per risk bin.

    Each sample gets a true bin from the target posterior and a predicted
    bin from the predicted posterior. For bin b, sensitivity is the
    fraction of true-b samples predicted b; specificity is the fraction of
    non-b samples predicted non-b. Bins with no true members are absent,
    and a bin covering the whole cohort reports specificity None. Balanced
    accuracy averages the sensitivities that are present.
    """
    p, t = _pair(pred, target)
    pred_bins = np.array([risk_bin(v) for v in p], dtype=object)
    true_bins = np.array([risk_bin(v) for v in t], dtype=object)
    bins = {}
    sens_values = []
    for b in RiskBin:
        is_true = true_bins == b
        n_true = int(is_true.sum())
        if n_true == 0:
            continue
        is_pred = pred_bins == b
        sens = float((is_pred & is_true).sum() / n_true)
        n_rest = p.size - n_true
        spec = (float((~is_pred & ~is_true).sum() / n_rest)
                if n_rest else None)
        bins[b.value] = {"sensitivity": sens, "specificity": spec,
                         "count": n_true}
        sens_values.append(sens)
    return bins, float(np.mean(sens_values))


def bootstrap_ci(metric_fn, pred, target, n=10000, level=0.95, seed=0):
    """Percentile bootstrap interval for a row-wise metric.

    ``metric_fn(P, T)`` maps (rows, m) arrays, one resample of the m
    records per row, to one value per row, NaN where the metric is
    undefined (``ROW_METRICS``). Resamples are drawn as index rows, at
    most ``_DRAW_ELEMENTS`` indices per draw, the same stream as one draw
    per resample; the first n defined rows in stream order are kept, out
    of at most 10n drawn.
    """
    require(is_count(n, low=100), "bootstrap n", n,
            "an integer >= 100 for a percentile interval")
    require(is_real(level) and 0.0 < level < 1.0, "level", level, "in (0, 1)")
    p, t = _pair(pred, target)
    rng = np.random.default_rng(seed)
    kept = []
    got = drawn = 0
    while got < n and drawn < 10 * n:
        rows = min(n - got, 10 * n - drawn, max(1, _DRAW_ELEMENTS // p.size))
        idx = rng.integers(0, p.size, size=(rows, p.size))
        v = np.asarray(metric_fn(p[idx], t[idx]), dtype=np.float64)
        if v.shape != (rows,):
            raise ValueError(f"metric_fn returned shape {v.shape} for "
                             f"{rows} resamples; it must return one value "
                             f"per row")
        kept.append(v[~np.isnan(v)])
        got += kept[-1].size
        drawn += rows
    if got < n:
        raise DataError(f"metric undefined on too many resamples "
                        f"({got}/{n} succeeded within {10 * n} attempts)")
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(np.concatenate(kept), [alpha, 100.0 - alpha])
    return float(lo), float(hi)


__all__ = [
    "N_RELIABILITY_BINS", "ROW_METRICS", "auroc", "bootstrap_ci",
    "brier_and_reliability", "regression_metrics", "stratified_sens_spec",
]
