"""Mechanistic analysis instruments: effective receptive-field maps with
theoretical receptive-field arithmetic, attention-distance distributions,
centered kernel alignment, and the ADMP activation-dump format."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import DataError, Packer, Unpacker, is_count, require
from .labels import risk_bin
from .tensor import NumericError, ShapeError, Tensor, backward, narrow, tsum

ERF_THRESHOLD = 0.01
FAR_DISTANCE = 20.0  # voxel cutoff behind the pct_gt20 statistic


# ---------------------------------------------------------------------------
# effective receptive fields


@dataclass
class ErfMap:
    """Input-gradient receptive field of one tap of one model.

    gradient: |d(tap)/d(input)| summed over channels, input spatial shape.
    normalized: gradient / max; mask: normalized > threshold (strict).
    erf_radius: max distance from the gradient-weighted mask centroid to
    any mask voxel. et_ratio: erf_radius over the config's theoretical
    radius for the tap.
    """
    gradient: np.ndarray
    normalized: np.ndarray
    mask: np.ndarray
    erf_size: int
    erf_radius: float
    et_ratio: float


def _nearest_token(centroids, input_shape):
    """Index of the token whose centroid sits closest to the volume
    center; NaN centroid rows (class tokens) never win. First index wins
    ties, matching np.argmin."""
    cents = np.asarray(centroids, dtype=np.float64)
    center = (np.asarray(input_shape[:cents.shape[1]], dtype=np.float64)
              - 1.0) / 2.0
    d = np.linalg.norm(cents - center, axis=1)
    d[np.isnan(d)] = np.inf
    return int(np.argmin(d))


def _tap_scalar(result, input_shape, tap):
    """Reduce a forward tap to the scalar the ERF differentiates: the
    prediction itself, a grid tap's center unit summed over channels, the
    nearest-to-center token summed over features, or a vector tap's sum."""
    if tap == "output":
        return tsum(result.pred)
    stages = {s.name: s for s in result.stages}
    if tap not in stages:
        raise ShapeError(f"unknown tap {tap!r}; model stages are "
                         f"{sorted(stages)} or 'output'")
    st = stages[tap]
    if st.kind == "grid":
        h = st.data
        for axis, size in enumerate(h.shape[2:], start=2):
            h = narrow(h, axis, size // 2, 1)
        return tsum(h)
    if st.kind == "tokens":
        idx = _nearest_token(st.centroids, input_shape)
        return tsum(narrow(st.data, 1, idx, 1))
    return tsum(st.data)


def erf_map(model, x, taps=("output",), threshold=ERF_THRESHOLD):
    """Effective receptive fields of ``taps``, one ErfMap per tap.

    ``x`` is a single unbatched input (channels, *spatial). The model
    needs a ``forward`` in the ForwardResult protocol, a ``config`` and
    ``frozen()``. It runs frozen, so each tap's backward pass, on the tape
    of one forward, computes the input gradient alone and leaves every
    ``.grad`` as it was.
    """
    xt = Tensor(np.asarray(x)[None], requires_grad=True)
    cfg = model.config
    maps = []
    with model.frozen():
        result = model.forward(xt)
        for tap in taps:
            xt.grad = None
            backward(_tap_scalar(result, cfg.input_shape, tap))
            grad = np.abs(np.asarray(xt.grad, dtype=np.float64))[0]
            maps.append(_erf(grad.sum(axis=0), tap, threshold, cfg))
    return maps


def _erf(grad, tap, threshold, cfg):
    gmax = float(grad.max())
    if gmax <= 0.0:
        raise NumericError(f"all-zero gradient at tap {tap!r}: "
                           "receptive field undefined")
    normalized = grad / gmax
    mask = normalized > threshold
    pos = np.argwhere(mask).astype(np.float64)
    weights = normalized[mask]
    centroid = (weights[:, None] * pos).sum(axis=0) / weights.sum()
    radius = float(np.linalg.norm(pos - centroid, axis=1).max())
    theo = theoretical_rf(cfg, tap)
    if theo == 0.0:
        ratio = 1.0 if radius == 0.0 else math.inf
    else:
        ratio = radius / theo
    return ErfMap(gradient=grad, normalized=normalized, mask=mask,
                  erf_size=int(mask.sum()), erf_radius=radius,
                  et_ratio=ratio)


# ---------------------------------------------------------------------------
# theoretical receptive fields


def conv_extent(layers):
    """One-axis receptive-field extent of a (kernel, stride) chain."""
    extent, jump = 1, 1
    for k, s in layers:
        extent += (k - 1) * jump
        jump *= s
    return extent


def _cnn_layers(cfg, n_stages):
    layers = [(3, 1), (2, 2)]  # stem conv + max pool
    for stride in cfg.stage_strides[:n_stages]:
        layers += [(3, stride), (3, 1)]
    return layers


def _stage_index(stage, prefix, count):
    if stage.startswith(prefix):
        try:
            k = int(stage[len(prefix):])
        except ValueError:
            return None
        if 1 <= k <= count:
            return k
    return None


def _swin_axis_extent(n, patch, window, grids, depths, upto):
    """Reachable voxel extent along one axis, of ``grids`` tokens per
    stage, for the center token of swin stage ``upto``: backward interval
    propagation through the stage's blocks, the merges, and the patch
    embedding. Windows are anchored to the truncated shifted partition,
    so reach saturates instead of growing like a sliding kernel."""
    shift = window // 2
    jump = patch * 2 ** (upto - 1)
    g_tap = grids[upto - 1]
    cents = np.arange(g_tap) * jump + (jump - 1) / 2.0
    q = int(np.argmin(np.abs(cents - (n - 1) / 2.0)))
    lo = hi = q
    for s in range(upto, 0, -1):
        g = grids[s - 1]
        for b in reversed(range(depths[s - 1])):
            w_eff = min(window, g)
            s_eff = 0 if (w_eff >= g or b % 2 == 0) else shift
            lo = max(0, (lo - s_eff) // w_eff * w_eff + s_eff)
            hi = min(g - 1, (hi - s_eff) // w_eff * w_eff + s_eff + w_eff - 1)
        if s > 1:
            lo, hi = 2 * lo, min(2 * hi + 1, grids[s - 2] - 1)
    v_lo = lo * patch
    v_hi = min(hi * patch + patch - 1, n - 1)
    return v_hi - v_lo + 1


def theoretical_extents(cfg, stage):
    """Per-axis voxel extents reachable by the tap's center unit, clipped
    to the input."""
    shape = np.asarray(cfg.input_shape, dtype=np.int64)
    if stage == "output":
        return shape.copy()
    if cfg.family == "cnn":
        k = _stage_index(stage, "stage", len(cfg.stage_channels))
        if k is not None:
            ext = conv_extent(_cnn_layers(cfg, k))
            return np.minimum(ext, shape)
    elif cfg.family == "vit":
        if _stage_index(stage, "block", cfg.depth) is not None:
            return shape.copy()  # every token attends to every token
    elif cfg.family == "swin":
        if stage == "patch_embed":
            return np.minimum(np.asarray(cfg.patch_size), shape)
        k = _stage_index(stage, "stage", len(cfg.stage_depths))
        if k is not None:
            axes = zip(cfg.input_shape, cfg.patch_size, cfg.window_size,
                       zip(*cfg.stage_grids()))
            return np.array([_swin_axis_extent(*axis, cfg.stage_depths, k)
                             for axis in axes], dtype=np.int64)
    else:  # hybrids: per-slice 2-D encoder ending in GAP, then aggregator
        if stage == "encoder":
            return np.array([1, shape[1], shape[2]], dtype=np.int64)
        if stage == "aggregator":
            return shape.copy()
    raise ShapeError(f"unknown stage {stage!r} for family {cfg.family!r}")


def theoretical_rf(cfg, stage):
    """Scalar radius: Euclidean norm of the per-axis half-extents, the
    center-to-corner distance of the reachable box."""
    half = (theoretical_extents(cfg, stage).astype(np.float64) - 1.0) / 2.0
    return float(np.linalg.norm(half))


# ---------------------------------------------------------------------------
# attention distances


def attention_distances(records, k=5):
    """Pooled voxel distances from each query to its k most-attended
    tokens, over every record, group, and head.

    Class tokens (NaN centroid rows) never appear as query or target;
    self-attention pairs are excluded; only strictly positive attention
    weights are candidates; ties prefer the lower token index. Distances
    come out in (record, group, head, query, rank) order, from one stable
    argsort per record.
    """
    require(is_count(k), "k", k, "an integer >= 1")
    out = [np.empty(0)]
    for rec in records:
        attn = np.asarray(rec.attn, dtype=np.float64)
        if rec.centroids is None:
            raise DataError(f"attention record {rec.layer!r} lacks "
                            "token centroids")
        cents = np.asarray(rec.centroids, dtype=np.float64)
        if cents.ndim == 2:
            cents = cents[None]
        groups, _, length, _ = attn.shape
        if cents.shape[0] not in (1, groups):
            raise DataError(f"attention record {rec.layer!r} has "
                            f"{cents.shape[0]} centroid groups for "
                            f"{groups} attention groups")
        valid = ~np.isnan(cents).any(axis=2)
        pair_d = np.linalg.norm(cents[:, :, None, :] - cents[:, None, :, :],
                                axis=3)
        allowed = ((attn > 0.0) & valid[:, None, :, None]
                   & valid[:, None, None, :])
        diag = np.arange(length)
        allowed[..., diag, diag] = False
        top = np.argsort(np.where(allowed, -attn, np.inf), axis=-1,
                         kind="stable")[..., :k]
        d = np.take_along_axis(pair_d[:, None], top, axis=-1)
        out.append(d[np.take_along_axis(allowed, top, axis=-1)])
    return np.concatenate(out)


def distance_stats(distances):
    """mean/sd/median/fraction-beyond-20-voxels/max of a distance pool."""
    d = np.asarray(distances, dtype=np.float64)
    if d.size == 0:
        raise DataError("no attention distances to summarize")
    return {"count": int(d.size), "mean": float(d.mean()),
            "sd": float(d.std()), "median": float(np.median(d)),
            "pct_gt20": float((d > FAR_DISTANCE).mean()),
            "max": float(d.max())}


def attention_distance_stats(labeled_records, k=5):
    """Per-risk-bin distance summaries from (true p_kc, records) pairs.

    Bins come from the true posterior, not from predictions; bins with no
    distances are absent from the result.
    """
    pools = {}
    for p_kc, records in labeled_records:
        b = risk_bin(float(p_kc)).value
        d = attention_distances(records, k=k)
        if d.size:
            pools.setdefault(b, []).append(d)
    return {b: distance_stats(np.concatenate(ds))
            for b, ds in pools.items()}


# ---------------------------------------------------------------------------
# centered kernel alignment


def _centered(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-D (samples x features), got "
                        f"shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite activations")
    return arr - arr.mean(axis=0, keepdims=True)


def cka_pair(x, y):
    """Linear CKA between two activation matrices over the same samples,
    from the N x N Gram matrices of the mean-centered columns."""
    xc = _centered(x, "X")
    yc = _centered(y, "Y")
    n = xc.shape[0]
    if yc.shape[0] != n:
        raise DataError(f"sample-count mismatch: {n} vs {yc.shape[0]}")
    if n < 2:
        raise DataError("cka needs at least 2 samples")
    kx = xc @ xc.T
    ky = yc @ yc.T
    num = float((kx * ky).sum())
    den = float(np.linalg.norm(kx) * np.linalg.norm(ky))
    if den == 0.0:
        raise DataError("activation matrix is all-zero after centering")
    return num / den


def cka_matrix(fold_dumps):
    """Fold-averaged pairwise CKA. ``fold_dumps`` is a list (one entry per
    fold) of {layer_or_model_id: (N, D) activations}; every fold must dump
    the same ids. Returns (ids, matrix)."""
    if not fold_dumps:
        raise DataError("no activation dumps given")
    ids = list(fold_dumps[0])
    m = len(ids)
    total = np.zeros((m, m), dtype=np.float64)
    for fold in fold_dumps:
        if list(fold) != ids:
            raise DataError(f"fold dumps disagree on ids: {list(fold)} vs "
                            f"{ids}")
        for i in range(m):
            for j in range(i, m):
                v = cka_pair(fold[ids[i]], fold[ids[j]])
                total[i, j] += v
                total[j, i] += v * (i != j)
    return ids, total / len(fold_dumps)


# ---------------------------------------------------------------------------
# ADMP activation dumps


ADMP_MAGIC = b"ADMP"


def _check_activations(layers):
    for lid, arr in layers.items():
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise DataError(f"layer {lid!r} must be 2-D, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"layer {lid!r} has non-finite activations")


def write_activation_dump(path, model_id, layers):
    """magic, model id, layer count, then per layer (id, N, D, f32 row-major
    data). The float32 values are checked, so a value beyond the float32
    range is refused instead of written as inf."""
    with np.errstate(over="ignore"):
        layers = {lid: np.asarray(arr, dtype="<f4")
                  for lid, arr in layers.items()}
    _check_activations(layers)
    out = Packer(ADMP_MAGIC)
    out.string(model_id)
    out.fields("I", len(layers))
    for lid, arr in layers.items():
        out.string(lid)
        out.fields("2I", *np.shape(arr))
        out.array(arr)
    out.save(path)


def read_activation_dump(path):
    src = Unpacker(path, ADMP_MAGIC, "dump")
    model_id = src.string()
    layers = {}
    for _ in range(src.fields("I")[0]):
        lid = src.string()
        layers[lid] = src.array(src.fields("2I"))
    src.finish()
    _check_activations(layers)
    return model_id, layers


__all__ = [
    "ADMP_MAGIC", "ERF_THRESHOLD", "ErfMap", "attention_distance_stats",
    "attention_distances", "cka_matrix", "cka_pair", "conv_extent",
    "distance_stats", "erf_map", "read_activation_dump",
    "theoretical_extents", "theoretical_rf", "write_activation_dump",
]
