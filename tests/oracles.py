"""Independent brute-force reference implementations used across the tests.

Everything here is written as plainly as possible (nested loops, direct
formulas) so the fast implementations are checked against genuinely
different code paths.
"""

import numpy as np
from scipy.stats import rankdata

from volab.labels import DataError
from volab.tensor import ShapeError, Tensor, backward


def conv3d_loops(x, w, bias=None, stride=(1, 1, 1), padding=(0, 0, 0)):
    """Seven-nested-loop 3-D cross-correlation."""
    n, c, d, h, wd = x.shape
    o, _, kd, kh, kw = w.shape
    pd, ph, pw = padding
    sd, sh, sw = stride
    xp = np.pad(x, ((0, 0), (0, 0), (pd, pd), (ph, ph), (pw, pw)))
    do = (d + 2 * pd - kd) // sd + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, do, ho, wo), dtype=np.float64)
    for b in range(n):
        for oc in range(o):
            for z in range(do):
                for y in range(ho):
                    for xx in range(wo):
                        acc = 0.0
                        for ic in range(c):
                            for i in range(kd):
                                for j in range(kh):
                                    for k in range(kw):
                                        acc += (xp[b, ic, z * sd + i, y * sh + j, xx * sw + k]
                                                * w[oc, ic, i, j, k])
                        out[b, oc, z, y, xx] = acc
            if bias is not None:
                out[b, oc] += bias[oc]
    return out


def pool3d_loops(x, kind, window, stride):
    n, c, d, h, w = x.shape
    wd, wh, ww = window
    sd, sh, sw = stride
    do = (d - wd) // sd + 1
    ho = (h - wh) // sh + 1
    wo = (w - ww) // sw + 1
    out = np.zeros((n, c, do, ho, wo), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for z in range(do):
                for y in range(ho):
                    for xx in range(wo):
                        win = x[b, ch,
                                z * sd:z * sd + wd,
                                y * sh:y * sh + wh,
                                xx * sw:xx * sw + ww]
                        out[b, ch, z, y, xx] = win.max() if kind == "max" else win.mean()
    return out


def attention_loops(q, k, v):
    """Single-head attention, one query at a time."""
    L, dh = q.shape
    out = np.zeros_like(v, dtype=np.float64)
    for i in range(L):
        scores = np.array([q[i] @ k[j] / np.sqrt(dh) for j in range(L)])
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        for j in range(L):
            out[i] += weights[j] * v[j]
    return out


def shifted_window_neighbors(grid, window, shift):
    """Allowed attention pairs for shifted-window attention, from first
    principles: tokens attend iff they share the same window of the
    truncated, NON-cyclic shifted partition, whose boundaries sit at
    positions congruent to shift (mod window) along every axis."""
    nd = len(grid)
    L = int(np.prod(grid))
    coords = np.stack(np.unravel_index(np.arange(L), grid), axis=1)
    ids = np.zeros(L, dtype=np.int64)
    for a in range(nd):
        ax = np.floor_divide(coords[:, a] - shift[a], window[a])
        ids = ids * (2 * grid[a] + 3) + (ax + 1)
    return ids[:, None] == ids[None, :]


def shifted_window_attention_loops(tokens, grid, window, shift, dh_scale=None):
    """Brute-force masked shifted-window self-attention with q = k = v =
    tokens, attending only within the shifted neighborhoods."""
    L, D = tokens.shape
    allowed_pairs = shifted_window_neighbors(grid, window, shift)
    scale = 1.0 / np.sqrt(D if dh_scale is None else dh_scale)
    out = np.zeros_like(tokens, dtype=np.float64)
    for i in range(L):
        allowed = [j for j in range(L) if allowed_pairs[i, j]]
        scores = np.array([tokens[i] @ tokens[j] * scale for j in allowed])
        scores -= scores.max()
        wts = np.exp(scores)
        wts /= wts.sum()
        for w_, j in zip(wts, allowed):
            out[i] += w_ * tokens[j]
    return out


def auroc_pairs(scores, labels):
    """Pair-counting AUROC with half credit for ties."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_ranks(P):
    """scipy's 1-based ranks along axis 1, ties sharing their mean rank."""
    return rankdata(P, axis=1)


def topk_attention_distances(attn, centroids, k=5):
    """Per-query top-k attended-token distances, one pair at a time.

    attn: (L, L) weights for one head, centroids: (L, nd) with NaN rows
    marking CLS. Self pairs and CLS rows/columns are excluded; k is clamped
    to the available partners.
    """
    L = attn.shape[0]
    dists = []
    for i in range(L):
        if np.isnan(centroids[i]).any():
            continue
        partners = []
        for j in range(L):
            if j == i or np.isnan(centroids[j]).any() or attn[i, j] <= 0.0:
                continue
            partners.append((-attn[i, j], j))
        partners.sort()
        for _, j in partners[:k]:
            dists.append(float(np.linalg.norm(centroids[i] - centroids[j])))
    return np.array(dists)


def attention_distances_loop(records, k=5, include_self=False):
    """Pooled top-k attention distances, one query of one head at a time,
    in (record, group, head, query, rank) order."""
    out = []
    for rec in records:
        attn = np.asarray(rec.attn, dtype=np.float64)
        cents = np.asarray(rec.centroids, dtype=np.float64)
        if cents.ndim == 2:
            cents = cents[None]
        groups, heads, length, _ = attn.shape
        for g in range(groups):
            cg = cents[g if cents.shape[0] > 1 else 0]
            valid = ~np.isnan(cg).any(axis=1)
            pair_d = np.linalg.norm(cg[:, None, :] - cg[None, :, :], axis=2)
            for h in range(heads):
                a = attn[g, h]
                for i in range(length):
                    if not valid[i]:
                        continue
                    allowed = valid & (a[i] > 0.0)
                    if not include_self:
                        allowed[i] = False
                    cand = np.nonzero(allowed)[0]
                    if cand.size == 0:
                        continue
                    top = cand[np.argsort(-a[i, cand], kind="stable")[:k]]
                    out.extend(pair_d[i, top])
    return np.asarray(out, dtype=np.float64)


def report_metric_1d(key):
    """One report metric of a single 1-D (pred, target) resample, written
    as the plain formula; raises ValueError where it is undefined (every
    regression metric on a constant target, pearson also on constant
    predictions, auroc without both classes)."""
    def fn(p, t):
        y = t > 0.5
        if key == "brier":
            if ((p < 0.0) | (p > 1.0)).any():
                raise ValueError("predictions outside [0, 1]")
            return float(np.mean((p - y.astype(np.float64)) ** 2))
        if key == "auroc":
            n_pos = int(y.sum())
            n_neg = y.size - n_pos
            if n_pos == 0 or n_neg == 0:
                raise ValueError("one class only")
            return float((rankdata(p)[y].sum() - n_pos * (n_pos + 1) / 2.0)
                         / (n_pos * n_neg))
        err = p - t
        ss_tot = float(np.sum((t - t.mean()) ** 2))
        if ss_tot == 0.0:
            raise ValueError("constant target")
        if key == "mse":
            return float(np.mean(err * err))
        if key == "mae":
            return float(np.mean(np.abs(err)))
        if key == "r2":
            return 1.0 - float(np.sum(err * err)) / ss_tot
        sp = float(p.std())
        if sp == 0.0:
            raise ValueError("constant predictions")
        cov = float(np.mean((p - p.mean()) * (t - t.mean())))
        return cov / (sp * float(t.std()))
    return fn


def bootstrap_ci_loop(metric_fn, pred, target, n=10000, level=0.95, seed=0):
    """Percentile bootstrap, one resample per draw: a resample on which
    ``metric_fn`` raises ValueError is redrawn, up to 10n attempts."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    rng = np.random.default_rng(seed)
    values = np.empty(n, dtype=np.float64)
    got = 0
    for _ in range(10 * n):
        if got == n:
            break
        idx = rng.integers(0, p.size, size=p.size)
        try:
            values[got] = float(metric_fn(p[idx], t[idx]))
        except ValueError:
            continue
        got += 1
    if got < n:
        raise DataError(f"metric undefined on too many resamples "
                        f"({got}/{n} succeeded within {10 * n} attempts)")
    alpha = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(values, [alpha, 100.0 - alpha])
    return float(lo), float(hi)


def cka_direct(x, y):
    """Centered linear CKA straight from the feature-space definition."""
    xc = x - x.mean(axis=0, keepdims=True)
    yc = y - y.mean(axis=0, keepdims=True)
    num = np.linalg.norm(xc.T @ yc, "fro") ** 2
    den = (np.linalg.norm(xc.T @ xc, "fro") * np.linalg.norm(yc.T @ yc, "fro"))
    return num / den


def swin_reachable_extent(n, patch, window, shift, depths, stage):
    """Voxel reach of a swin stage's center token along one axis, by
    exhaustive token-set propagation backward from the tap.

    Mirrors the runtime rules independently: windows anchor to the
    truncated shifted partition floor((t - s)/w); windows clamp to the
    grid (dropping the shift) when they cover it; merges pair tokens
    (ceil on odd grids); the query is the token whose centroid is nearest
    the volume center, first index on ties. Returns (extent, contiguous).
    """
    grids = [n // patch + (1 if n % patch else 0)]
    for _ in depths[1:]:
        g = grids[-1]
        grids.append(g // 2 + (1 if g % 2 else 0))
    jump = patch * 2 ** (stage - 1)
    cents = [t * jump + (jump - 1) / 2.0 for t in range(grids[stage - 1])]
    center = (n - 1) / 2.0
    q = min(range(len(cents)), key=lambda t: (abs(cents[t] - center), t))
    reach = {q}
    for s in range(stage, 0, -1):
        g = grids[s - 1]
        for b in reversed(range(depths[s - 1])):
            w_eff = min(window, g)
            s_eff = 0 if (w_eff >= g or b % 2 == 0) else shift
            new = set()
            for t in reach:
                wid = (t - s_eff) // w_eff
                for u in range(wid * w_eff + s_eff,
                               wid * w_eff + s_eff + w_eff):
                    if 0 <= u < g:
                        new.add(u)
            reach = new
        if s > 1:
            prev = grids[s - 2]
            reach = {c for t in reach for c in (2 * t, 2 * t + 1)
                     if c < prev}
    voxels = {v for t in reach for v in range(t * patch, t * patch + patch)
              if v < n}
    extent = max(voxels) - min(voxels) + 1
    return extent, len(voxels) == extent


def as_float64(module):
    """Cast every parameter and buffer of ``module`` and of its children to
    float64 in place, so a gradient check runs the model in double
    precision; returns ``module``. Models are built float32."""
    for _, p in module.named_parameters():
        p.data = p.data.astype(np.float64)
    for _, sub in module.modules():
        buffers = getattr(sub, "_buffers", {})
        for name in buffers:
            buffers[name] = buffers[name].astype(np.float64)
    return module


def grad_check(f, xs, eps=1e-5, sample=None, seed=0):
    """Max relative error between analytic and central-difference gradients.

    ``f`` must be a pure function of the given tensors returning a scalar
    Tensor. Inputs are promoted to float64 leaves. ``sample`` caps the number
    of coordinates checked per input (seeded subsample); default checks all.
    Relative error is |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if isinstance(xs, Tensor):
        xs = [xs]
    leaves = []
    for x in xs:
        arr = np.asarray(x.data if isinstance(x, Tensor) else x, np.float64)
        leaves.append(Tensor(arr.copy(), requires_grad=True))

    out = f(*leaves)
    if out.size != 1:
        raise ShapeError("grad_check needs a scalar-valued function")
    for leaf in leaves:
        leaf.grad = None
    backward(out)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        n = flat.size
        coords = np.arange(n)
        if sample is not None and sample < n:
            coords = rng.choice(n, size=sample, replace=False)
        aflat = analytic.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(*leaves).data.reshape(()))
            flat[i] = orig - eps
            f_minus = float(f(*leaves).data.reshape(()))
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
