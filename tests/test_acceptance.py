"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Criteria 1-7 are property checks against independent oracles; criteria
8-10 share one desk-scale benchmark (200 phantom volumes at 32^3,
5-fold cross-validation of the 3-D CNN and 3-D Swin presets) driven
end-to-end through the command-line interface.
"""

import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np
import pytest

from oracles import (
    as_float64,
    attention_loops,
    auroc_pairs,
    conv3d_loops,
    grad_check,
    pool3d_loops,
    shifted_window_attention_loops,
    topk_attention_distances,
)
from volab import cli, nn
from volab import tensor as T
from volab.analysis import attention_distances, cka_pair, erf_map
from volab.labels import GmmModel, gmm_posterior, read_manifest
from volab.metrics import (
    auroc,
    brier_and_reliability,
    regression_metrics,
    stratified_sens_spec,
)
from volab.models import (
    AttentionRecord,
    ModelConfig,
    build_model,
    desk_config,
    paper_config,
)
from volab.tensor import Tensor, backward
from volab.training import (
    EarlyStopper,
    Sample,
    TrainConfig,
    make_input,
    predict,
    train_fold,
)
from volab.volume import Volume, crop_or_pad, read_volume, resample_trilinear


@contextlib.contextmanager
def criterion(num, label):
    """Print exactly one [PASS]/[FAIL] line per criterion, bypassing the
    test runner's capture so the gate summary always reaches the console."""
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {label}", file=sys.__stdout__,
              flush=True)
        raise
    print(f"[PASS] criterion {num:2d}: {label}", file=sys.__stdout__,
          flush=True)


def _t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradients


def _primitive_cases():
    """(name, f, args) triples covering every differentiable primitive.

    Each f reduces through a random probe so every output coordinate
    carries weight in the scalar; probes bind once per case (default
    argument) so repeated evaluations see identical values. Inputs sit
    away from relu kinks and max-pool ties where central differences
    are undefined.
    """
    cases = []

    def case(name, builder):
        r = np.random.default_rng(20260815 + len(cases))
        f, args = builder(r)
        cases.append((name, f, [np.asarray(a, np.float64) for a in args]))

    def dot(out, probe):
        return T.tsum(T.mul(out, probe))

    def offkink(a, margin=0.25):
        return a + margin * np.sign(a)

    def distinct(r, shape):
        n = int(np.prod(shape))
        return (r.permutation(n).reshape(shape) / n) * 2.0 - 1.0

    case("add", lambda r: (
        lambda a, b, p=_t64(r.normal(size=(3, 4))): dot(T.add(a, b), p),
        [r.normal(size=(3, 4)), r.normal(size=(3, 4))]))
    case("add_suffix_broadcast", lambda r: (
        lambda a, b, p=_t64(r.normal(size=(2, 3, 4))): dot(T.add(a, b), p),
        [r.normal(size=(2, 3, 4)), r.normal(size=(4,))]))
    case("sub", lambda r: (
        lambda a, b, p=_t64(r.normal(size=(3, 4))): dot(T.sub(a, b), p),
        [r.normal(size=(3, 4)), r.normal(size=(3, 4))]))
    case("mul", lambda r: (
        lambda a, b, p=_t64(r.normal(size=(5, 2))): dot(T.mul(a, b), p),
        [r.normal(size=(5, 2)), r.normal(size=(5, 2))]))
    case("matmul", lambda r: (
        lambda a, b, p=_t64(r.normal(size=(3, 5))): dot(T.matmul(a, b), p),
        [r.normal(size=(3, 4)), r.normal(size=(4, 5))]))
    case("matmul_batched", lambda r: (
        lambda a, b, p=_t64(r.normal(size=(2, 3, 2))):
            dot(T.matmul(a, b), p),
        [r.normal(size=(2, 3, 4)), r.normal(size=(2, 4, 2))]))
    case("matmul_stacked_by_2d", lambda r: (
        lambda a, b, p=_t64(r.normal(size=(2, 3, 5))):
            dot(T.matmul(a, b), p),
        [r.normal(size=(2, 3, 4)), r.normal(size=(4, 5))]))
    case("relu", lambda r: (
        lambda x, p=_t64(r.normal(size=(4, 4))): dot(T.relu(x), p),
        [offkink(r.normal(size=(4, 4)))]))
    case("gelu", lambda r: (
        lambda x, p=_t64(r.normal(size=(4, 4))): dot(T.gelu(x), p),
        [r.normal(size=(4, 4))]))
    case("sigmoid", lambda r: (
        lambda x, p=_t64(r.normal(size=(3, 3))): dot(T.sigmoid(x), p),
        [r.normal(size=(3, 3))]))
    case("tanh", lambda r: (
        lambda x, p=_t64(r.normal(size=(3, 3))): dot(T.tanh(x), p),
        [r.normal(size=(3, 3))]))
    case("softmax", lambda r: (
        lambda x, p=_t64(r.normal(size=(3, 5))):
            dot(T.softmax(x, axis=-1), p),
        [r.normal(size=(3, 5))]))
    case("layer_norm", lambda r: (
        lambda x, g, b, p=_t64(r.normal(size=(4, 6))):
            dot(T.layer_norm(x, g, b), p),
        [r.normal(size=(4, 6)), r.normal(size=6) + 1.5, r.normal(size=6)]))
    case("batch_norm", lambda r: (
        lambda x, g, b, p=_t64(r.normal(size=(4, 3, 5))): dot(
            T.batch_norm(x, g, b, (x.data.mean(axis=(0, 2)),
                                   x.data.var(axis=(0, 2))), frozen=False),
            p),
        [r.normal(size=(4, 3, 5)), r.normal(size=3) + 1.5,
         r.normal(size=3)]))
    case("batch_norm_frozen", lambda r: (
        lambda x, g, b, p=_t64(r.normal(size=(4, 3, 5))): dot(
            T.batch_norm(x, g, b, (np.full(3, 0.2), np.full(3, 1.3))),
            p),
        [r.normal(size=(4, 3, 5)), r.normal(size=3) + 1.5,
         r.normal(size=3)]))
    case("reshape", lambda r: (
        lambda x, p=_t64(r.normal(size=(2, 6))):
            dot(T.reshape(x, (2, 6)), p),
        [r.normal(size=(3, 4))]))
    case("transpose", lambda r: (
        lambda x, p=_t64(r.normal(size=(5, 3, 4))):
            dot(T.transpose(x, (2, 0, 1)), p),
        [r.normal(size=(3, 4, 5))]))
    case("concat", lambda r: (
        lambda a, b, p=_t64(r.normal(size=(3, 7))):
            dot(T.concat([a, b], axis=1), p),
        [r.normal(size=(3, 4)), r.normal(size=(3, 3))]))
    case("narrow", lambda r: (
        lambda x, p=_t64(r.normal(size=(4, 3))):
            dot(T.narrow(x, 1, 1, 3), p),
        [r.normal(size=(4, 6))]))
    case("roll", lambda r: (
        lambda x, p=_t64(r.normal(size=(4, 6))):
            dot(T.roll(x, (1, -2), (0, 1)), p),
        [r.normal(size=(4, 6))]))
    case("take_with_repeats", lambda r: (
        lambda x, p=_t64(r.normal(size=(4, 5))):
            dot(T.take(x, np.array([2, 0, 1, 2]), axis=0), p),
        [r.normal(size=(4, 5))]))
    case("expand_batch", lambda r: (
        lambda x, p=_t64(r.normal(size=(4, 2, 3))):
            dot(T.expand_batch(x, 4), p),
        [r.normal(size=(2, 3))]))
    case("tsum_axes", lambda r: (
        lambda x, p=_t64(r.normal(size=(4,))):
            dot(T.tsum(x, axis=(0, 2)), p),
        [r.normal(size=(3, 4, 5))]))
    case("mean_axis", lambda r: (
        lambda x, p=_t64(r.normal(size=(3, 5))):
            dot(T.mean(x, axis=1), p),
        [r.normal(size=(3, 4, 5))]))
    case("dropout_live_mask", lambda r: (
        lambda x, p=_t64(r.normal(size=(6, 6))):
            dot(T.dropout(x, 0.3, np.random.default_rng(7),
                          training=True), p),
        [r.normal(size=(6, 6))]))
    case("conv3d", lambda r: (
        lambda x, w, p=_t64(r.normal(size=(2, 3, 4, 2, 4))): dot(
            T.conv3d(x, w, stride=(1, 2, 1), padding=(1, 0, 1)), p),
        [r.normal(size=(2, 2, 4, 5, 4)), r.normal(size=(3, 2, 3, 2, 3))]))
    case("conv2d", lambda r: (
        lambda x, w, p=_t64(r.normal(size=(2, 3, 3, 3))):
            dot(T.conv2d(x, w, stride=2, padding=1), p),
        [r.normal(size=(2, 2, 6, 6)), r.normal(size=(3, 2, 3, 3))]))
    case("pool3d_max", lambda r: (
        lambda x, p=_t64(r.normal(size=(2, 2, 2, 2, 2))):
            dot(T.pool3d(x, (2, 2, 2), (2, 2, 2)), p),
        [distinct(r, (2, 2, 4, 4, 4))]))
    case("pool2d_max", lambda r: (
        lambda x, p=_t64(r.normal(size=(2, 3, 3, 2))):
            dot(T.pool2d(x, (2, 2), (2, 2)), p),
        [distinct(r, (2, 3, 6, 4))]))
    return cases


DESK_FAMILIES = ("cnn3d", "hybrid_lstm", "hybrid_transformer", "vit3d",
                 "swin3d")


def _model_fd_worst(name, n_param_coords=12, n_input_coords=6):
    """Worst relative finite-difference error of one desk model in
    float64: the input gradient (eval mode) plus sampled parameter
    gradients on the training path (train mode, fixed dropout stream).

    A coordinate failing at eps=1e-5 is retried at smaller eps: a relu
    kink or pool tie inside the +/-eps window breaks the central
    difference without the gradient being wrong, and shrinking the
    window removes it; a genuine gradient bug persists at every eps.
    """
    cfg = desk_config(name)
    model = as_float64(build_model(cfg, seed=7))
    rng = np.random.default_rng(17)
    x = rng.normal(0.0, 1.0, size=(1, 1) + cfg.input_shape)
    y = np.array([0.7], dtype=np.float64)

    def loss_eval(arr):
        res = model.forward(arr if isinstance(arr, Tensor) else Tensor(arr),
                            training=False)
        d = T.sub(res.pred, Tensor(y))
        return T.tsum(T.mul(d, d))

    def loss_train():
        res = model.forward(Tensor(x), training=True,
                            rng=np.random.default_rng(11))
        d = T.sub(res.pred, Tensor(y))
        return T.tsum(T.mul(d, d))

    worst = grad_check(loss_eval, [x], eps=1e-5, sample=n_input_coords,
                       seed=3)

    params = dict(model.named_parameters())
    for p in params.values():
        p.grad = None
    backward(loss_train())
    names = sorted(params)
    picked = rng.choice(len(names), size=min(n_param_coords, len(names)),
                        replace=False)
    for ai in picked:
        p = params[names[ai]]
        flat = p.data.reshape(-1)
        c = int(rng.integers(flat.size))
        g = p.grad.reshape(-1)[c] if p.grad is not None else 0.0
        err = math.inf
        for eps in (1e-5, 3e-6, 1e-6):
            orig = flat[c]
            flat[c] = orig + eps
            fp = float(loss_train().data.reshape(-1)[0])
            flat[c] = orig - eps
            fm = float(loss_train().data.reshape(-1)[0])
            flat[c] = orig
            num = (fp - fm) / (2.0 * eps)
            err = min(err, abs(g - num) / max(abs(g), abs(num), 1e-8))
            if err < 1e-3:
                break
        worst = max(worst, err)
    return worst


def test_criterion_01_gradients():
    with criterion(1, "finite-difference gradients: primitives < 1e-4, "
                      "desk models < 1e-3, under 5 min"):
        t0 = time.monotonic()
        failures = []
        for name, f, args in _primitive_cases():
            err = grad_check(f, args, eps=1e-5)
            if err >= 1e-4:
                failures.append((name, err))
        assert not failures, f"primitive gradient failures: {failures}"
        for name in DESK_FAMILIES:
            err = _model_fd_worst(name)
            assert err < 1e-3, f"{name}: model gradient error {err}"
        assert time.monotonic() - t0 < 300.0


# ---------------------------------------------------------------------------
# criterion 2: oracle equivalence on >= 50 randomized instances each


def _assert_close(got, want, tol, what, i):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, (what, i, got.shape, want.shape)
    diff = float(np.abs(got - want).max()) if got.size else 0.0
    assert diff <= tol, f"{what} instance {i}: max abs diff {diff}"


def _check_conv3d_bank(n, tol):
    for i in range(n):
        r = np.random.default_rng(3000 + i)
        nb = int(r.integers(1, 3))
        cin, cout = int(r.integers(1, 3)), int(r.integers(1, 4))
        spatial = tuple(int(r.integers(3, 7)) for _ in range(3))
        kernel = tuple(int(r.integers(1, min(3, s) + 1)) for s in spatial)
        stride = tuple(int(r.integers(1, 3)) for _ in range(3))
        padding = tuple(int(r.integers(0, 2)) for _ in range(3))
        x = r.normal(size=(nb, cin) + spatial)
        w = r.normal(size=(cout, cin) + kernel)
        got = T.conv3d(_t64(x), _t64(w), stride=stride, padding=padding).data
        want = conv3d_loops(x, w, stride=stride, padding=padding)
        _assert_close(got, want, tol, "conv3d", i)


def _check_pool3d_bank(n, tol):
    for i in range(n):
        r = np.random.default_rng(4000 + i)
        nb, c = int(r.integers(1, 3)), int(r.integers(1, 3))
        spatial = tuple(int(r.integers(3, 7)) for _ in range(3))
        window = tuple(int(r.integers(1, min(3, s) + 1)) for s in spatial)
        stride = tuple(int(r.integers(1, 3)) for _ in range(3))
        x = r.normal(size=(nb, c) + spatial)
        got = T.pool3d(_t64(x), window, stride).data
        want = pool3d_loops(x, "max", window, stride)
        _assert_close(got, want, tol, "pool3d_max", i)


def _check_attention_bank(n, tol):
    # the core scaled-dot-product operator, composed from primitives
    for i in range(n):
        r = np.random.default_rng(5000 + i)
        L, dh = int(r.integers(2, 8)), int(r.integers(2, 6))
        q, k, v = (r.normal(size=(L, dh)) for _ in range(3))
        scores = T.mul(T.matmul(_t64(q), T.transpose(_t64(k), (1, 0))),
                       _t64(np.asarray(1.0 / np.sqrt(dh))))
        got = T.matmul(T.softmax(scores, axis=-1), _t64(v)).data
        _assert_close(got, attention_loops(q, k, v), tol, "attention", i)


def _check_attention_block_bank(n, tol):
    # the full multi-head block (fused qkv, head split, output projection)
    for i in range(n):
        r = np.random.default_rng(5500 + i)
        heads = int(r.integers(1, 3))
        dh = int(r.integers(2, 5))
        d = heads * dh
        L = int(r.integers(3, 8))
        rng_init = np.random.default_rng(6000 + i)
        qkv = as_float64(nn.Linear(rng_init, d, 3 * d))
        proj = as_float64(nn.Linear(rng_init, d, d))
        x = r.normal(size=(1, L, d))
        got = nn.multi_head_attention(_t64(x), qkv, proj, heads)[0].data[0]
        fused = x[0] @ qkv.weight.data + qkv.bias.data
        fused = fused.reshape(L, 3, heads, dh)
        out = np.concatenate(
            [attention_loops(fused[:, 0, h], fused[:, 1, h],
                             fused[:, 2, h]) for h in range(heads)], axis=1)
        want = out @ proj.weight.data + proj.bias.data
        _assert_close(got, want, tol, "attention_block", i)


def _shifted_window_instances():
    for grid, window in (((4, 4, 4), (2, 2, 2)), ((6, 6, 6), (3, 3, 3)),
                         ((8, 8, 8), (4, 4, 4))):
        shifts = np.stack(np.meshgrid(*[np.arange(w) for w in window],
                                      indexing="ij"), -1).reshape(-1, 3)
        for shift in shifts:
            yield grid, window, tuple(int(s) for s in shift)


def _shifted_window_forward(tokens, grid, window, shift):
    """Cyclic shift + partition + additive mask + inverse shift."""
    nd = len(grid)
    d = tokens.shape[-1]
    axes = tuple(range(1, 1 + nd))
    x = _t64(tokens.reshape((1,) + grid + (d,)))
    h = T.roll(x, tuple(-s for s in shift), axes)
    wins, counts = nn.window_partition(h, window)
    g, wl = int(np.prod(counts)), int(np.prod(window))
    scores = T.matmul(wins, T.transpose(wins, (0, 2, 1)))
    scores = T.mul(scores, _t64(np.asarray(1.0 / np.sqrt(d))))
    if any(shift):
        mask = nn.shift_window_mask(grid, window, shift)
        scores = T.reshape(scores, (1, g, wl, wl))
        scores = T.add(scores, Tensor(mask))
        scores = T.reshape(scores, (g, wl, wl))
    attn = T.softmax(scores, axis=-1)
    out = nn.window_unpartition(T.matmul(attn, wins), window, counts, 1)
    return T.roll(out, shift, axes).data.reshape(tokens.shape)


def _check_shifted_window_bank(tol):
    count = 0
    rng = np.random.default_rng(77)
    for grid, window, shift in _shifted_window_instances():
        tokens = rng.normal(size=(int(np.prod(grid)), 5))
        got = _shifted_window_forward(tokens, grid, window, shift)
        want = shifted_window_attention_loops(tokens, grid, window, shift)
        _assert_close(got, want, tol, f"shifted_window{grid}{shift}", count)
        count += 1
    assert count >= 50, count


def _check_auroc_bank(n, tol):
    for i in range(n):
        r = np.random.default_rng(2000 + i)
        m = int(r.integers(6, 40))
        scores = r.choice(np.linspace(0.0, 1.0, 7), size=m)  # forces ties
        labels = r.integers(0, 2, size=m)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = auroc(scores, labels)
        want = auroc_pairs(scores, labels)
        assert abs(got - want) <= tol, (i, got, want)


def _check_topk_distance_bank(n, tol):
    for i in range(n):
        r = np.random.default_rng(1000 + i)
        L = int(r.integers(4, 12))
        nd = int(r.integers(1, 4))
        logits = r.normal(size=(1, 1, L, L))
        attn = np.exp(logits)
        attn /= attn.sum(-1, keepdims=True)
        if r.random() < 0.5:  # exercise the positive-weight filter
            attn[0, 0][r.random(size=(L, L)) < 0.3] = 0.0
        cents = r.uniform(0.0, 30.0, size=(L, nd))
        if r.random() < 0.5:  # a NaN centroid row marks a class token
            cents[0] = np.nan
        k = int(r.integers(1, 6))
        rec = AttentionRecord(layer="t", attn=attn, centroids=cents)
        got = attention_distances([rec], k=k)
        want = topk_attention_distances(attn[0, 0], cents, k=k)
        _assert_close(got, want, tol, "topk_distance", i)


def test_criterion_02_oracle_equivalence():
    with criterion(2, "conv3d/pool3d/attention/shifted-window/AUROC/"
                      "top-k distance match brute-force oracles <= 1e-5"):
        tol = 1e-5
        _check_conv3d_bank(50, tol)
        _check_pool3d_bank(50, tol)
        _check_attention_bank(50, tol)
        _check_attention_block_bank(50, tol)
        _check_shifted_window_bank(tol)
        _check_auroc_bank(50, tol)
        _check_topk_distance_bank(50, tol)


# ---------------------------------------------------------------------------
# criterion 3: shifted-window mechanics


def test_criterion_03_swin_mechanics():
    with criterion(3, "shift inverse identity, masked window attention, "
                      "patch merging on the 28x28x20 grid"):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(1, 6, 8, 4, 2)))
        shift, axes = (2, 3, 1), (1, 2, 3)
        back = T.roll(T.roll(x, tuple(-s for s in shift), axes), shift,
                      axes)
        assert np.array_equal(back.data, x.data)

        grid, window, shift = (4, 4, 4), (2, 2, 2), (1, 1, 1)
        tokens = rng.normal(size=(int(np.prod(grid)), 5))
        got = _shifted_window_forward(tokens, grid, window, shift)
        want = shifted_window_attention_loops(tokens, grid, window, shift)
        assert float(np.abs(got - want).max()) <= 1e-10

        dim = 6
        pm = as_float64(nn.PatchMerge(np.random.default_rng(0), dim, nd=3))
        tokens = Tensor(rng.normal(size=(1, 28, 28, 20, dim)))
        merged, half = pm(tokens)
        assert half == (14, 14, 10)
        assert merged.shape == (1, 14, 14, 10, 2 * dim)


# ---------------------------------------------------------------------------
# criterion 4: representation-similarity properties


def test_criterion_04_cka_properties():
    with criterion(4, "CKA self=1, orthogonal/scale invariance, "
                      "independent null below the MC threshold"):
        rng = np.random.default_rng(55)
        x = rng.normal(size=(40, 16))
        y = rng.normal(size=(40, 9))
        assert abs(cka_pair(x, x) - 1.0) <= 1e-10
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        assert abs(cka_pair(x @ q, y) - cka_pair(x, y)) <= 1e-8
        assert abs(cka_pair(3.7 * x, 0.25 * y) - cka_pair(x, y)) <= 1e-8

        null_rng = np.random.default_rng(424242)
        null = [cka_pair(null_rng.normal(size=(200, 50)),
                         null_rng.normal(size=(200, 50)))
                for _ in range(200)]
        threshold = float(np.quantile(null, 0.99))
        fresh_rng = np.random.default_rng(13)
        fresh = cka_pair(fresh_rng.normal(size=(200, 50)),
                         fresh_rng.normal(size=(200, 50)))
        assert fresh < threshold, (fresh, threshold)


# ---------------------------------------------------------------------------
# criterion 5: mixture-posterior labels


def test_criterion_05_posterior_labels():
    with criterion(5, "posterior+complement=1, symmetric midpoint 0.5, "
                      "x=3 equals 0.98201 vs direct densities"):
        m = GmmModel(np.array([0.5, 0.5]), np.array([[0.0], [4.0]]),
                     np.array([1.0, 1.0]))
        swapped = GmmModel(m.weights[::-1].copy(), m.means[::-1].copy(),
                           m.covariances[::-1].copy())
        xs = np.linspace(-50.0, 50.0, 41).reshape(-1, 1)
        total = gmm_posterior(xs, m) + gmm_posterior(xs, swapped)
        assert float(np.abs(total - 1.0).max()) <= 1e-12

        assert abs(gmm_posterior(np.array([2.0]), m) - 0.5) <= 1e-12

        # direct-density oracle: normalized component densities at x=3
        d0 = math.exp(-0.5 * 9.0) / math.sqrt(2.0 * math.pi)
        d1 = math.exp(-0.5 * 1.0) / math.sqrt(2.0 * math.pi)
        want = 0.5 * d1 / (0.5 * d0 + 0.5 * d1)
        got = gmm_posterior(np.array([3.0]), m)
        assert abs(got - want) <= 1e-12
        assert abs(got - 0.98201) <= 1e-5


# ---------------------------------------------------------------------------
# criterion 6: full-scale pipeline shapes


def test_criterion_06_pipeline_shapes():
    with criterion(6, "preprocessing yields 112x112x80; full-scale ViT "
                      "980 tokens + CLS; Swin 245 windows of 64"):
        raw = Volume(np.zeros((24, 1800, 1024), np.float32),
                     (1.5015, 16.0 / 1800.0, 7.0 / 1024.0))
        iso = resample_trilinear(raw, 0.143)
        shaped = crop_or_pad(iso, (112, 112, 80))
        assert shaped.data.shape == (112, 112, 80)

        vit = paper_config("vit3d")
        assert int(np.prod(vit.token_grid())) == 980
        model = build_model(vit, seed=0)
        assert model.pos.shape == (981, vit.embed_dim)  # 980 + CLS
        assert model.cls.shape == (1, vit.embed_dim)

        swin = paper_config("swin3d")
        grid = swin.token_grid()
        assert grid == (28, 28, 20)
        windows = int(np.prod([g // w for g, w in
                               zip(grid, swin.window_size)]))
        assert windows == 245
        assert int(np.prod(swin.window_size)) == 64


# ---------------------------------------------------------------------------
# criterion 7: training behavior


def _toy_samples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        y = float(i % 2)
        x = rng.normal(0.0, 0.05, size=(1, 32, 32)).astype(np.float32)
        x += np.float32(2.0 * y - 1.0)
        out.append(Sample(f"P{i:03d}", "OD", x, y))
    return out


def test_criterion_07_training_behavior():
    with criterion(7, "accumulation equivalence, early-stopping rule on "
                      "scripted traces, checkpoint = argmin val MSE"):
        samples = _toy_samples(8, seed=11)
        states = []
        for phys, acc in ((4, 2), (8, 1)):
            model = build_model(desk_config("vit2d"), seed=12)
            cfg = TrainConfig(lr_max=1e-3, lr_min=1e-3, weight_decay=0.01,
                              physical_batch=phys, accumulation_steps=acc,
                              max_epochs=1, seed=13)
            train_fold(model, samples, samples, cfg)
            states.append({k: v.copy()
                           for k, v in model.state_arrays().items()})
        assert states[0].keys() == states[1].keys()
        for k in states[0]:
            assert np.allclose(states[0][k], states[1][k], atol=1e-5), k

        # stop only after patience consecutive sub-min_delta improvements
        stopper = EarlyStopper(min_delta=1e-3, patience=3)
        flags = [stopper.update(v)
                 for v in (0.50, 0.4995, 0.4991, 0.4989)]
        assert flags == [False, False, False, True]
        stopper = EarlyStopper(min_delta=1e-3, patience=3)
        flags = [stopper.update(v)
                 for v in (0.50, 0.4995, 0.45, 0.4497, 0.4495, 0.4494)]
        assert flags == [False, False, False, False, False, True]

        model = build_model(desk_config("vit2d"), seed=21)
        cfg = TrainConfig(lr_max=3e-3, lr_min=1e-3, max_epochs=5,
                          physical_batch=4, accumulation_steps=1,
                          patience=5, seed=22)
        val = _toy_samples(6, seed=23)
        res = train_fold(model, _toy_samples(8, seed=24), val, cfg)
        vals = [h[2] for h in res.history]
        assert res.best_val_mse == min(vals)
        assert res.best_epoch == res.history[int(np.argmin(vals))][0]
        pred = predict(model, val, batch=4)
        targets = np.array([s.y for s in val], dtype=np.float64)
        restored_mse = float(np.mean((pred - targets) ** 2))
        assert restored_mse == res.best_val_mse


# ---------------------------------------------------------------------------
# criteria 8-10: desk-scale benchmark through the command line


BENCH_DATA_SEED = 404
BENCH_SEEDS = {"cnn3d": 405, "swin3d": 406}
BENCH_TRAIN = {"lr_max": 1e-3, "lr_min": 2e-4, "max_epochs": 6,
               "physical_batch": 8, "accumulation_steps": 1, "patience": 3}


def _run_benchmark(base):
    """Phantom cohort + both model runs + report; returns train timings."""
    base.mkdir(parents=True, exist_ok=True)
    assert cli.main(["phantom", "--n", "200", "--shape", "32,32,32",
                     "--seed", str(BENCH_DATA_SEED),
                     "--out", str(base / "data")]) == 0
    timings = {}
    for preset, seed in BENCH_SEEDS.items():
        cfg_path = base / f"exp_{preset}.json"
        with open(cfg_path, "w") as fh:
            json.dump({"seed": seed, "out_dir": f"runs/{preset}",
                       "dataset": {"manifest": "data/manifest.csv"},
                       "model": {"preset": preset}, "train": BENCH_TRAIN,
                       "n_folds": 5}, fh, indent=2)
        t0 = time.monotonic()
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        timings[preset] = time.monotonic() - t0
    assert cli.main(["report", "--runs", str(base / "runs"),
                     "--out", str(base / "report")]) == 0
    return timings


@pytest.fixture(scope="module")
def desk_e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    timings = _run_benchmark(root / "first")
    return {"root": root, "first": root / "first", "timings": timings}


def _pooled(run_dir):
    pred, target = [], []
    _, rows = _read_csv(os.path.join(run_dir, "pooled_predictions.csv"))
    for row in rows:
        target.append(float(row[2]))
        pred.append(float(row[3]))
    return np.asarray(pred), np.asarray(target)


def test_criterion_08_desk_benchmark(desk_e2e):
    with criterion(8, "200-phantom benchmark: both models < 10 min, "
                      "pooled AUROC >= 0.90, report equals recomputation"):
        first = desk_e2e["first"]
        for preset, seconds in desk_e2e["timings"].items():
            assert seconds < 600.0, f"{preset} trained in {seconds:.0f}s"

        header2, rows2 = _read_csv(first / "report" / "table2.csv")
        assert header2 == ["model", "dim", "params", "mse", "mae", "r2",
                           "pearson", "brier", "auroc"]
        assert [r[0] for r in rows2] == sorted(BENCH_SEEDS)
        header3, rows3 = _read_csv(first / "report" / "table3.csv")
        assert header3 == ["model", "dim", "bin", "sensitivity",
                           "specificity", "count", "balanced_accuracy"]

        for row in rows2:
            preset = row[0]
            run_dir = first / "runs" / preset
            pred, target = _pooled(run_dir)
            assert auroc(pred, target) >= 0.90, preset

            # independent recomputation from the pooled prediction files
            with open(run_dir / "resolved_config.json") as fh:
                run_cfg = json.load(fh)
            model_cfg = ModelConfig(**run_cfg["model"])
            want = dict(regression_metrics(pred, target))
            want["brier"] = brier_and_reliability(pred, target)[0]
            want["auroc"] = auroc(pred, target)
            assert int(row[1]) == model_cfg.input_dims
            assert int(row[2]) == build_model(model_cfg,
                                              seed=0).param_count()
            for j, key in enumerate(("mse", "mae", "r2", "pearson",
                                     "brier", "auroc")):
                assert float(row[3 + j]) == want[key], (preset, key)

            bins, balanced = stratified_sens_spec(pred, target)
            mine = [r for r in rows3 if r[0] == preset]
            assert [r[2] for r in mine] == [b for b in
                                            ("healthy", "subclinical",
                                             "keratoconus") if b in bins]
            for r in mine:
                entry = bins[r[2]]
                assert float(r[3]) == entry["sensitivity"]
                spec = entry["specificity"]
                assert r[4] == ("" if spec is None else repr(spec))
                assert int(r[5]) == entry["count"]
                assert float(r[6]) == balanced


def _fd_check_erf(model, x, emap, scalar_fn, picks, tol):
    eps = 1e-5
    for voxel in picks:
        arr = x.copy()
        arr[(0, *voxel)] += eps
        f_plus = scalar_fn(arr)
        arr[(0, *voxel)] -= 2.0 * eps
        f_minus = scalar_fn(arr)
        fd = abs((f_plus - f_minus) / (2.0 * eps))
        grad = emap.gradient[tuple(voxel)]
        assert abs(grad - fd) / max(grad, fd, 1e-8) <= tol, tuple(voxel)


def test_criterion_09_mechanistic_reports(desk_e2e):
    with criterion(9, "receptive-field table with verified gradients, "
                      "attention distances in all bins, CKA symmetric "
                      "unit-diagonal"):
        first = desk_e2e["first"]
        analysis = desk_e2e["root"] / "analysis"

        # stage-radius table per trained model
        for preset in BENCH_SEEDS:
            out = analysis / f"erf_{preset}"
            assert cli.main(["analyze", "--checkpoint",
                             str(first / "runs" / preset / "fold0.ckpt"),
                             "--instrument", "erf",
                             "--out", str(out)]) == 0
            header, rows = _read_csv(out / "erf_table.csv")
            assert header == ["model", "dim", "stage1", "stage2", "stage3",
                              "stage4", "et_ratio"]
            assert len(rows) == 1 and rows[0][0] == preset
            radii = [float(v) for v in rows[0][2:6]]
            assert all(r > 0.0 and math.isfinite(r) for r in radii)
            assert float(rows[0][6]) > 0.0

        # threshold monotonicity + finite-difference gradient verification
        # on the trained CNN, cast to float64
        run_dir = first / "runs" / "cnn3d"
        with open(run_dir / "resolved_config.json") as fh:
            run_cfg = json.load(fh)
        cfg = ModelConfig(**run_cfg["model"])
        model = build_model(cfg, seed=0)
        model.load(run_dir / "fold0.ckpt")
        as_float64(model)
        records = read_manifest(first / "data" / "manifest.csv")
        vol = read_volume(first / "data" / records[0].volume_path)
        x = make_input(vol, cfg).astype(np.float64)

        previous = None
        for threshold in (0.01, 0.05, 0.2):
            [emap] = erf_map(model, x, ["output"], threshold=threshold)
            if previous is not None:
                assert not (emap.mask & ~previous.mask).any()
                assert emap.erf_radius <= previous.erf_radius
                assert emap.erf_size <= previous.erf_size
            previous = emap

        [emap] = erf_map(model, x, ["output"], threshold=0.01)
        rng = np.random.default_rng(5)
        mask_idx = np.argwhere(emap.mask)
        picks = mask_idx[rng.choice(len(mask_idx), size=4, replace=False)]

        def predict_scalar(arr):
            out = model.forward(Tensor(arr[None]), training=False)
            return float(out.pred.data.reshape(-1)[0])

        _fd_check_erf(model, x, emap, predict_scalar, picks, tol=1e-3)

        [emap2] = erf_map(model, x, ["stage2"], threshold=0.01)

        def stage2_center(arr):
            res = model.forward(Tensor(arr[None]), training=False)
            tap = {s.name: s for s in res.stages}["stage2"]
            h = tap.data.data
            center = tuple(s // 2 for s in h.shape[2:])
            return float(h[(0, slice(None), *center)].sum())

        _fd_check_erf(model, x, emap2, stage2_center, picks, tol=1e-3)

        # attention distances on the window-attention model
        out = analysis / "attn_swin3d"
        assert cli.main(["analyze", "--checkpoint",
                         str(first / "runs" / "swin3d" / "fold0.ckpt"),
                         "--instrument", "attn",
                         "--out", str(out)]) == 0
        header, rows = _read_csv(out / "attn_table.csv")
        assert header == ["model", "dim", "bin", "mean", "sd", "median",
                          "pct_gt20", "max"]
        assert [r[2] for r in rows] == ["healthy", "subclinical",
                                        "keratoconus"]
        for row in rows:
            stats = [float(v) for v in row[3:]]
            assert all(math.isfinite(v) for v in stats)
            assert stats[0] > 0.0 and stats[4] >= stats[2] > 0.0
            assert 0.0 <= stats[3] <= 1.0

        # cross-fold representation similarity
        out = analysis / "cka_swin3d"
        assert cli.main(["analyze", "--checkpoint",
                         str(first / "runs" / "swin3d" / "fold0.ckpt"),
                         str(first / "runs" / "swin3d" / "fold1.ckpt"),
                         "--instrument", "cka",
                         "--out", str(out)]) == 0
        header, rows = _read_csv(out / "cka_matrix.csv")
        ids = header[1:]
        mat = np.array([[float(v) for v in r[1:]] for r in rows])
        assert [r[0] for r in rows] == ids and mat.shape == (len(ids),) * 2
        assert np.array_equal(mat, mat.T)
        assert float(np.abs(np.diag(mat) - 1.0).max()) <= 1e-10
        assert mat.min() >= 0.0 and mat.max() <= 1.0 + 1e-9


def test_criterion_10_determinism(desk_e2e):
    with criterion(10, "same master seeds rerun byte-identical manifests, "
                       "checkpoints, and report tables"):
        first = desk_e2e["first"]
        second = desk_e2e["root"] / "second"
        _run_benchmark(second)

        compare = ["data/manifest.csv", "report/table2.csv",
                   "report/table3.csv", "report/reliability.csv"]
        for preset in BENCH_SEEDS:
            compare.append(f"runs/{preset}/pooled_predictions.csv")
            for k in range(5):
                compare.append(f"runs/{preset}/fold{k}.ckpt")
        for rel in compare:
            assert _sha(first / rel) == _sha(second / rel), rel
