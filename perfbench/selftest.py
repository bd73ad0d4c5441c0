"""Self-test of the benchmark's tracer, counters and failure accounting.

    python3 perfbench/selftest.py

Checks, each printed as PASS/FAIL:
  1. installing then removing the wrappers restores every patched
     attribute (identity), and installing reaches every namespace that
     bound a wrapped name;
  2. the self times of a span tree sum to the root span's duration;
  3. the conv3d flop and im2col-byte counts match hand-computed values
     for a cnn3d stage shape;
  4. BENCHMARK.json names exactly the metrics the benchmark prints;
  5. a traced cv_cnn3d run writes pooled_predictions.csv byte-identical
     to its untraced pass with the same seed;
  6. a failing operation (a missing manifest, exit 2) counts in fail_frac
     and is not timed as a success.
Takes about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import tracer as tracing
import workloads as wl

sys.path.insert(0, os.path.join(run.ROOT, "src"))

# Self times are differences of the same clock readings, so they telescope
# to the root's duration up to float rounding.
SELF_TIME_TOLERANCE_S = 1e-6
SEED = 11


def check_restore():
    import volab.models
    import volab.nn
    import volab.tensor
    import volab.training

    originals = {(m, a): getattr(m, a) for m, a in (
        (volab.tensor, "matmul"), (volab.nn, "matmul"),
        (volab.models, "pool3d"), (volab.training, "backward"))}
    tr = tracing.Tracer().install()
    patched = tr.patched()
    reached = all(getattr(m, a) is not f for (m, a), f in originals.items())
    tr.uninstall()
    restored = all(getattr(owner, attr) is original
                   for owner, attr, original in patched)
    assert reached, "a namespace kept the unwrapped function"
    assert restored, "an attribute was not restored"
    return f"{len(patched)} attributes patched and restored"


def check_self_times():
    import numpy as np
    from volab.models import build_model, desk_config
    from volab.tensor import Tensor

    tr = tracing.Tracer().install()
    try:
        # resolve through the patched namespaces, as the CLI does
        import volab.tensor as tensor_mod
        model = build_model(desk_config("swin3d"), seed=0)
        x = Tensor(np.random.default_rng(0).standard_normal(
            (2, 1, 32, 32, 32)).astype(np.float32))
        root = tr.rec.enter("root")
        res = model.forward(x, training=True, rng=np.random.default_rng(1))
        tensor_mod.backward(tensor_mod.tsum(res.pred))
        tr.rec.exit(root)
    finally:
        tr.uninstall()
    table = tr.rec.span_table()
    root_total = table["root"][1]
    own_sum = sum(own for _, _, own in table.values())
    gap = abs(own_sum - root_total)
    assert len(table) > 10, "too few span kinds recorded"
    assert gap <= SELF_TIME_TOLERANCE_S, f"self times off by {gap:.3g} s"
    return (f"{len(tr.rec.names)} spans; sum of self times - root = "
            f"{gap:.2e} s (tolerance {SELF_TIME_TOLERANCE_S} s)")


def check_conv_counts():
    import numpy as np
    from volab.tensor import Tensor

    # cnn3d stage 2, first conv at batch 8: 8 -> 16 channels, 3x3x3,
    # stride 2, padding 1, on a 16^3 grid, so an 8^3 output.
    # flops = 2*N*O*C*kd*kh*kw*Do*Ho*Wo = 2*8*16*8*27*512
    # im2col = N*C*kd*kh*kw*Do*Ho*Wo float32 = 8*8*27*512*4 bytes
    hand_flops, hand_bytes = 28_311_552, 3_538_944
    flops, cols = tracing.conv3d_counts((8, 8, 16, 16, 16), (16, 8, 3, 3, 3),
                                        2, 1, 4)
    assert (flops, cols) == (hand_flops, hand_bytes), (flops, cols)
    tr = tracing.Tracer().install()
    try:
        import volab.tensor as tensor_mod
        x = Tensor(np.zeros((8, 8, 16, 16, 16), np.float32))
        w = Tensor(np.zeros((16, 8, 3, 3, 3), np.float32), requires_grad=True)
        tensor_mod.conv3d(x, w, stride=2, padding=1)
    finally:
        tr.uninstall()
    counted = (tr.rec.counts["tensor.conv3d.flops"],
               tr.rec.counts["tensor.conv3d.im2col_bytes"])
    assert counted == (hand_flops, hand_bytes), counted
    return f"flops {hand_flops}, im2col {hand_bytes} B"


def check_metric_names():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want_e2e = {k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert e2e == want_e2e, set(e2e) ^ set(want_e2e)
    assert layer == tracing.per_layer_units(), \
        set(layer) ^ set(tracing.per_layer_units())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        wl.WORKLOADS)
    return f"{len(e2e)} end-to-end, {len(layer)} per-layer metrics"


def check_traced_identical():
    result = run.run_workload("cv_cnn3d", SEED, 0, 1)
    assert result["correct"], f"traced run failed: {result['failed']} ops"
    untraced, traced, _ = result["passes"]
    assert traced["traced"] and not untraced["traced"]
    key = os.path.join("runs", "cnn3d", "pooled_predictions.csv")
    assert untraced["hashes"][key] == traced["hashes"][key]
    assert all(p["hashes"] == untraced["hashes"] for p in result["passes"])
    return (f"{len(traced['hashes'])} output files identical, "
            f"pooled sha256 {traced['hashes'][key][:16]}")


def check_failure_counted():
    bad = os.path.join(run.ROOT, ".bench_work", "selftest-missing.json")
    os.makedirs(os.path.dirname(bad), exist_ok=True)
    with open(bad, "w") as fh:
        json.dump({"seed": 1, "out_dir": "selftest-missing-run",
                   "dataset": {"manifest": "no/such/manifest.csv"},
                   "model": {"preset": "cnn3d"}, "n_folds": 3}, fh)
    result = run.run_workload(
        "cv_cnn3d", SEED, 0, 0,
        extra_ops=[("train", "missing", ("train", "--config", bad))])
    os.remove(bad)
    shutil.rmtree(os.path.join(os.path.dirname(bad), "selftest-missing-run"))
    failing = [r for p in result["passes"] for r in p["ops"]
               if r["preset"] == "missing"]
    assert failing and all(r["rc"] == 2 and not r["ok"] for r in failing)
    assert not result["correct"]
    assert result["failed"] == len(failing), result["failed"]
    m = result["metrics"]
    frac = 1.0 - m["success_frac"]["value"]
    assert abs(frac - result["failed"] / result["attempted"]) < 1e-12
    # the only pass holds the failed operation, so nothing is timed
    assert m["train_s"]["value"] is None and m["phase_s"]["value"] is None
    return (f"exit 2 counted: fail_frac {frac:.4f} "
            f"({result['failed']}/{result['attempted']}), train_s not "
            f"reported")


CHECKS = [check_restore, check_self_times, check_conv_counts,
          check_metric_names, check_traced_identical, check_failure_counted]


def main():
    failed = 0
    for check in CHECKS:
        try:
            detail = check()
        except Exception as err:  # report every check, then fail
            failed += 1
            print(f"FAIL {check.__name__}: {type(err).__name__}: {err}")
        else:
            print(f"PASS {check.__name__}: {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
