"""The volab benchmark: one command runs a workload of the researcher
pipeline through the CLI, checks its outputs, and prints every metric by
name and unit. Run from the root of a checkout:

    python3 perfbench/run.py --workload cv_cnn3d --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the separate
traced run and prints the per-layer metrics, including the tracing
overhead. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Scratch files go under
``.bench_work/`` and are removed after each run; results, including why an
operation failed, and trace spans are kept under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import tracer as tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# set-up processes run before and after the timed phase
SETUPS_BEFORE, SETUPS_AFTER = 2, 2
TIME_LIMIT_S = 170.0
# Commands under a second or two whose wall time swings up to 2x with the
# load other tenants put on this host, for minutes at a time; too unsteady
# to gate on, so they are printed but are not end-to-end metrics.
PROBE_KINDS = {"erf": "analyze_erf_s", "attn": "analyze_attn_s",
               "cka": "analyze_cka_s", "report": "report_s"}

END_TO_END = {
    "setup_s": ("s", "wall time of the set-up process (volab phantom); "
                     "the fastest of its clean repeats"),
    "train_s": ("s", "volab train over all folds and presets; like every "
                     "timing of the phase, the fastest clean pass"),
    "train_samples_per_s": ("samples/s", "examples through forward and "
                            "backward (epochs run x train split, from the "
                            "history CSVs) / train_s"),
    "pooled_auroc": ("1", "AUROC of pooled out-of-fold predictions vs "
                          "p_kc > 0.5, mean over presets"),
    "phase_s": ("s", "one whole pass of the timed phase: train, analyze, "
                     "report"),
    "peak_rss_mib": ("MiB", "peak RSS of the timed-phase process"),
    "success_frac": ("1", "1 - fail_frac: CLI operations that exited 0 and "
                          "passed their output check / attempted"),
}


def spawn(mode, spec, workdir, tag, timeout):
    """Run one worker process; returns (wall seconds, result or None)."""
    spec_path = os.path.join(workdir, f"{tag}.spec.json")
    out_path = os.path.join(workdir, f"{tag}.result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, mode, spec_path,
                               out_path], stdout=sys.stderr,
                              timeout=max(1.0, timeout), check=False)
    except subprocess.TimeoutExpired:
        print(f"{tag}: worker timed out", file=sys.stderr)
        return perf_counter() - t0, None
    wall = perf_counter() - t0
    if proc.returncode != 0 or not os.path.isfile(out_path):
        print(f"{tag}: worker exited {proc.returncode}", file=sys.stderr)
        return wall, None
    with open(out_path) as fh:
        return wall, json.load(fh)


def _min_or_none(values):
    return min(values) if values else None


def end_to_end(setups, phase):
    """End-to-end metrics from the set-up runs and the untraced passes.
    Timings come only from set-ups and passes whose every operation
    succeeded, and are the fastest of them: interference from other tenants
    of the host only ever adds time (a fixed Python loop swings by up to 2x
    there), so the minimum over repeats is the steadiest estimate of the
    program's own cost."""
    clean = [p for p in phase["passes"]
             if not p["traced"] and all(r["ok"] for r in p["ops"])]
    full = [p for p in clean if p["full"]]

    def summed(p, kind):
        return sum(r["wall"] for r in p["ops"] if r["kind"] == kind)

    facts = full[0]["facts"] if full else {}
    samples = sum(f["samples"] for f in facts.values())
    return {
        "setup_s": _min_or_none([wall for wall, ok in setups if ok]),
        "train_s": _min_or_none([summed(p, "train") for p in full]),
        "train_samples_per_s": (samples / _min_or_none(
            [summed(p, "train") for p in full]) if full else None),
        "pooled_auroc": (sum(f["auroc"] for f in facts.values()) / len(facts)
                         if facts else None),
        "phase_s": _min_or_none([p["wall"] for p in full]),
        "peak_rss_mib": phase["peak_rss_mib"],
    }


def per_layer(setup_results, phase, setup_walls):
    """Per-layer metrics of the traced set-up and the traced pass, plus the
    tracing overhead against the untraced set-up and the mean of the
    untraced passes."""
    traced = [r["trace"] for r in setup_results if r and "trace" in r]
    traced.append(phase["trace"])
    m = tracing.layer_metrics(tracing.merge(traced))
    plain = [p["wall"] for p in phase["passes"] if not p["traced"]]
    baseline = sum(plain) / len(plain)
    (traced_wall,) = [p["wall"] for p in phase["passes"] if p["traced"]]
    m["trace.overhead_s"] = traced_wall - baseline
    m["trace.overhead_frac"] = m["trace.overhead_s"] / baseline
    m["trace.setup_overhead_s"] = setup_walls[-1] - setup_walls[-2]
    return m


def run_workload(name, seed, seconds, trace, extra_ops=()):
    """Set up, run and check one workload. Returns the result dict."""
    started = perf_counter()
    w = wl.WORKLOADS[name]
    tag = f"{name}-s{seed}-t{trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-p{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    layout = wl.Layout(workdir)
    spec = {"root": ROOT, "workdir": workdir, "workload": name,
            "seed": seed, "seconds": seconds, "trace": 0,
            "extra_ops": [dict(kind=k, preset=p, argv=list(a))
                          for k, p, a in extra_ops]}

    def remaining():
        return TIME_LIMIT_S - (perf_counter() - started)

    setups, setup_results, manifests = [], [], set()

    def set_up(traced):
        """One set-up process; every repeat must write the same manifest."""
        i = len(setups)
        sspec = dict(spec, trace=traced, spans=os.path.join(
            outdir, f"spans-{tag}-setup.json.gz"))
        wall, res = spawn("setup", sspec, workdir, f"setup{i}",
                          min(60.0, remaining()))
        op = res["ops"][0] if res else {"ok": False, "why": "worker failed"}
        if res:
            manifests.add(res["manifest_sha256"])
        ok = op["ok"] and len(manifests) == 1
        if not ok:
            print(f"set-up {i} failed: {op.get('why') or 'manifest differs'}",
                  file=sys.stderr)
        setups.append((wall, ok))
        setup_results.append(res)

    # set-up: its own processes, repeated before and after the timed phase
    # so that a slow period of the host at the start of a run does not set
    # setup_s alone; a traced run ends its set-ups with a traced one,
    # compared with the untraced one before it
    for traced in [0, 0, 1] if trace else [0] * SETUPS_BEFORE:
        set_up(traced)
    phase = None
    if all(ok for _, ok in setups):
        wl.write_experiments(w, layout, seed)
        pspec = dict(spec, trace=trace, spans=os.path.join(
            outdir, f"spans-{tag}-phase.json.gz"))
        _, phase = spawn("phase", pspec, workdir, "phase", remaining())
        for _ in range(0 if trace or phase is None else SETUPS_AFTER):
            set_up(0)
    attempted = len(setups)
    failed = sum(not ok for _, ok in setups)
    if phase is None:
        attempted += 1
        failed += 1
        result = {"correct": False, "attempted": attempted,
                  "failed": failed, "metrics": {}, "passes": [],
                  "env": None}
    else:
        ops = [r for p in phase["passes"] for r in p["ops"]]
        attempted += len(ops)
        failed += sum(not r["ok"] for r in ops)
        for r in ops:
            if not r["ok"]:
                print(f"{r['kind']} {r['preset'] or ''} failed: {r['why']}",
                      file=sys.stderr)
        if trace:
            values = per_layer(setup_results, phase,
                               [wall for wall, _ in setups])
            units = tracing.per_layer_units()
        else:
            values = end_to_end(setups, phase)
            values["success_frac"] = 1.0 - failed / attempted
            units = {k: u for k, (u, _) in END_TO_END.items()}
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        complete = all(v["value"] is not None for v in metrics.values())
        result = {"correct": failed == 0 and complete,
                  "attempted": attempted, "failed": failed,
                  "metrics": metrics, "passes": phase["passes"],
                  "env": phase["env"]}
    result.update(workload=name, seed=seed, trace=trace,
                  setup_walls=[wall for wall, _ in setups])
    with open(os.path.join(outdir, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def describe(result):
    """Human-readable lines: environment, passes, every metric."""
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"trace {result['trace']}"]
    env = result["env"]
    if env:
        lines.append(
            f"  env: python {env['python']}, numpy {env['numpy']}, scipy "
            f"{env['scipy']}, {env['openblas']} ({env['openblas_threads']} "
            f"threads), nproc {env['nproc']}, git {env['git_commit']}, "
            f"src sha256 {env['src_sha256'][:16]}")
    walls = ", ".join(f"{p['wall']:.3f} s" + (" traced" if p["traced"]
                                               else "")
                      + ("" if p["full"] else " probes only")
                      for p in result["passes"])
    lines.append(f"  passes: {len(result['passes'])} ({walls}); operations "
                 f"attempted {result['attempted']}, failed "
                 f"{result['failed']} (fail_frac "
                 f"{result['failed'] / result['attempted']:.4f})")
    clean = [p for p in result["passes"] if not p["traced"]]
    for kind, label in PROBE_KINDS.items():
        walls = [sum(r["wall"] for r in p["ops"] if r["kind"] == kind)
                 for p in clean if any(r["kind"] == kind for r in p["ops"])]
        if walls:
            lines.append(f"  {label} {min(walls):.4f} s (fastest of "
                         f"{len(walls)} passes; information only)")
    steps = result["metrics"].get("training.steps")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        text = "n/a" if value is None else (
            f"{value:.6g}" if isinstance(value, float) else str(value))
        note = ""
        if entry["unit"].endswith("_computed"):
            note = "  (computed from shapes)"
        elif name.startswith("training.step_ms") and steps:
            note = f"  (over {steps['value']} steps)"
        lines.append(f"  {name:40s} {text:>14s} {entry['unit']}{note}")
    return lines


def emit(result):
    print("\n".join(describe(result)))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=44.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "volab", "__init__.py")):
        print(f"error: no volab sources under {ROOT}/src; run from the "
              f"root of a volab checkout", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        emit(result)
        return 0 if result["correct"] else 1
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(describe(result)))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
