"""Child process of the volab benchmark.

    python3 perfbench/worker.py setup|phase SPEC.json RESULT.json

``setup`` runs the workload's untimed preparation (``volab phantom``).
``phase`` runs the timed phase: a closed loop with one client, in this
process, where each CLI command (``volab.cli.main``) starts only after the
previous one returns. Whole passes (train, analyze, report) run at least
twice and repeat while another fits in the time budget; the rest of the
budget repeats the analyze and report commands alone. After each pass
the outputs are checked; every pass must reproduce the first pass's
files byte for byte.

With tracing on, ``setup`` runs traced, and ``phase`` runs an untraced, a
traced and another untraced pass: the traced pass against the mean of the
other two is the tracing overhead, and the traced outputs must match the
untraced ones.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from statistics import median
from time import perf_counter

import tracer as tracing
import workloads as wl

# Timings are the fastest of several passes. A fixed floor of two full
# passes keeps a slow first pass from leaving a run with a single sample.
MIN_FULL_PASSES = 2


def import_cli(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "volab", "__init__.py")):
        raise SystemExit(f"no volab package under {src}")
    sys.path.insert(0, src)
    import volab.cli
    return volab.cli


def run_cli(cli, argv):
    """(exit code, wall seconds) of one CLI command run in this process.
    The command's own output goes to stderr so stdout stays free."""
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(list(argv))
    except Exception:  # a crash is a failed operation, not a dead benchmark
        traceback.print_exc()
        rc = -1
    return rc, perf_counter() - t0


def openblas_info():
    """OpenBLAS version string and thread count of this process."""
    maps = []
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        maps = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "/" in line})
    for path in maps:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                      None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}",
                                     None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), int(get_threads())
    return None, None


def environment(root):
    import numpy as np
    import scipy

    config, threads = openblas_info()
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "openblas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": source_digest(root),
    }


def source_digest(root):
    """sha256 over volab's sources, naming the code under test when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "volab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            h.update(wl.sha256_file(os.path.join(src, name)).encode())
    return h.hexdigest()


def run_setup(spec, cli):
    w = wl.WORKLOADS[spec["workload"]]
    layout = wl.Layout(spec["workdir"])
    tr = tracing.Tracer().install() if spec["trace"] else None
    root = tr.rec.enter("setup") if tr else None
    rc, wall = run_cli(cli, wl.phantom_argv(w, layout, spec["seed"]))
    if tr:
        tr.rec.exit(root)
        tr.uninstall()
    ok = rc == 0
    why = "" if ok else f"exit code {rc}"
    digest = None
    if ok:
        try:
            digest = wl.sha256_file(layout.manifest)
        except OSError as err:
            ok, why = False, str(err)
    result = {"ops": [{"kind": "phantom", "preset": None, "rc": rc,
                       "wall": wall, "ok": ok, "why": why}],
              "manifest_sha256": digest}
    if tr:
        tr.rec.dump(spec["spans"])
        result["trace"] = tr.rec.summary()
    return result


def run_pass(cli, w, layout, ops):
    """One pass of the timed phase; checks run after the last command."""
    records = []
    t0 = perf_counter()
    for op in ops:
        rc, wall = run_cli(cli, op.argv)
        records.append({"kind": op.kind, "preset": op.preset, "rc": rc,
                        "wall": wall})
    wall = perf_counter() - t0
    facts, hashes = {}, {}
    for op, rec in zip(ops, records):
        rec["ok"], rec["why"] = rec["rc"] == 0, ""
        if not rec["ok"]:
            rec["why"] = f"exit code {rec['rc']}"
            continue
        try:
            fact, files = wl.CHECKS[op.kind](w, layout, op.preset)
            for path in files:
                hashes[os.path.relpath(path, layout.root)] = \
                    wl.sha256_file(path)
        except (wl.CheckFailed, OSError, IndexError, ValueError) as err:
            rec["ok"], rec["why"] = False, f"check: {err}"
            continue
        if fact:
            facts[op.preset] = fact
    return {"wall": wall, "ops": records, "facts": facts, "hashes": hashes}


def mark_mismatches(first, later):
    """Fail every op of ``later`` whose output bytes differ from ``first``."""
    for path, digest in later["hashes"].items():
        if first["hashes"].get(path) == digest:
            continue
        for rec in later["ops"]:
            if rec["ok"] and _owns(rec, path):
                rec["ok"] = False
                rec["why"] = f"check: {path} differs from the first pass"


def _owns(rec, path):
    parts = path.split(os.sep)
    if rec["kind"] == "train":
        return parts[:2] == ["runs", rec["preset"]]
    if rec["kind"] == "report":
        return parts[0] == "report"
    return parts[:2] == ["analysis", f"{rec['kind']}_{rec['preset']}"]


def run_phase(spec, cli):
    w = wl.WORKLOADS[spec["workload"]]
    layout = wl.Layout(spec["workdir"])
    ops = wl.phase_ops(w, layout) + [
        wl.Op(**extra) for extra in spec.get("extra_ops", [])]
    probes = [op for op in ops if op.kind != "train"]
    passes, tr = [], None

    def run(pass_ops, traced=False):
        nonlocal tr
        if traced:
            tr = tracing.Tracer().install()
            root = tr.rec.enter("phase")
        try:
            p = run_pass(cli, w, layout, pass_ops)
        finally:
            if traced:
                tr.rec.exit(root)
                tr.uninstall()
        p["traced"], p["full"] = traced, pass_ops is ops
        if passes:
            mark_mismatches(passes[0], p)
        passes.append(p)
        return p["wall"]

    if spec["trace"]:
        # traced between two untraced passes, so a steady drift of the
        # host's speed cancels out of the overhead
        run(ops)
        run(ops, traced=True)
        run(ops)
    else:
        start = perf_counter()

        def fits(walls):
            return perf_counter() - start + median(walls) <= spec["seconds"]

        walls = []
        while len(walls) < MIN_FULL_PASSES or fits(walls):
            walls.append(run(ops))
        # spend what is left of the budget on more samples of the probes,
        # which reuse the checkpoints of the last pass
        probe_walls = [sum(r["wall"] for r in p["ops"] if r["kind"] != "train")
                       for p in passes]
        while fits(probe_walls):
            probe_walls.append(run(probes))
    result = {"passes": passes,
              "peak_rss_mib": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment(spec["root"])}
    if tr:
        tr.rec.dump(spec["spans"])
        result["trace"] = tr.rec.summary()
    return result


def main(argv):
    mode, spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    cli = import_cli(spec["root"])
    result = (run_setup if mode == "setup" else run_phase)(spec, cli)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
