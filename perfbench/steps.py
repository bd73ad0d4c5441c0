"""Training-step profile at batch 8, untraced and traced, per desk preset.

    python3 perfbench/steps.py

A step is one forward (training mode), the SSE loss, one backward and one
AdamW update, as ``train_fold`` runs it. Untraced and traced blocks of
STEPS steps, each after one warm-up step, alternate ROUNDS times per
preset, so a slow period of the host hits both. Prints the median and
fastest step time with the tracer off and on, and, from the traced
steps, the per-step forward and VJP time of conv3d and the primitive count
per step.
"""

from __future__ import annotations

import os
import sys
from statistics import median
from time import perf_counter

import tracer as tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
STEPS = 6
ROUNDS = 3


def run_steps(preset, steps, tr=None):
    import numpy as np
    import volab.tensor as T
    import volab.training as training
    from volab.models import build_model, desk_config

    model = build_model(desk_config(preset), seed=0)
    opt = training.AdamW(model.named_parameters(), weight_decay=0.01)
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((8, 1, 32, 32, 32)).astype(np.float32))
    y = T.Tensor(rng.random(8).astype(np.float32))
    times, marks = [], []
    for _ in range(steps):
        marks.append(len(tr.rec.names) if tr else 0)
        t0 = perf_counter()
        opt.zero_grad()
        res = model.forward(x, training=True, rng=rng)
        diff = T.sub(res.pred, y)
        T.backward(T.tsum(T.mul(diff, diff)))
        opt.step(1e-3)
        times.append(1000.0 * (perf_counter() - t0))
    marks.append(len(tr.rec.names) if tr else 0)
    return times, marks


def per_step(rec, marks, name):
    """Per step: summed duration (ms) of the spans called ``name``, and the
    number of primitive forward spans."""
    sums, prims = [], []
    for a, b in zip(marks, marks[1:]):
        sums.append(1000.0 * sum(rec.ends[i] - rec.starts[i]
                                 for i in range(a, b) if rec.names[i] == name))
        prims.append(sum(1 for i in range(a, b)
                         if rec.names[i].startswith("tensor.")
                         and not rec.names[i].endswith(".vjp")
                         and rec.names[i] != "tensor.backward"))
    return sums, prims


def main():
    for preset in ("cnn3d", "swin3d"):
        plain, traced, fwd, vjp, prims = [], [], [], [], []
        for _ in range(ROUNDS):
            plain += run_steps(preset, STEPS + 1)[0][1:]
            tr = tracing.Tracer().install()
            try:
                times, marks = run_steps(preset, STEPS + 1, tr)
            finally:
                tr.uninstall()
            traced += times[1:]
            fwd += per_step(tr.rec, marks[1:], "tensor.conv3d")[0]
            vjp += per_step(tr.rec, marks[1:], "tensor.conv3d.vjp")[0]
            prims += per_step(tr.rec, marks[1:], "tensor.conv3d")[1]
        print(f"{preset}: step untraced {median(plain):.1f} ms median, "
              f"{min(plain):.1f} min; traced {median(traced):.1f} median, "
              f"{min(traced):.1f} min ({len(plain)} steps each, "
              f"alternating blocks); conv3d fwd {median(fwd):.1f} ms + "
              f"vjp {median(vjp):.1f} ms per traced step; "
              f"{median(prims):.0f} primitives per step")


if __name__ == "__main__":
    main()
