"""Outside-in span tracer for volab.

The tracer wraps the public functions and methods of each volab module
from the outside: nothing under ``src/`` changes. A wrapped call records
a span (name, start, end, parent) in memory; spans are written out once,
when the traced process ends.

``nn``, ``models``, ``training``, ``analysis`` and ``cli`` import the
functions they use by name, so a wrapper is installed in every loaded
``volab`` namespace that bound the original object, not only in the
module that defines it. ``uninstall`` puts every original back.

Backward-pass time per primitive is taken by wrapping ``node.vjp`` on
each tensor a wrapped primitive returns.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import sys
import weakref
from time import perf_counter

# primitive function name -> op bucket of the per-layer table
OPS = ("conv3d", "pool3d", "matmul", "batch_norm", "layer_norm", "softmax",
       "gelu", "other")
PRIMITIVES = ("add", "sub", "mul", "matmul", "relu", "gelu", "sigmoid",
              "tanh", "softmax", "layer_norm", "batch_norm", "reshape",
              "transpose", "concat", "narrow", "roll", "take",
              "expand_batch", "tsum", "mean", "dropout", "conv3d", "pool3d")
NN_CLASSES = ("Conv", "BatchNorm", "LayerNorm", "Linear", "SwinBlock",
              "PatchEmbed", "PatchMerge")
NN_FUNCTIONS = ("multi_head_attention", "window_partition",
                "window_unpartition", "shift_window_mask")
# (module, function) pairs timed as plain spans
FUNCTIONS = (
    ("models", "build_model"),
    ("training", "train_fold"), ("training", "predict"),
    ("training", "samples_from_records"),
    ("volume", "read_volume"), ("volume", "generate_phantom"),
    ("volume", "write_volume"), ("volume", "zscore"),
    ("volume", "crop_or_pad"),
    ("labels", "gmm_posterior"), ("labels", "stratified_patient_split"),
    ("labels", "read_manifest"),
    ("metrics", "bootstrap_ci"), ("metrics", "auroc"),
    ("analysis", "erf_map"), ("analysis", "attention_distances"),
    ("analysis", "cka_pair"), ("analysis", "write_activation_dump"),
    ("analysis", "read_activation_dump"),
    ("cli", "cmd_phantom"), ("cli", "cmd_train"), ("cli", "cmd_analyze"),
    ("cli", "cmd_report"),
)

# counters read off a wrapped call's arguments and result, by span name
COUNTERS = {
    "volume.read_volume": lambda args, out: (
        "volume.read_volume.bytes", os.path.getsize(args[0])),
    "analysis.write_activation_dump": lambda args, out: (
        "analysis.write_activation_dump.bytes", os.path.getsize(args[0])),
    "training.train_fold": lambda args, out: (
        "training.epochs", len(out.history)),
    "analysis.attention_distances": lambda args, out: (
        "analysis.attention_distances.queries",
        sum(g * h * length
            for g, h, length in (r.attn.shape[:3] for r in args[0]))),
}


def op_bucket(fn_name):
    return fn_name if fn_name in OPS else "other"


def conv3d_counts(x_shape, w_shape, stride, padding, itemsize):
    """(flops, im2col bytes) of one conv3d forward, computed from shapes:
    flops = 2*N*O*C*kd*kh*kw*Do*Ho*Wo; the im2col buffer holds
    N*C*kd*kh*kw*Do*Ho*Wo elements."""
    n, c, d, h, w = x_shape
    o, _, kd, kh, kw = w_shape
    stride = (stride,) * 3 if isinstance(stride, int) else tuple(stride)
    padding = (padding,) * 3 if isinstance(padding, int) else tuple(padding)
    out = [(size + 2 * p - k) // s + 1
           for size, k, s, p in zip((d, h, w), (kd, kh, kw), stride, padding)]
    cols = n * c * kd * kh * kw * out[0] * out[1] * out[2]
    return 2 * o * cols, cols * itemsize


def pool3d_window_bytes(x_shape, window, stride, itemsize):
    """Bytes of the window buffer one pool3d forward builds and its
    backward keeps, computed from shapes."""
    n, c, d, h, w = x_shape
    window = (window,) * 3 if isinstance(window, int) else tuple(window)
    stride = window if stride is None else (
        (stride,) * 3 if isinstance(stride, int) else tuple(stride))
    out = [(size - k) // s + 1
           for size, k, s in zip((d, h, w), window, stride)]
    return (n * c * window[0] * window[1] * window[2]
            * out[0] * out[1] * out[2] * itemsize)


class Recorder:
    """Spans as parallel lists plus counters measured where the work
    happens. Single-threaded: spans nest strictly."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.stack = []
        self.counts = {}
        self.step_ms = []
        self.step_start = None
        self.eval_depth = 0
        self.live_tape_bytes = 0
        self.peak_tape_bytes = 0

    def enter(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(None)
        self.stack.append(i)
        self.starts.append(perf_counter())
        return i

    def exit(self, i):
        self.ends[i] = perf_counter()
        self.stack.pop()

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _release(self, nbytes):
        self.live_tape_bytes -= nbytes

    def node_recorded(self, tensor, nbytes):
        self.add("tensor.nodes")
        if self.eval_depth:
            self.add("tensor.nodes_eval")
        self.live_tape_bytes += nbytes
        if self.live_tape_bytes > self.peak_tape_bytes:
            self.peak_tape_bytes = self.live_tape_bytes
        weakref.finalize(tensor, self._release, nbytes)

    def span_table(self):
        """Per span name: (calls, total seconds, self seconds). Self time
        is the duration minus the time the span's children cover."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0 and self.ends[i] is not None:
                child[p] += self.ends[i] - self.starts[i]
        table = {}
        for i, name in enumerate(self.names):
            if self.ends[i] is None:
                continue
            dur = self.ends[i] - self.starts[i]
            calls, total, own = table.get(name, (0, 0.0, 0.0))
            table[name] = (calls + 1, total + dur, own + dur - child[i])
        return table

    def summary(self):
        """Serializable aggregate of this recorder, mergeable across
        processes with ``merge``."""
        return {"table": {k: list(v) for k, v in self.span_table().items()},
                "counts": dict(self.counts), "step_ms": list(self.step_ms),
                "tape_bytes_peak": self.peak_tape_bytes}

    def dump(self, path):
        """Write every span (name, parent, start, end) and the counters."""
        index = {}
        rows = []
        for i, name in enumerate(self.names):
            k = index.setdefault(name, len(index))
            rows.append([k, self.parents[i], round(self.starts[i], 7),
                         None if self.ends[i] is None
                         else round(self.ends[i], 7)])
        payload = {"names": list(index), "spans": rows,
                   "counts": self.counts, "step_ms": self.step_ms,
                   "tape_bytes_peak": self.peak_tape_bytes}
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


class Tracer:
    """Installs and removes the wrappers around volab's public surface."""

    def __init__(self, recorder=None):
        self.rec = recorder or Recorder()
        self._patched = []  # (owner, attribute, original)

    # -- patching ---------------------------------------------------------

    def _namespaces(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "volab"
                                      or name.startswith("volab."))]

    def _patch_everywhere(self, original, wrapper):
        for mod in self._namespaces():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def patched(self):
        return list(self._patched)

    def install(self):
        import volab.analysis
        import volab.cli
        import volab.labels
        import volab.metrics
        import volab.models
        import volab.nn
        import volab.tensor
        import volab.training
        import volab.volume

        mods = {m.__name__.split(".")[-1]: m for m in (
            volab.analysis, volab.cli, volab.labels, volab.metrics,
            volab.models, volab.nn, volab.tensor, volab.training,
            volab.volume)}
        tensor = mods["tensor"]
        for name in PRIMITIVES:
            fn = getattr(tensor, name)
            self._patch_everywhere(fn, self._primitive(fn, name))
        self._patch_everywhere(tensor.backward,
                               self._span(tensor.backward,
                                          "tensor.backward"))
        for cls_name in NN_CLASSES:
            cls = getattr(mods["nn"], cls_name)
            self._patch_attr(cls, "__call__",
                             self._span(cls.__call__, f"nn.{cls_name}"))
        for fn_name in NN_FUNCTIONS:
            fn = getattr(mods["nn"], fn_name)
            self._patch_everywhere(fn, self._span(fn, f"nn.{fn_name}"))
        for mod_name, fn_name in FUNCTIONS:
            fn = getattr(mods[mod_name], fn_name)
            label = fn_name[4:] if fn_name.startswith("cmd_") else fn_name
            self._patch_everywhere(
                fn, self._function(fn, f"{mod_name}.{label}"))
        inst = mods["models"].ModelInstance
        self._patch_attr(inst, "forward", self._forward(inst.forward))
        self._patch_attr(inst, "save", self._span(inst.save, "models.save"))
        self._patch_attr(inst, "load", self._span(inst.load, "models.load"))
        adamw = mods["training"].AdamW
        self._patch_attr(adamw, "step", self._adamw_step(adamw.step))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name):
        rec = self.rec

        def wrapper(*args, **kwargs):
            i = rec.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(i)

        wrapper.__wrapped__ = fn
        return wrapper

    def _primitive(self, fn, fn_name):
        rec = self.rec
        bucket = op_bucket(fn_name)
        span_name = f"tensor.{bucket}"
        vjp_name = f"tensor.{bucket}.vjp"
        sig = inspect.signature(fn)

        def wrap_vjp(node):
            inner = node.vjp

            def vjp(g):
                rec.add("tensor.vjp_calls")
                i = rec.enter(vjp_name)
                try:
                    return inner(g)
                finally:
                    rec.exit(i)

            node.vjp = vjp

        def wrapper(*args, **kwargs):
            i = rec.enter(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.exit(i)
            if args and out is args[0]:  # inactive dropout returns its input
                return out
            data = out.data
            rec.add(f"{span_name}.out_bytes", data.nbytes)
            kept = data.nbytes
            if bucket == "conv3d":
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                x, w = b.arguments["x"], b.arguments["w"]
                flops, cols = conv3d_counts(
                    x.shape, w.shape, b.arguments["stride"],
                    b.arguments["padding"], x.data.itemsize)
                rec.add("tensor.conv3d.flops", flops)
                rec.add("tensor.conv3d.im2col_bytes", cols)
                kept += cols
            elif bucket == "pool3d":
                b = sig.bind(*args, **kwargs)
                b.apply_defaults()
                x = b.arguments["x"]
                kept += pool3d_window_bytes(
                    x.shape, b.arguments["window"], b.arguments["stride"],
                    x.data.itemsize)
            if out.node is not None:
                rec.node_recorded(out, kept)
                wrap_vjp(out.node)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _function(self, fn, name):
        if name == "metrics.bootstrap_ci":
            return self._bootstrap_ci(fn, name)
        timed = self._span(fn, name)
        counter = COUNTERS.get(name)
        if counter is None:
            return timed
        rec = self.rec

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            rec.add(*counter(args, out))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _bootstrap_ci(self, fn, name):
        """Counts metric calls against resamples kept (accept_frac)."""
        rec = self.rec
        timed = self._span(fn, name)
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            metric_fn = b.arguments["metric_fn"]

            def counted(p, t):
                rec.add("metrics.bootstrap_ci.metric_calls")
                return metric_fn(p, t)

            b.arguments["metric_fn"] = counted
            out = timed(*b.args, **b.kwargs)
            rec.add("metrics.bootstrap_ci.kept", int(b.arguments["n"]))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _forward(self, fn):
        rec = self.rec
        sig = inspect.signature(fn)

        def forward(*args, **kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            training = bool(b.arguments["training"])
            if training:
                if rec.step_start is None:
                    rec.step_start = perf_counter()
                name = "models.forward_train"
            else:
                rec.eval_depth += 1
                name = "models.forward_eval"
            i = rec.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(i)
                if not training:
                    rec.eval_depth -= 1

        forward.__wrapped__ = fn
        return forward

    def _adamw_step(self, fn):
        rec = self.rec

        def step(*args, **kwargs):
            i = rec.enter("training.AdamW.step")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(i)
                if rec.step_start is not None:
                    rec.step_ms.append(
                        1000.0 * (rec.ends[i] - rec.step_start))
                    rec.step_start = None

        step.__wrapped__ = fn
        return step


def merge(summaries):
    """Sum span tables and counters of several traced processes."""
    out = {"table": {}, "counts": {}, "step_ms": [], "tape_bytes_peak": 0}
    for s in summaries:
        for name, (calls, total, own) in s["table"].items():
            c, t, o = out["table"].get(name, (0, 0.0, 0.0))
            out["table"][name] = (c + calls, t + total, o + own)
        for key, value in s["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
        out["step_ms"].extend(s["step_ms"])
        out["tape_bytes_peak"] = max(out["tape_bytes_peak"],
                                     s["tape_bytes_peak"])
    return out


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return float(ordered[int(rank) - 1])


NN_SPANS = NN_CLASSES + NN_FUNCTIONS


# run-level entries added by the benchmark driver, which needs the
# untraced passes to compute them
OVERHEAD_METRICS = ("trace.overhead_s", "trace.overhead_frac",
                    "trace.setup_overhead_s")
COMPUTED = {"tensor.conv3d.flops": "flop_computed",
            "tensor.conv3d.im2col_bytes": "B_computed",
            "tensor.tape_bytes_peak": "B_computed"}


def _unit(name):
    if name in COMPUTED:
        return COMPUTED[name]
    if name.endswith("_frac"):
        return "1"
    if name.startswith("training.step_ms"):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_bytes", ".bytes")):
        return "B"
    return "count"


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    empty = {"table": {}, "counts": {}, "step_ms": [], "tape_bytes_peak": 0}
    names = list(layer_metrics(empty)) + list(OVERHEAD_METRICS)
    return {name: _unit(name) for name in names}


def layer_metrics(summary):
    """Per-layer metrics from a merged summary (without the trace.*
    overhead entries, which need an untraced run to compare with)."""
    table, counts = summary["table"], summary["counts"]

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    m = {}
    for op in OPS:
        m[f"tensor.{op}.calls"] = calls(f"tensor.{op}")
        m[f"tensor.{op}.fwd_s"] = total(f"tensor.{op}")
        m[f"tensor.{op}.vjp_s"] = total(f"tensor.{op}.vjp")
        m[f"tensor.{op}.out_bytes"] = counts.get(f"tensor.{op}.out_bytes", 0)
    nodes = counts.get("tensor.nodes", 0)
    m.update({
        "tensor.conv3d.flops": counts.get("tensor.conv3d.flops", 0),
        "tensor.conv3d.im2col_bytes": counts.get(
            "tensor.conv3d.im2col_bytes", 0),
        "tensor.nodes": nodes,
        "tensor.nodes_eval": counts.get("tensor.nodes_eval", 0),
        "tensor.backward.calls": calls("tensor.backward"),
        "tensor.backward.self_s": own("tensor.backward"),
        "tensor.tape_useful_frac": (counts.get("tensor.vjp_calls", 0) / nodes
                                    if nodes else 0.0),
        "tensor.tape_bytes_peak": summary["tape_bytes_peak"],
    })
    for name in NN_SPANS:
        m[f"nn.{name}.self_s"] = own(f"nn.{name}")
        m[f"nn.{name}.calls"] = calls(f"nn.{name}")
    steps = summary["step_ms"]
    metric_calls = counts.get("metrics.bootstrap_ci.metric_calls", 0)
    m.update({
        "models.forward_train.s": total("models.forward_train"),
        "models.forward_eval.s": total("models.forward_eval"),
        "models.forward.calls": (calls("models.forward_train")
                                 + calls("models.forward_eval")),
        "models.build_model.s": total("models.build_model"),
        "models.save.s": total("models.save"),
        "models.load.s": total("models.load"),
        "training.steps": len(steps),
        "training.step_ms_p50": _percentile(steps, 50),
        "training.step_ms_p90": _percentile(steps, 90),
        "training.epochs": counts.get("training.epochs", 0),
        "training.AdamW.step.s": total("training.AdamW.step"),
        "training.predict.s": total("training.predict"),
        "training.train_fold.self_s": own("training.train_fold"),
        "training.samples_from_records.s": total(
            "training.samples_from_records"),
        "volume.read_volume.calls": calls("volume.read_volume"),
        "volume.read_volume.s": total("volume.read_volume"),
        "volume.read_volume.bytes": counts.get("volume.read_volume.bytes", 0),
        "volume.generate_phantom.s": total("volume.generate_phantom"),
        "volume.write_volume.s": total("volume.write_volume"),
        "volume.zscore.s": total("volume.zscore"),
        "volume.crop_or_pad.s": total("volume.crop_or_pad"),
        "labels.gmm_posterior.s": total("labels.gmm_posterior"),
        "labels.stratified_patient_split.s": total(
            "labels.stratified_patient_split"),
        "labels.read_manifest.s": total("labels.read_manifest"),
        "metrics.bootstrap_ci.s": total("metrics.bootstrap_ci"),
        "metrics.bootstrap_ci.accept_frac": (
            counts.get("metrics.bootstrap_ci.kept", 0) / metric_calls
            if metric_calls else 0.0),
        "metrics.auroc.calls": calls("metrics.auroc"),
        "metrics.auroc.s": total("metrics.auroc"),
        "analysis.erf_map.calls": calls("analysis.erf_map"),
        "analysis.erf_map.s": total("analysis.erf_map"),
        "analysis.attention_distances.s": total(
            "analysis.attention_distances"),
        "analysis.attention_distances.queries": counts.get(
            "analysis.attention_distances.queries", 0),
        "analysis.cka_pair.calls": calls("analysis.cka_pair"),
        "analysis.cka_pair.s": total("analysis.cka_pair"),
        "analysis.write_activation_dump.s": total(
            "analysis.write_activation_dump"),
        "analysis.write_activation_dump.bytes": counts.get(
            "analysis.write_activation_dump.bytes", 0),
        "analysis.read_activation_dump.s": total(
            "analysis.read_activation_dump"),
        "cli.phantom.s": total("cli.phantom"),
        "cli.train.s": total("cli.train"),
        "cli.analyze.s": total("cli.analyze"),
        "cli.report.s": total("cli.report"),
        "cli.phantom.self_s": own("cli.phantom"),
        "cli.train.self_s": own("cli.train"),
        "cli.analyze.self_s": own("cli.analyze"),
        "cli.report.self_s": own("cli.report"),
    })
    return m
