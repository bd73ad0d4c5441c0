"""Deterministic command-line front end tying the pipeline together:
phantom dataset generation, cross-validated training of every fold,
mechanistic analysis (effective receptive fields, attention distances,
CKA), and the report tables as CSV.

Every command is a pure function of (args, config files, dataset bytes,
seed); rerunning with identical inputs produces byte-identical outputs,
whatever the --parallel-folds pool size. An experiment config holds only
what train reads; analyze takes its settings from its flags alone.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
A bad value exits 1 from a config or a flag, and 2 when it is read back
from a run directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .analysis import (
    ERF_THRESHOLD,
    attention_distance_stats,
    cka_matrix,
    erf_map,
    read_activation_dump,
    write_activation_dump,
)
from .artifacts import (
    ConfigError,
    DataError,
    is_count,
    is_real,
    parse_json_object,
    read_bytes,
    read_csv_rows,
    read_json_object,
    require,
    write_atomic,
    write_csv,
    write_npy,
)
from .labels import (
    MANIFEST_HEADER,
    CohortRecord,
    GmmModel,
    RiskBin,
    read_manifest,
    stratified_patient_split,
    write_manifest,
)
from .metrics import (
    ROW_METRICS,
    auroc,
    bootstrap_ci,
    brier_and_reliability,
    regression_metrics,
    stratified_sens_spec,
)
from .models import ModelConfig, build_model, desk_config, paper_config
from .tensor import NumericError, ShapeError
from .training import (
    HISTORY_HEADER,
    TrainConfig,
    cross_validate,
    make_input,
    samples_from_records,
)
from .volume import (
    PhantomSpec,
    default_phantom_gmm,
    generate_phantom,
    read_volume,
    write_volume,
)

SEED_STREAMS = ("init", "bootstrap")

PREDICTIONS_HEADER = ["patient_id", "eye_id", "p_kc", "pred", "fold"]
TABLE2_HEADER = ["model", "dim", "params", "mse", "mae", "r2", "pearson",
                 "brier", "auroc"]
TABLE3_HEADER = ["model", "dim", "bin", "sensitivity", "specificity",
                 "count", "balanced_accuracy"]
TABLE4_HEADER = ["model", "dim", "stage1", "stage2", "stage3", "stage4",
                 "et_ratio"]
TABLE5_HEADER = ["model", "dim", "bin", "mean", "sd", "median", "pct_gt20",
                 "max"]
RELIABILITY_HEADER = ["model", "dim", "bin", "mean_pred", "pos_fraction",
                      "count"]
METRIC_KEYS = ("mse", "mae", "r2", "pearson", "brier", "auroc")

RESOLVED_CONFIG = "resolved_config.json"
POOLED_PREDICTIONS = "pooled_predictions.csv"

_BIN_ORDER = [b.value for b in RiskBin]

_SCHEMA_HELP = f"""file schemas (stable, golden-file tested):
  manifest csv      {','.join(MANIFEST_HEADER)}
  history csv       {','.join(HISTORY_HEADER)}
  predictions csv   {','.join(PREDICTIONS_HEADER)}
  table2.csv        {','.join(TABLE2_HEADER)}  (+ <metric>_lo/_hi with --ci)
  table3.csv        {','.join(TABLE3_HEADER)}
  reliability.csv   {','.join(RELIABILITY_HEADER)}
  erf_table.csv     {','.join(TABLE4_HEADER)}
  attn_table.csv    {','.join(TABLE5_HEADER)}
  cka_matrix.csv    id,<stage...>  (symmetric, unit diagonal)
"""


def derive_seed(master, stream):
    """Named sub-stream of the master seed (init, bootstrap): each stream
    name is hashed on its own, so toggling one stage never perturbs the
    randomness of another."""
    ss = np.random.SeedSequence([int(master)] + [ord(c) for c in stream])
    return int(ss.generate_state(1)[0])


def json_bytes(payload):
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One training experiment: what ``train`` reads and nothing else. The
    dataset block is exactly {"manifest": path}."""

    seed: int
    out_dir: str
    dataset: dict
    model: dict
    train: dict = field(default_factory=dict)
    n_folds: int = 5
    name: str = ""

    def __post_init__(self):
        require(is_count(self.seed, low=0), "seed", self.seed,
                "an integer >= 0")
        for key in ("name", "out_dir"):
            require(isinstance(getattr(self, key), str), key,
                    getattr(self, key), "a string")
        require(isinstance(self.dataset, dict)
                and set(self.dataset) == {"manifest"}
                and isinstance(self.dataset["manifest"], str),
                "dataset", self.dataset, '{"manifest": <path>}')
        require(is_count(self.n_folds, low=3), "n_folds", self.n_folds,
                "an integer >= 3 (test, validation and train need "
                "disjoint folds)")


def load_experiment(path):
    """An unreadable config file is a data error; one that is not a JSON
    object, lacks or adds a key, or holds a bad value is a config error.
    Every check runs before ``train`` writes anything."""
    blob = read_bytes(path, "config")
    try:
        return ExperimentConfig(**parse_json_object(blob, "it"))
    except (ConfigError, DataError, TypeError) as err:
        raise ConfigError(f"config {path}: {err}") from err


def model_from_block(block):
    """Model block: {"preset": name[, "scale": desk|paper]} or inline
    ModelConfig fields. Returns (config, default report name). A swin
    window, clamped to each stage's token grid, must divide it."""
    require(isinstance(block, dict) and block, "model block", block,
            "a non-empty object")
    block = dict(block)
    preset = block.pop("preset", None)
    if preset is not None:
        scale = block.pop("scale", "desk")
        require(not block, "preset model block's extra keys", sorted(block),
                "empty")
        require(scale in ("desk", "paper"), "model scale", scale,
                "desk or paper")
        require(isinstance(preset, str), "model preset", preset, "a string")
        try:
            cfg = (desk_config if scale == "desk" else paper_config)(preset)
        except KeyError as err:
            raise ConfigError(str(err)) from err
        name = preset
    else:
        try:
            cfg = ModelConfig(**block)
        except TypeError as err:
            raise ConfigError(f"bad model block: {err}") from err
        name = f"{cfg.family}{cfg.input_dims}d"
    grids = cfg.stage_grids() if cfg.family == "swin" else []
    for s, grid in enumerate(grids, start=1):
        require(all(g % min(w, g) == 0
                    for g, w in zip(grid, cfg.window_size)),
                f"stage {s} grid", grid,
                f"divisible by window {cfg.window_size}")
    return cfg, name


def train_config_from_block(block, seed):
    """The block's TrainConfig with the derived init seed; a block that
    sets a seed of its own is refused."""
    require(isinstance(block, dict), "train block", block, "an object")
    require("seed" not in block, "train.seed", block.get("seed"),
            "absent (the init seed derives from the config's seed)")
    try:
        return TrainConfig(**block, seed=seed)
    except TypeError as err:
        raise ConfigError(f"bad train block: {err}") from err


# ---------------------------------------------------------------------------
# phantom dataset generation


def generate_phantom_dataset(out_dir, n, shape, seed, amplitude, sparsity,
                             noise, gmm):
    """n phantom volumes + manifest under out_dir. Per-record seeds derive
    from (seed, index), so the i-th volume does not depend on n. Anomaly
    amplitudes are drawn uniformly from the configured range; a wide range
    makes the soft labels span all three risk bins. Every argument is
    checked before anything is written."""
    lo, hi = amplitude
    spec = PhantomSpec(shape=shape, anomaly_amplitude=hi,
                       anomaly_sparsity=sparsity, noise_sigma=noise,
                       label_gmm=default_phantom_gmm() if gmm is None else gmm)
    require(is_count(n), "n", n, "an integer >= 1")
    require(is_count(seed, low=0), "seed", seed, "an integer >= 0")
    require(is_real(lo) and 0 <= lo <= hi, "amplitude range", amplitude,
            "finite, with 0 <= low <= high")
    os.makedirs(out_dir, exist_ok=True)
    records = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        vol, p_kc, _ = generate_phantom(replace(
            spec, anomaly_amplitude=float(rng.uniform(lo, hi))), rng)
        fname = f"vol_{i:04d}.volb"
        write_volume(os.path.join(out_dir, fname), vol)
        # two consecutive volumes share a patient so the patient-grouped
        # cross-validation split has real grouping work to do
        records.append(CohortRecord(
            patient_id=f"P{i // 2:04d}", eye_id="OD" if i % 2 == 0 else "OS",
            volume_path=fname, p_kc=p_kc))
    write_manifest(os.path.join(out_dir, "manifest.csv"), records)
    return records


def cmd_phantom(args):
    try:
        shape = tuple(int(p) for p in args.shape.split(","))
    except ValueError as err:
        raise ConfigError(f"bad shape {args.shape!r}: {err}") from err
    gmm = GmmModel.from_json(args.gmm) if args.gmm else None
    records = generate_phantom_dataset(
        args.out, args.n, shape, args.seed,
        amplitude=(args.amp_lo, args.amp_hi), sparsity=args.sparsity,
        noise=args.noise, gmm=gmm)
    counts = {b: 0 for b in _BIN_ORDER}
    for r in records:
        counts[r.bin.value] += 1
    print(f"wrote {len(records)} volumes + manifest.csv to {args.out} "
          f"(bins: " + ", ".join(f"{b}={counts[b]}" for b in _BIN_ORDER)
          + ")")
    return 0


# ---------------------------------------------------------------------------
# training


def _prediction_rows(records, indices, preds, fold):
    return [[records[i].patient_id, records[i].eye_id,
             float(records[i].p_kc), float(p), fold]
            for i, p in zip(indices, preds)]


def _write_fold(out_dir, k, result, model, rows):
    model.save(os.path.join(out_dir, f"fold{k}.ckpt"),
               epoch=result.best_epoch, val_mse=result.best_val_mse)
    write_csv(os.path.join(out_dir, f"fold{k}_history.csv"),
              HISTORY_HEADER, result.history)
    write_csv(os.path.join(out_dir, f"fold{k}_predictions.csv"),
              PREDICTIONS_HEADER, rows)


def _check_run_dir(out_dir, resolved):
    """A run directory holds one run: train writes into ``out_dir`` only
    when it is absent or empty, or when its resolved config is byte-equal
    to ``resolved`` (a rerun)."""
    path = os.path.join(out_dir, RESOLVED_CONFIG)
    if not os.path.exists(out_dir) or os.path.isdir(out_dir) and (
            not os.listdir(out_dir) or os.path.isfile(path)
            and read_bytes(path, "resolved config") == resolved):
        return
    raise ConfigError(f"{out_dir} holds another run; train writes only "
                      f"into an absent or empty directory, or reruns the "
                      f"run whose {RESOLVED_CONFIG} it would write")


def cmd_train(args):
    require(is_count(args.parallel_folds), "--parallel-folds",
            args.parallel_folds, "an integer >= 1")
    cfg = load_experiment(args.config)
    base = os.path.dirname(os.path.abspath(args.config))
    model_cfg, default_name = model_from_block(cfg.model)
    name = cfg.name or default_name
    train_cfg = train_config_from_block(cfg.train,
                                        derive_seed(cfg.seed, "init"))
    manifest = os.path.join(base, cfg.dataset["manifest"])
    records = read_manifest(manifest)
    split = stratified_patient_split(records, n_folds=cfg.n_folds,
                                     seed=train_cfg.seed)
    out_dir = os.path.join(base, cfg.out_dir)
    resolved = json_bytes({
        "name": name, "seed": cfg.seed, "n_folds": cfg.n_folds,
        "model": asdict(model_cfg), "train": asdict(train_cfg),
        "manifest": os.path.relpath(manifest, out_dir),
    })
    _check_run_dir(out_dir, resolved)
    samples = samples_from_records(records, model_cfg,
                                   root=os.path.dirname(manifest))
    os.makedirs(out_dir, exist_ok=True)
    write_atomic(os.path.join(out_dir, RESOLVED_CONFIG), resolved)
    outs = cross_validate(records, samples, model_cfg, train_cfg, split,
                          args.parallel_folds)
    pooled = {}
    for k, (res, model, test_idx, preds) in enumerate(outs):
        rows = _prediction_rows(records, test_idx, preds, k)
        _write_fold(out_dir, k, res, model, rows)
        pooled.update(zip(test_idx, rows))
        print(f"{name} fold {k}: best epoch {res.best_epoch}, "
              f"val mse {res.best_val_mse:.6f}")
    write_csv(os.path.join(out_dir, POOLED_PREDICTIONS), PREDICTIONS_HEADER,
              [pooled[i] for i in range(len(records))])
    print(f"{name}: {len(outs)} of {cfg.n_folds} folds -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# analysis


def _read_run_config(path):
    """A training run's resolved config and its ModelConfig, checked as
    ``train`` checked them before writing: a missing key or a bad value is
    a data error. Keys nothing reads are ignored, as are the model block's
    deleted ``in_channels`` and ``preset``, which runs trained before their
    deletion hold."""
    run_cfg = read_json_object(path, "resolved config")
    try:
        for key in ("name", "manifest"):
            require(isinstance(run_cfg[key], str), key, run_cfg[key],
                    "a string")
        require(is_count(run_cfg["seed"], low=0), "seed", run_cfg["seed"],
                "an integer >= 0")
        model = run_cfg["model"]
        if isinstance(model, dict):
            model = {k: v for k, v in model.items()
                     if k not in ("in_channels", "preset")}
        return run_cfg, model_from_block(model)[0]
    except KeyError as err:
        raise DataError(f"{path} lacks key {err}") from err
    except ConfigError as err:
        raise DataError(f"{path}: {err}") from err


def _load_run_model(ckpt_path):
    """Rebuild the architecture from the resolved config beside the
    checkpoint, then load the weights. Returns (model, run config)."""
    run_cfg, model_cfg = _read_run_config(os.path.join(
        os.path.dirname(os.path.abspath(ckpt_path)), RESOLVED_CONFIG))
    model = build_model(model_cfg, seed=0)
    model.load(ckpt_path)
    return model, run_cfg


def _analysis_records(args, run_cfg, ckpt_path):
    man = args.manifest
    if man is None:
        run_dir = os.path.dirname(os.path.abspath(ckpt_path))
        man = os.path.join(run_dir, run_cfg["manifest"])
    records = read_manifest(man)
    return records, os.path.dirname(man)


def _table_stages(model):
    """Stage taps reported in the four stage columns: the patch embedding
    is not a stage, and models with more than four taps report four evenly
    spaced ones."""
    names = model.stage_names()
    if names and names[0] == "patch_embed":
        names = names[1:]
    if len(names) > 4:
        idx = np.round(np.linspace(0, len(names) - 1, 4)).astype(int)
        names = [names[i] for i in sorted(set(int(i) for i in idx))]
    return names


def _analyze_erf(args, model, run_cfg, records, root, out_dir):
    n, threshold = args.erf_inputs, args.threshold
    require(0.0 <= threshold < 1.0, "--threshold", threshold, "in [0, 1)")
    stages = args.stages.split(",") if args.stages else _table_stages(model)
    known = model.stage_names() + ["output"]
    for s in stages:
        require(s in known, "stage", s, f"one of {known}")
    require(0 < len(set(stages)) == len(stages) <= 4, "erf stages", stages,
            "one to four distinct stage columns")
    require(1 <= n <= len(records), "--erf-inputs", n,
            f"in 1..{len(records)}")
    xs = [make_input(_load_volume(records[i], root), model.config)
          for i in range(n)]
    radii, ratios = {s: [] for s in stages}, []
    mean_maps = {s: None for s in stages}
    for x in xs:
        for s, m in zip(stages, erf_map(model, x, stages, threshold)):
            radii[s].append(m.erf_radius)
            mean_maps[s] = (m.normalized if mean_maps[s] is None
                            else mean_maps[s] + m.normalized)
            if s == stages[-1]:
                ratios.append(m.et_ratio)
    row = [run_cfg["name"], model.config.input_dims]
    for i in range(4):
        row.append(float(np.mean(radii[stages[i]]))
                   if i < len(stages) else None)
    row.append(float(np.mean(ratios)))
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "erf_table.csv"), TABLE4_HEADER, [row])
    for s in stages:
        write_npy(os.path.join(out_dir, f"erf_map_{s}.npy"),
                  mean_maps[s] / float(n))
    print(f"erf: {len(stages)} stages over {n} inputs -> "
          f"{os.path.join(out_dir, 'erf_table.csv')}")
    return 0


def _load_volume(record, root):
    return read_volume(os.path.join(root, record.volume_path))


def _analyze_attn(args, model, run_cfg, records, root, out_dir):
    n, k = args.attn_inputs, args.k
    require(is_count(n), "--attn-inputs", n, "an integer >= 1")
    per_bin = math.ceil(n / 3)
    chosen = []
    for b in _BIN_ORDER:
        hits = [i for i, r in enumerate(records) if r.bin.value == b]
        chosen.extend(hits[:per_bin])
    if not chosen:
        raise DataError("manifest has no records to analyze")
    labeled = []
    with model.frozen():
        for i in sorted(chosen):
            x = make_input(_load_volume(records[i], root), model.config)
            result = model.forward(x[None])
            if not result.attention:
                raise DataError("model has no attention layers")
            labeled.append((records[i].p_kc, result.attention))
    stats = attention_distance_stats(labeled, k=k)
    rows = []
    for b in _BIN_ORDER:
        if b not in stats:
            continue
        st = stats[b]
        rows.append([run_cfg["name"], model.config.input_dims, b,
                     st["mean"], st["sd"], st["median"], st["pct_gt20"],
                     st["max"]])
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "attn_table.csv"), TABLE5_HEADER, rows)
    print(f"attn: {len(labeled)} inputs, k={k}, {len(rows)} bins -> "
          f"{os.path.join(out_dir, 'attn_table.csv')}")
    return 0


CKA_BATCH = 8  # inputs per cka forward: no larger than a desk training batch


def _analyze_cka(args, ckpts, out_dir):
    first_model, first_cfg = _load_run_model(ckpts[0])
    records, root = _analysis_records(args, first_cfg, ckpts[0])
    n = args.cka_inputs
    require(2 <= n <= len(records), "--cka-inputs", n,
            f"in 2..{len(records)}")
    loaded = [(first_model, first_cfg)]
    for p in ckpts[1:]:
        loaded.append(_load_run_model(p))
    same_arch = all(cfg["model"] == first_cfg["model"] and
                    cfg["name"] == first_cfg["name"]
                    for _, cfg in loaded)
    os.makedirs(out_dir, exist_ok=True)
    dump_paths = []
    for idx, ((model, run_cfg), ckpt) in enumerate(zip(loaded, ckpts)):
        x = np.stack(
            [make_input(_load_volume(records[i], root), model.config)
             for i in range(n)], axis=0)
        with model.frozen():
            chunks = [model.forward(x[i:i + CKA_BATCH]).stages
                      for i in range(0, n, CKA_BATCH)]
        prefix = "" if same_arch else f"{idx}:{run_cfg['name']}:"
        layers = {f"{prefix}{taps[0].name}": np.concatenate(
                      [np.asarray(t.data.data, dtype=np.float64)
                       .reshape(t.data.shape[0], -1) for t in taps])
                  for taps in zip(*chunks)}
        stem = os.path.splitext(os.path.basename(ckpt))[0]
        path = os.path.join(out_dir, f"cka_{idx:02d}_{stem}.admp")
        write_activation_dump(path, run_cfg["name"], layers)
        dump_paths.append(path)
    # recompute from the dumps on disk so the CSV matches the exported
    # activations exactly
    dumps = [read_activation_dump(p)[1] for p in dump_paths]
    if same_arch:
        ids, mat = cka_matrix(dumps)
    else:
        joint = {}
        for d in dumps:
            joint.update(d)
        ids, mat = cka_matrix([joint])
    rows = [[ids[i]] + [float(v) for v in mat[i]] for i in range(len(ids))]
    write_csv(os.path.join(out_dir, "cka_matrix.csv"), ["id"] + ids, rows)
    print(f"cka: {len(ckpts)} checkpoints, {len(ids)} taps, {n} inputs -> "
          f"{os.path.join(out_dir, 'cka_matrix.csv')}")
    return 0


def cmd_analyze(args):
    ckpts = args.checkpoint
    out_dir = args.out or os.path.dirname(os.path.abspath(ckpts[0]))
    if args.instrument == "cka":
        return _analyze_cka(args, ckpts, out_dir)
    require(len(ckpts) == 1, f"--checkpoint for {args.instrument}", ckpts,
            "exactly one path")
    model, run_cfg = _load_run_model(ckpts[0])
    records, root = _analysis_records(args, run_cfg, ckpts[0])
    if args.instrument == "erf":
        return _analyze_erf(args, model, run_cfg, records, root, out_dir)
    return _analyze_attn(args, model, run_cfg, records, root, out_dir)


# ---------------------------------------------------------------------------
# reports


def read_predictions(path):
    """Pooled predictions CSV -> (pred, target) float arrays; a fold cell
    that is not an integer still marks the file as damaged."""
    rows = read_csv_rows(path, "predictions", PREDICTIONS_HEADER)
    try:
        for r in rows:
            int(r[4])
        return (np.asarray([float(r[3]) for r in rows]),
                np.asarray([float(r[2]) for r in rows]))
    except (ValueError, IndexError) as err:
        raise DataError(f"{path}: malformed predictions row: {err}") \
            from err


def evaluate_pooled(pred, target):
    """All Table-2 metrics from a pooled prediction set."""
    out = dict(regression_metrics(pred, target))
    brier, reliability = brier_and_reliability(pred, target)
    out["brier"] = brier
    out["auroc"] = auroc(pred, target)
    return out, reliability


def _find_runs(runs_dir):
    if not os.path.isdir(runs_dir):
        raise DataError(f"run directory {runs_dir} does not exist")
    if os.path.isfile(os.path.join(runs_dir, POOLED_PREDICTIONS)):
        return [runs_dir]
    runs = [os.path.join(runs_dir, d) for d in sorted(os.listdir(runs_dir))
            if os.path.isfile(os.path.join(runs_dir, d,
                                           POOLED_PREDICTIONS))]
    if not runs:
        raise DataError(f"no completed runs (with {POOLED_PREDICTIONS}) "
                        f"under {runs_dir}")
    return runs


def cmd_report(args):
    runs = _find_runs(args.runs)
    header2 = list(TABLE2_HEADER)
    if args.ci:
        for key in METRIC_KEYS:
            header2 += [f"{key}_lo", f"{key}_hi"]
    rows2, rows3, rows_rel = [], [], []
    for run in runs:
        run_cfg, model_cfg = _read_run_config(
            os.path.join(run, RESOLVED_CONFIG))
        pred, target = read_predictions(
            os.path.join(run, POOLED_PREDICTIONS))
        name, dim = run_cfg["name"], model_cfg.input_dims
        params = build_model(model_cfg, seed=0).param_count()
        metrics, reliability = evaluate_pooled(pred, target)
        row = [name, dim, params] + [metrics[k] for k in METRIC_KEYS]
        if args.ci:
            for key in METRIC_KEYS:
                lo, hi = bootstrap_ci(
                    ROW_METRICS[key], pred, target, n=args.bootstrap_n,
                    seed=derive_seed(run_cfg["seed"], f"bootstrap:{key}"))
                row += [lo, hi]
        rows2.append(row)
        bins, balanced = stratified_sens_spec(pred, target)
        for b in _BIN_ORDER:
            if b not in bins:
                continue
            entry = bins[b]
            rows3.append([name, dim, b, entry["sensitivity"],
                          entry["specificity"], entry["count"], balanced])
        for j, (mean_pred, pos_fraction, count) in enumerate(reliability):
            rows_rel.append([name, dim, j + 1, mean_pred, pos_fraction,
                            count])
    out_dir = args.out or args.runs
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, "table2.csv"), header2, rows2)
    write_csv(os.path.join(out_dir, "table3.csv"), TABLE3_HEADER, rows3)
    write_csv(os.path.join(out_dir, "reliability.csv"), RELIABILITY_HEADER,
              rows_rel)
    print(f"report: {len(rows2)} runs -> "
          f"{os.path.join(out_dir, 'table2.csv')}, table3.csv, "
          f"reliability.csv")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(
        prog="volab",
        description=__doc__,
        epilog=_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    parser.set_defaults(func=None)

    p = sub.add_parser(
        "phantom", help="generate a synthetic phantom dataset",
        description="Write n phantom volumes (VOLB) plus a manifest CSV. "
                    "Reruns with the same arguments are byte-identical.",
        epilog=_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--n", type=int, required=True,
                   help="number of volumes")
    p.add_argument("--shape", default="32,32,32",
                   help="volume shape as D,H,W (default 32,32,32)")
    p.add_argument("--seed", type=int, required=True,
                   help="master seed for the dataset stream")
    p.add_argument("--gmm", default=None,
                   help="optional labeling mixture JSON (default built-in)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--amp-lo", type=float, default=0.0,
                   help="anomaly amplitude range low end (default 0)")
    p.add_argument("--amp-hi", type=float, default=1.0,
                   help="anomaly amplitude range high end (default 1)")
    p.add_argument("--sparsity", type=float, default=0.2,
                   help="anomaly voxel fraction (default 0.2)")
    p.add_argument("--noise", type=float, default=0.05,
                   help="sensor noise sigma (default 0.05)")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser(
        "train", help="train patient-grouped cross-validation folds",
        description="Train every fold from an experiment config JSON: "
                    "per-fold checkpoint + history CSV, and pooled "
                    "out-of-fold predictions. The mandatory master "
                    "seed fans out to named sub-streams "
                    f"({', '.join(SEED_STREAMS)}).",
        epilog=_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", required=True,
                   help="experiment config JSON path")
    p.add_argument("--parallel-folds", type=int, default=1, metavar="N",
                   help="train up to N folds at once on a thread pool "
                        "(default 1; outputs do not depend on N)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "analyze", help="run a mechanistic instrument on checkpoints",
        description="erf: Table-4-schema stage radii + raw mean maps "
                    "(.npy). attn: Table-5-schema per-risk-bin attention "
                    "distance stats (attention-bearing families only). "
                    "cka: activation dumps (ADMP) per checkpoint plus a "
                    "symmetric fold-averaged CKA matrix CSV.",
        epilog=_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--checkpoint", nargs="+", required=True,
                   help="checkpoint path(s); cka accepts several")
    p.add_argument("--instrument", required=True,
                   choices=("erf", "attn", "cka"))
    p.add_argument("--stages", default=None,
                   help="comma-separated stage taps (erf; default: the "
                        "model's table stages)")
    p.add_argument("--k", type=int, default=5,
                   help="top-k attended tokens per query (attn; default "
                        "%(default)s)")
    p.add_argument("--manifest", default=None,
                   help="manifest of analysis inputs (default: the "
                        "training manifest recorded in the run)")
    p.add_argument("--erf-inputs", dest="erf_inputs", type=int, default=2,
                   help="inputs averaged per ERF map (default %(default)s)")
    p.add_argument("--attn-inputs", dest="attn_inputs", type=int, default=6,
                   help="inputs sampled across risk bins (default "
                        "%(default)s)")
    p.add_argument("--cka-inputs", dest="cka_inputs", type=int, default=8,
                   help="inputs per activation dump (default %(default)s)")
    p.add_argument("--threshold", type=float, default=ERF_THRESHOLD,
                   help="ERF mask threshold in [0, 1) (default "
                        "%(default)s)")
    p.add_argument("--out", default=None,
                   help="output directory (default: beside checkpoint)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "report", help="aggregate runs into performance tables",
        description="One Table-2-schema row per run plus Table-3-schema "
                    "stratified rows and a reliability table, recomputed "
                    "from each run's pooled predictions, as CSV files.",
        epilog=_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", required=True,
                   help="directory of run directories (or a single run)")
    p.add_argument("--ci", action="store_true",
                   help="append bootstrap confidence-interval columns")
    p.add_argument("--bootstrap-n", dest="bootstrap_n", type=int,
                   default=1000,
                   help="bootstrap resamples for --ci (default 1000)")
    p.add_argument("--out", default=None,
                   help="output directory (default: --runs)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is None:
            raise ConfigError("no command given (see volab --help)")
        return args.func(args)
    except ConfigError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (DataError, ShapeError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
