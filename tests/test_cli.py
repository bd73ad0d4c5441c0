"""Command-line front end: golden schemas, exit codes, byte-identical
reruns, and report values equal to direct recomputation."""

import csv
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from volab import cli
from volab.analysis import attention_distance_stats, cka_matrix, \
    read_activation_dump, write_activation_dump
from volab.artifacts import ConfigError, DataError
from volab.labels import CohortRecord, read_manifest, \
    stratified_patient_split, write_manifest
from volab.metrics import auroc, brier_and_reliability, regression_metrics, \
    stratified_sens_spec
from volab.models import ModelConfig, ModelInstance, build_model, \
    desk_config
from volab.tensor import NumericError
from volab.training import TrainConfig, cross_validate, make_input, \
    samples_from_records
from volab.volume import read_volume


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_hashes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = _sha(p)
    return out


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


N_RECORDS = 18
DATA_SEED = 19
VIT_MASTER, CNN_MASTER = 101, 102

# inline model blocks of the desk geometry, for degenerate-value cases
CNN_BLOCK = {"family": "cnn", "input_dims": 3, "input_shape": [32, 32, 32]}
VIT_BLOCK = dict(CNN_BLOCK, family="vit", patch_size=[4, 8, 8])
SWIN_BLOCK = dict(CNN_BLOCK, family="swin", patch_size=[4, 4, 4],
                  embed_dim=12, window_size=[4, 4, 4],
                  stage_depths=[2, 2, 1, 1])
HYBRID_BLOCK = {"family": "hybrid_transformer", "input_dims": 2,
                "input_shape": [32, 32, 32], "stem_channels": 4,
                "stage_channels": [4, 8, 16, 32]}


def _write_config(path, out_dir, manifest, preset, master, n_folds,
                  max_epochs, extra=None):
    cfg = {
        "seed": master,
        "out_dir": out_dir,
        "dataset": {"manifest": manifest},
        "model": {"preset": preset},
        "train": {"lr_max": 1e-3, "lr_min": 2e-4, "max_epochs": max_epochs,
                  "physical_batch": 8, "accumulation_steps": 1,
                  "patience": 10},
        "n_folds": n_folds,
    }
    cfg.update(extra or {})
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One shared pipeline: a phantom dataset spanning all three risk bins,
    a 3-fold ViT run (attention-bearing), and a 2-fold CNN run."""
    root = tmp_path_factory.mktemp("cliruns")
    assert cli.main(["phantom", "--n", str(N_RECORDS), "--shape",
                     "32,32,32", "--seed", str(DATA_SEED),
                     "--out", str(root / "data")]) == 0
    _write_config(root / "exp_vit.json", "runs/vit3d", "data/manifest.csv",
                  "vit3d", VIT_MASTER, n_folds=3, max_epochs=2)
    _write_config(root / "exp_cnn.json", "runs/cnn3d", "data/manifest.csv",
                  "cnn3d", CNN_MASTER, n_folds=3, max_epochs=1)
    assert cli.main(["train", "--config", str(root / "exp_vit.json")]) == 0
    assert cli.main(["train", "--config", str(root / "exp_cnn.json")]) == 0
    return root


class TestPhantom:
    def test_writes_volumes_and_manifest(self, workdir):
        data = workdir / "data"
        vols = sorted(p for p in os.listdir(data) if p.endswith(".volb"))
        assert len(vols) == N_RECORDS
        records = read_manifest(data / "manifest.csv")
        assert len(records) == N_RECORDS
        vol = read_volume(data / records[0].volume_path)
        assert vol.shape == (32, 32, 32)

    def test_two_eyes_share_a_patient(self, workdir):
        records = read_manifest(workdir / "data" / "manifest.csv")
        assert records[0].patient_id == records[1].patient_id
        assert records[0].eye_id != records[1].eye_id
        assert records[0].patient_id != records[2].patient_id

    def test_labels_span_all_three_bins(self, workdir):
        records = read_manifest(workdir / "data" / "manifest.csv")
        assert {r.bin.value for r in records} == {
            "healthy", "subclinical", "keratoconus"}

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        again = tmp_path / "again"
        assert cli.main(["phantom", "--n", str(N_RECORDS), "--shape",
                         "32,32,32", "--seed", str(DATA_SEED),
                         "--out", str(again)]) == 0
        assert _tree_hashes(again) == _tree_hashes(workdir / "data")

    def test_prefix_is_stable_in_n(self, workdir, tmp_path):
        small = tmp_path / "small"
        assert cli.main(["phantom", "--n", "3", "--shape", "32,32,32",
                         "--seed", str(DATA_SEED), "--out",
                         str(small)]) == 0
        assert _sha(small / "vol_0002.volb") == \
            _sha(workdir / "data" / "vol_0002.volb")

    def test_bad_arguments_exit_one(self, tmp_path):
        out = str(tmp_path / "x")
        base = ["phantom", "--seed", "1", "--out", out]
        assert cli.main(base + ["--n", "0"]) == 1
        assert cli.main(base + ["--n", "2", "--shape", "32,32"]) == 1
        assert cli.main(base + ["--n", "2", "--amp-lo", "2.0",
                                "--amp-hi", "1.0"]) == 1
        assert cli.main(["phantom", "--n", "2", "--out", out]) == 1

    @pytest.mark.parametrize("flags", [
        ["--sparsity", "0"], ["--sparsity", "1"], ["--noise", "-1"],
        ["--noise", "nan"], ["--amp-lo", "-0.5"], ["--shape", "0,32,32"],
        ["--seed", "-1"],
    ], ids=["zero_sparsity", "unit_sparsity", "negative_noise", "nan_noise",
            "negative_amplitude", "zero_axis", "negative_seed"])
    def test_bad_spec_exits_one_before_writing(self, tmp_path, flags):
        out = tmp_path / "x"
        assert cli.main(["phantom", "--n", "2", "--seed", "1", "--out",
                         str(out)] + flags) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"weights": [0.5, 0.5], "means": [[0.0], [1.0, 2.0]], '
        '"covariances": [1.0, 1.0]}',
    ], ids=["array", "ragged_means"])
    def test_bad_mixture_file_exits_two(self, tmp_path, text):
        gmm = tmp_path / "gmm.json"
        gmm.write_text(text)
        assert cli.main(["phantom", "--n", "2", "--seed", "1", "--gmm",
                         str(gmm), "--out", str(tmp_path / "x")]) == 2


class TestSeedStreams:
    def test_streams_are_distinct_and_stable(self):
        seeds = {s: cli.derive_seed(7, s) for s in cli.SEED_STREAMS}
        assert len(set(seeds.values())) == len(cli.SEED_STREAMS)
        assert seeds == {s: cli.derive_seed(7, s) for s in cli.SEED_STREAMS}
        assert cli.derive_seed(8, "init") != seeds["init"]


class TestTrain:
    def test_artifacts_and_history_schema(self, workdir):
        run = workdir / "runs" / "vit3d"
        for k in range(3):
            assert (run / f"fold{k}.ckpt").is_file()
            header, rows = _read_csv(run / f"fold{k}_history.csv")
            assert header == ["epoch", "train_mse", "val_mse", "lr"]
            assert [int(r[0]) for r in rows] == \
                list(range(1, len(rows) + 1))
        cfg = json.load(open(run / "resolved_config.json"))
        assert cfg["name"] == "vit3d"
        assert cfg["seed"] == VIT_MASTER
        assert cfg["train"]["seed"] == cli.derive_seed(VIT_MASTER, "init")

    def test_pooled_predictions_cover_each_record_once(self, workdir):
        run = workdir / "runs" / "vit3d"
        records = read_manifest(workdir / "data" / "manifest.csv")
        header, rows = _read_csv(run / "pooled_predictions.csv")
        assert header == ["patient_id", "eye_id", "p_kc", "pred", "fold"]
        assert [(r[0], r[1]) for r in rows] == \
            [(rec.patient_id, rec.eye_id) for rec in records]
        folds = [int(r[4]) for r in rows]
        assert set(folds) == {0, 1, 2}
        by_patient = {}
        for r in rows:
            by_patient.setdefault(r[0], set()).add(int(r[4]))
        assert all(len(s) == 1 for s in by_patient.values())

    def test_pooled_predictions_match_library_cross_validate(self, workdir):
        """The CLI path and a direct library invocation are the same
        computation."""
        run = workdir / "runs" / "vit3d"
        run_cfg = json.load(open(run / "resolved_config.json"))
        records = read_manifest(workdir / "data" / "manifest.csv")
        model_cfg = ModelConfig(**run_cfg["model"])
        train_cfg = TrainConfig(**run_cfg["train"])
        samples = samples_from_records(records, model_cfg,
                                       root=str(workdir / "data"))
        pooled = {}
        split = stratified_patient_split(records, run_cfg["n_folds"],
                                         seed=train_cfg.seed)
        for k, (_, _, test_idx, preds) in enumerate(cross_validate(
                records, samples, model_cfg, train_cfg, split)):
            pooled.update((i, (float(p), k)) for i, p in zip(test_idx, preds))
        _, rows = _read_csv(run / "pooled_predictions.csv")
        assert [(float(r[3]), int(r[4])) for r in rows] == \
            [pooled[i] for i in range(len(records))]

    def test_rerun_is_byte_identical(self, workdir):
        run = workdir / "runs" / "vit3d"
        before = _tree_hashes(run)
        assert cli.main(["train", "--config",
                         str(workdir / "exp_vit.json")]) == 0
        assert _tree_hashes(run) == before

    def test_parallel_folds_match_sequential(self, workdir):
        run = workdir / "runs" / "vit3d"
        before = _tree_hashes(run)
        assert cli.main(["train", "--config", str(workdir / "exp_vit.json"),
                         "--parallel-folds", "3"]) == 0
        assert _tree_hashes(run) == before

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_parallel_folds_below_one_exits_one(self, workdir, workers):
        run = workdir / "runs" / "vit3d"
        before = _tree_hashes(run)
        assert cli.main(["train", "--config", str(workdir / "exp_vit.json"),
                         "--parallel-folds", workers]) == 1
        assert _tree_hashes(run) == before

    def test_config_errors_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["train", "--config", str(bad)]) == 1
        cfg = {"out_dir": "r", "dataset": {"manifest": "m.csv"},
               "model": {"preset": "cnn3d"}}
        bad.write_text(json.dumps(cfg))  # master seed missing
        assert cli.main(["train", "--config", str(bad)]) == 1
        cfg["seed"] = 1
        for preset in ("cnn9d", ["cnn3d"], {"cnn3d": 1}, 3):
            cfg["model"] = {"preset": preset}
            bad.write_text(json.dumps(cfg))
            assert cli.main(["train", "--config", str(bad)]) == 1, preset
        cfg["model"] = {"preset": "cnn3d"}
        for count in ("max_epochs", "physical_batch", "accumulation_steps"):
            cfg["train"] = {count: 0}
            bad.write_text(json.dumps(cfg))
            assert cli.main(["train", "--config", str(bad)]) == 1, count
        for change in ({"betas": [0.9]}, {"betas": [0.9, 0.99, 0.5]},
                       {"max_epochs": 1.5}, {"physical_batch": True},
                       {"accumulation_steps": 2.0}, {"patience": "3"}):
            cfg["train"] = change
            bad.write_text(json.dumps(cfg))
            assert cli.main(["train", "--config", str(bad)]) == 1, change
        cfg["train"] = {}
        cnn = {"family": "cnn", "input_dims": 3, "input_shape": [32, 32, 32]}
        for change in ({"stage_strides": [0, 2, 2, 2]},
                      {"stage_strides": [1, 2, -1, 2]},
                      {"stage_channels": [8, 0, 32, 64]},
                      {"stem_channels": 0}):
            cfg["model"] = dict(cnn, **change)
            bad.write_text(json.dumps(cfg))
            assert cli.main(["train", "--config", str(bad)]) == 1, change

    @pytest.mark.parametrize("change", [
        {"analysis": {"erf_inputs": 2}},
        {"target": "pkc"},
        {"dataset": {"phantom": {"n": 9}}},
        {"dataset": {"manifest": "data/manifest.csv", "root": "data"}},
        {"seed": -1},
        {"seed": 1.5},
        {"out_dir": 5},
        {"name": 5},
        {"name": ["a", "b"]},
    ], ids=["analysis", "target", "phantom_dataset", "extra_dataset_key",
            "negative_seed", "fractional_seed", "numeric_out_dir",
            "numeric_name", "list_name"])
    def test_rejected_config_exits_one_before_writing(self, workdir,
                                                      tmp_path, change):
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", str(workdir / "data" / "manifest.csv"),
                      "cnn3d", 1, n_folds=3, max_epochs=1, extra=change)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert os.listdir(tmp_path) == ["exp.json"]

    @pytest.mark.parametrize("block", [
        dict(VIT_BLOCK, n_heads=0),
        dict(VIT_BLOCK, patch_size=[4, 0, 8]),
        dict(SWIN_BLOCK, window_size=[4, 0, 4]),
        dict(VIT_BLOCK, embed_dim=0),
        dict(VIT_BLOCK, mlp_ratio=0),
        dict(VIT_BLOCK, mlp_ratio=math.nan),
        dict(HYBRID_BLOCK, agg_dropout=1.0),
        dict(HYBRID_BLOCK, agg_heads=3),
        dict(HYBRID_BLOCK, family="hybrid_lstm", agg_hidden=0),
        dict(CNN_BLOCK, input_shape="abc"),
        dict(CNN_BLOCK, in_channels=2),
        dict(SWIN_BLOCK, input_shape=[8, 8, 8]),
        dict(CNN_BLOCK, input_shape=[1, 1, 1]),
        dict(HYBRID_BLOCK, input_shape=[32, 1, 32]),
        dict(SWIN_BLOCK, input_shape=[24, 24, 24], stage_depths=[2, 2]),
        {"preset": "swin3d", "scale": "paper"},
        dict(CNN_BLOCK, stage_channels=[], stage_strides=[]),
        dict(HYBRID_BLOCK, stage_channels=[], stage_strides=[]),
    ], ids=["zero_heads", "zero_patch", "zero_window", "zero_embed_dim",
            "zero_mlp_ratio", "nan_mlp_ratio", "full_dropout",
            "indivisible_agg_heads", "zero_agg_hidden", "text_input_shape",
            "two_channels", "unhalvable_swin_grid", "unpoolable_cnn_input",
            "unpoolable_hybrid_slice", "indivisible_swin_window",
            "paper_swin3d_preset", "empty_cnn_stages",
            "empty_hybrid_stages"])
    def test_degenerate_model_block_exits_one_before_writing(
            self, workdir, tmp_path, block):
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", str(workdir / "data" / "manifest.csv"),
                      "cnn3d", 1, n_folds=3, max_epochs=1,
                      extra={"model": block})
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert os.listdir(tmp_path) == ["exp.json"]

    @pytest.mark.parametrize("change", [
        {"lr_max": math.nan}, {"lr_max": math.inf}, {"lr_min": math.nan},
        {"weight_decay": math.inf}, {"eps": math.nan},
        {"min_delta": math.inf},
    ], ids=["nan_lr_max", "inf_lr_max", "nan_lr_min", "inf_weight_decay",
            "nan_eps", "inf_min_delta"])
    def test_non_finite_train_value_exits_one_before_writing(
            self, workdir, tmp_path, change):
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", str(workdir / "data" / "manifest.csv"),
                      "cnn3d", 1, n_folds=3, max_epochs=1)
        raw = json.loads(cfg.read_text())
        raw["train"].update(change)
        cfg.write_text(json.dumps(raw))  # NaN and Infinity, as JSON allows
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert os.listdir(tmp_path) == ["exp.json"]

    def _other_run(self, workdir, tmp_path, preset, n_folds):
        """A copy of the cnn3d run and a config that would train ``preset``
        with ``n_folds`` folds into it."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "run", str(workdir / "data" / "manifest.csv"),
                      preset, CNN_MASTER, n_folds=n_folds, max_epochs=1)
        return run, cfg

    def test_unsplittable_cohort_exits_two_before_writing(self, workdir,
                                                          tmp_path):
        # 18 records of 9 patients cannot fill 10 folds
        run, cfg = self._other_run(workdir, tmp_path, "swin3d", 10)
        before = _tree_hashes(run)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert _tree_hashes(run) == before
        shutil.rmtree(run)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert not run.exists()

    @pytest.mark.parametrize("flags", [[], ["--parallel-folds", "2"]],
                             ids=["all_folds", "parallel_folds"])
    def test_other_run_in_out_dir_exits_one(self, workdir, tmp_path, capsys,
                                            flags):
        run, cfg = self._other_run(workdir, tmp_path, "swin3d", 3)
        before = _tree_hashes(run)
        assert cli.main(["train", "--config", str(cfg), *flags]) == 1
        assert str(run) in capsys.readouterr().err
        assert _tree_hashes(run) == before

    def test_truncated_volume_exits_two(self, tmp_path):
        (tmp_path / "vol.volb").write_bytes(b"VOLB\x01")
        write_manifest(tmp_path / "manifest.csv",
                       [CohortRecord("P0", "OD", "vol.volb", 0.5)])
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", "manifest.csv", "cnn3d", 1, n_folds=3,
                      max_epochs=1)
        assert cli.main(["train", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("case", ["nan_voxel", "zero_axis",
                                      "nan_spacing"])
    def test_corrupt_volume_exits_two_before_writing(self, workdir,
                                                     tmp_path, case):
        """A VOLB file that frames correctly but holds a non-finite voxel,
        an empty axis or a non-finite spacing is a data error, raised
        before train writes anything."""
        data = tmp_path / "data"
        shutil.copytree(workdir / "data", data)
        dims, spacing = [32, 32, 32], [0.5, 0.5, 0.5]
        if case == "zero_axis":
            dims[1] = 0
        if case == "nan_spacing":
            spacing[2] = math.nan
        voxels = np.random.default_rng(0).normal(size=dims).astype("<f4")
        if case == "nan_voxel":
            voxels[3, 4, 5] = np.nan
        (data / "vol_0000.volb").write_bytes(
            b"VOLB" + struct.pack("<B3I3f", 1, *dims, *spacing)
            + voxels.tobytes())
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", "data/manifest.csv", "cnn3d", 1, n_folds=3,
                      max_epochs=1)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert not (tmp_path / "r").exists()

    def test_non_integer_age_exits_two(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("patient_id,eye_id,volume_path,p_kc,age,sex\n"
                            "P0,OD,vol.volb,0.5,forty,F\n")
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", "manifest.csv", "cnn3d", 1, n_folds=3,
                      max_epochs=1)
        assert cli.main(["train", "--config", str(cfg)]) == 2
        assert "manifest.csv:2: bad age 'forty'" in capsys.readouterr().err

    def test_swin_odd_merged_grid_trains(self, workdir, tmp_path):
        # stage-1 grid (4, 4, 3): the merge pads the odd axis with a token
        model = {"family": "swin", "input_dims": 3,
                 "input_shape": [32, 32, 24], "patch_size": [8, 8, 8],
                 "window_size": [4, 4, 4], "stage_depths": [1, 1],
                 "pad_policy": "pad", "embed_dim": 12, "n_heads": 2}
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "run", str(workdir / "data" / "manifest.csv"),
                      "swin3d", 7, n_folds=3, max_epochs=1,
                      extra={"model": model})
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "pooled_predictions.csv").is_file()

    @pytest.mark.parametrize("manifest", [5, None, ["m.csv"]],
                             ids=["number", "null", "list"])
    def test_non_string_manifest_exits_one(self, tmp_path, manifest):
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", manifest, "cnn3d", 1, n_folds=3,
                      max_epochs=1)
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert not (tmp_path / "r" / "resolved_config.json").exists()

    def test_train_block_seed_exits_one_before_writing(self, workdir,
                                                      tmp_path, capsys):
        # the init seed derives from the master seed; a train block's own
        # seed would be overwritten, so it is refused
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", str(workdir / "data" / "manifest.csv"),
                      "cnn3d", 1, n_folds=3, max_epochs=1)
        raw = json.loads(cfg.read_text())
        raw["train"]["seed"] = 5
        cfg.write_text(json.dumps(raw))
        assert cli.main(["train", "--config", str(cfg)]) == 1
        assert "train.seed" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["exp.json"]

    @pytest.mark.parametrize("seed", [-1, True], ids=["negative", "bool"])
    def test_experiment_config_refuses_bad_seed(self, seed):
        with pytest.raises(ConfigError):
            cli.ExperimentConfig(seed=seed, out_dir="r",
                                 dataset={"manifest": "m.csv"},
                                 model={"preset": "cnn3d"})

    def test_missing_dataset_exits_two(self, tmp_path):
        cfg = tmp_path / "exp.json"
        _write_config(cfg, "r", "nowhere/manifest.csv", "cnn3d", 1,
                      n_folds=3, max_epochs=1)
        assert cli.main(["train", "--config", str(cfg)]) == 2

    def test_numeric_abort_exits_three(self, workdir, monkeypatch):
        calls = []

        def explode(*args, **kwargs):
            calls.append(args[3].seed)
            raise NumericError("training aborted at epoch 1, sample "
                               "offset 0")
        monkeypatch.setattr("volab.training.train_fold", explode)
        # the first failing fold ends the run: no later fold starts
        assert cli.main(["train", "--config",
                         str(workdir / "exp_vit.json")]) == 3
        assert len(calls) == 1
        assert cli.main(["train", "--config", str(workdir / "exp_vit.json"),
                         "--parallel-folds", "2"]) == 3


class TestAnalyzeErf:
    def test_cnn_row_fills_all_four_stages(self, workdir):
        run = workdir / "runs" / "cnn3d"
        assert cli.main(["analyze", "--checkpoint",
                         str(run / "fold0.ckpt"), "--instrument", "erf",
                         "--erf-inputs", "2"]) == 0
        header, rows = _read_csv(run / "erf_table.csv")
        assert header == ["model", "dim", "stage1", "stage2", "stage3",
                          "stage4", "et_ratio"]
        assert len(rows) == 1
        row = rows[0]
        assert row[:2] == ["cnn3d", "3"]
        radii = [float(v) for v in row[2:6]]
        assert all(np.isfinite(radii)) and all(r > 0 for r in radii)
        assert radii == sorted(radii)
        assert 0 < float(row[6]) < 10
        for k in range(1, 5):
            m = np.load(run / f"erf_map_stage{k}.npy")
            assert m.shape == (32, 32, 32)

    def test_vit_row_leaves_unused_stage_columns_empty(self, workdir):
        run = workdir / "runs" / "vit3d"
        assert cli.main(["analyze", "--checkpoint",
                         str(run / "fold0.ckpt"), "--instrument", "erf",
                         "--erf-inputs", "1"]) == 0
        _, rows = _read_csv(run / "erf_table.csv")
        row = rows[0]
        assert float(row[2]) > 0 and float(row[3]) > 0
        assert row[4] == "" and row[5] == ""

    def test_explicit_stage_subset(self, workdir, tmp_path):
        run = workdir / "runs" / "cnn3d"
        out = tmp_path / "erf"
        assert cli.main(["analyze", "--checkpoint",
                         str(run / "fold0.ckpt"), "--instrument", "erf",
                         "--stages", "stage2", "--out", str(out)]) == 0
        _, rows = _read_csv(out / "erf_table.csv")
        assert rows[0][2] != "" and rows[0][3] == ""

    def test_unknown_stage_exits_one(self, workdir):
        run = workdir / "runs" / "cnn3d"
        assert cli.main(["analyze", "--checkpoint",
                         str(run / "fold0.ckpt"), "--instrument", "erf",
                         "--stages", "stage9"]) == 1

    def test_repeated_stage_exits_one_before_writing(self, workdir,
                                                     tmp_path):
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        before = _tree_hashes(run)
        assert cli.main(["analyze", "--checkpoint", str(run / "fold0.ckpt"),
                         "--instrument", "erf", "--stages", "stage1,stage1",
                         "--manifest",
                         str(workdir / "data" / "manifest.csv")]) == 1
        assert _tree_hashes(run) == before

    @pytest.mark.parametrize("value", ["1.0", "1.5", "-0.5", "nan"],
                             ids=["flag_one", "flag_above_one",
                                  "flag_negative", "flag_nan"])
    def test_threshold_outside_unit_interval_exits_one(
            self, workdir, tmp_path, value):
        assert cli.main(["analyze", "--checkpoint",
                         str(workdir / "runs" / "cnn3d" / "fold0.ckpt"),
                         "--instrument", "erf", "--threshold", value,
                         "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out" / "erf_table.csv").exists()


class TestAnalyzeAttn:
    def test_table5_schema_and_recomputation(self, workdir):
        run = workdir / "runs" / "vit3d"
        assert cli.main(["analyze", "--checkpoint",
                         str(run / "fold0.ckpt"), "--instrument", "attn",
                         "--k", "3", "--attn-inputs", "6"]) == 0
        header, rows = _read_csv(run / "attn_table.csv")
        assert header == ["model", "dim", "bin", "mean", "sd", "median",
                          "pct_gt20", "max"]
        assert [r[2] for r in rows] == ["healthy", "subclinical",
                                        "keratoconus"]
        # recomputation oracle: rebuild the model, replay the documented
        # selection protocol, and compare every statistic exactly
        model, run_cfg = cli._load_run_model(str(run / "fold0.ckpt"))
        records = read_manifest(workdir / "data" / "manifest.csv")
        per_bin = 2  # ceil(6 / 3)
        chosen = []
        for b in ("healthy", "subclinical", "keratoconus"):
            hits = [i for i, r in enumerate(records) if r.bin.value == b]
            chosen.extend(hits[:per_bin])
        labeled = []
        for i in sorted(chosen):
            vol = read_volume(workdir / "data" / records[i].volume_path)
            x = make_input(vol, model.config)
            labeled.append((records[i].p_kc,
                            model.forward(x[None]).attention))
        stats = attention_distance_stats(labeled, k=3)
        for row in rows:
            st = stats[row[2]]
            assert [float(v) for v in row[3:]] == [
                st["mean"], st["sd"], st["median"], st["pct_gt20"],
                st["max"]]

    def test_attn_on_cnn_exits_two(self, workdir, capsys):
        run = workdir / "runs" / "cnn3d"
        assert cli.main(["analyze", "--checkpoint",
                         str(run / "fold0.ckpt"), "--instrument",
                         "attn"]) == 2
        assert "model has no attention layers" in capsys.readouterr().err


class TestAnalyzeCka:
    def test_matrix_is_symmetric_unit_diagonal(self, workdir):
        run = workdir / "runs" / "vit3d"
        assert cli.main(["analyze", "--checkpoint",
                         str(run / "fold0.ckpt"), str(run / "fold1.ckpt"),
                         "--instrument", "cka", "--cka-inputs", "5"]) == 0
        header, rows = _read_csv(run / "cka_matrix.csv")
        ids = header[1:]
        assert ids == ["block1", "block2"]
        mat = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.allclose(mat, mat.T, atol=0)
        assert np.allclose(np.diag(mat), 1.0, atol=1e-10)
        assert ((-1e-12 <= mat) & (mat <= 1 + 1e-12)).all()

    def test_matrix_matches_dump_recomputation(self, workdir):
        run = workdir / "runs" / "vit3d"
        dumps = sorted(p for p in os.listdir(run) if p.endswith(".admp"))
        assert len(dumps) == 2
        fold_dumps = [read_activation_dump(run / p)[1] for p in dumps]
        assert all(arr.shape[0] == 5 for d in fold_dumps
                   for arr in d.values())
        ids, mat = cka_matrix(fold_dumps)
        header, rows = _read_csv(run / "cka_matrix.csv")
        assert header[1:] == ids
        got = np.array([[float(v) for v in r[1:]] for r in rows])
        assert np.array_equal(got, mat)

    @pytest.mark.parametrize("preset", ["cnn3d", "vit3d"])
    def test_chunked_forwards_dump_one_batch_forward(self, workdir, tmp_path,
                                                     monkeypatch, preset):
        """Ten inputs run as forwards of 8 and 2, and the dumps are
        byte-identical to those of one batch-10 forward's taps."""
        run = workdir / "runs" / preset
        ckpts = [str(run / f"fold{k}.ckpt") for k in (0, 1)]
        batches = []
        forward = ModelInstance.forward

        def counting_forward(model, x, *args, **kwargs):
            batches.append(len(x))
            return forward(model, x, *args, **kwargs)

        monkeypatch.setattr(ModelInstance, "forward", counting_forward)
        assert cli.main(["analyze", "--checkpoint", *ckpts, "--instrument",
                         "cka", "--cka-inputs", "10",
                         "--out", str(tmp_path / "cka")]) == 0
        monkeypatch.undo()
        assert batches == [8, 2, 8, 2]
        records = read_manifest(workdir / "data" / "manifest.csv")
        for idx, ckpt in enumerate(ckpts):
            model, run_cfg = cli._load_run_model(ckpt)
            x = np.stack([make_input(read_volume(
                workdir / "data" / r.volume_path), model.config)
                for r in records[:10]])
            with model.frozen():
                taps = model.forward(x).stages
            want = tmp_path / f"want{idx}.admp"
            write_activation_dump(want, run_cfg["name"], {
                tap.name: np.asarray(tap.data.data, np.float64).reshape(10, -1)
                for tap in taps})
            got = tmp_path / "cka" / f"cka_{idx:02d}_fold{idx}.admp"
            assert got.read_bytes() == want.read_bytes()

    def test_missing_sidecar_exits_two(self, workdir, tmp_path):
        bare = tmp_path / "bare.ckpt"
        bare.write_bytes((workdir / "runs" / "vit3d" /
                          "fold0.ckpt").read_bytes())
        assert cli.main(["analyze", "--checkpoint", str(bare),
                         "--instrument", "cka"]) == 2


class TestAnalyzeFlags:
    @pytest.mark.parametrize("preset,instrument,flag", [
        ("cnn3d", "erf", ("--erf-inputs", "0")),
        ("cnn3d", "erf", ("--erf-inputs", str(N_RECORDS + 1))),
        ("vit3d", "attn", ("--k", "0")),
        ("vit3d", "attn", ("--attn-inputs", "0")),
        ("vit3d", "cka", ("--cka-inputs", "1")),
        ("cnn3d", "erf", ("--stages", "stage1,stage1")),
    ], ids=["erf_inputs_zero", "erf_inputs_above_cohort", "k_zero",
            "attn_inputs_zero", "cka_inputs_one", "repeated_stages"])
    def test_out_of_range_count_exits_one(self, workdir, tmp_path, preset,
                                          instrument, flag):
        run = workdir / "runs" / preset
        ckpts = [str(run / "fold0.ckpt")]
        if instrument == "cka":
            ckpts.append(str(run / "fold1.ckpt"))
        out = tmp_path / "out"
        assert cli.main(["analyze", "--checkpoint", *ckpts, "--instrument",
                         instrument, *flag, "--out", str(out)]) == 1
        assert not out.exists()


class TestReport:
    def test_table2_values_equal_direct_recomputation(self, workdir):
        runs = workdir / "runs"
        assert cli.main(["report", "--runs", str(runs)]) == 0
        header, rows = _read_csv(runs / "table2.csv")
        assert header == ["model", "dim", "params", "mse", "mae", "r2",
                          "pearson", "brier", "auroc"]
        assert [r[0] for r in rows] == ["cnn3d", "vit3d"]
        for row in rows:
            run = runs / row[0]
            _, prows = _read_csv(run / "pooled_predictions.csv")
            target = np.array([float(r[2]) for r in prows])
            pred = np.array([float(r[3]) for r in prows])
            reg = regression_metrics(pred, target)
            assert float(row[3]) == reg["mse"]
            assert float(row[4]) == reg["mae"]
            assert float(row[5]) == reg["r2"]
            assert float(row[6]) == reg["pearson"]
            assert float(row[7]) == brier_and_reliability(pred, target)[0]
            assert float(row[8]) == auroc(pred, target)
            cfg = json.load(open(run / "resolved_config.json"))
            model = build_model(ModelConfig(**cfg["model"]))
            assert int(row[2]) == model.param_count()

    def test_table3_values_equal_direct_recomputation(self, workdir):
        runs = workdir / "runs"
        assert cli.main(["report", "--runs", str(runs)]) == 0
        header, rows = _read_csv(runs / "table3.csv")
        assert header == ["model", "dim", "bin", "sensitivity",
                          "specificity", "count", "balanced_accuracy"]
        for name in ("cnn3d", "vit3d"):
            _, prows = _read_csv(runs / name / "pooled_predictions.csv")
            target = np.array([float(r[2]) for r in prows])
            pred = np.array([float(r[3]) for r in prows])
            bins, balanced = stratified_sens_spec(pred, target)
            got = {r[2]: r for r in rows if r[0] == name}
            assert set(got) == set(bins)
            for b, entry in bins.items():
                assert float(got[b][3]) == entry["sensitivity"]
                spec = entry["specificity"]
                assert got[b][4] == ("" if spec is None else repr(spec))
                assert int(got[b][5]) == entry["count"]
                assert float(got[b][6]) == balanced

    def test_reliability_rows(self, workdir):
        runs = workdir / "runs"
        assert cli.main(["report", "--runs", str(runs)]) == 0
        header, rows = _read_csv(runs / "reliability.csv")
        assert header == ["model", "dim", "bin", "mean_pred",
                          "pos_fraction", "count"]
        vit = [r for r in rows if r[0] == "vit3d"]
        assert sum(int(r[5]) for r in vit) == N_RECORDS
        means = [float(r[3]) for r in vit]
        assert means == sorted(means)

    def test_ci_columns_bracket_point_estimates(self, workdir):
        runs = workdir / "runs"
        assert cli.main(["report", "--runs", str(runs), "--ci",
                         "--bootstrap-n", "200"]) == 0
        header, rows = _read_csv(runs / "table2.csv")
        assert header[9:11] == ["mse_lo", "mse_hi"]
        assert header[-2:] == ["auroc_lo", "auroc_hi"]
        for row in rows:
            for i, key in enumerate(("mse", "mae", "r2", "pearson",
                                     "brier", "auroc")):
                point = float(row[3 + i])
                lo, hi = float(row[9 + 2 * i]), float(row[10 + 2 * i])
                assert lo <= point <= hi

    def test_rerun_is_byte_identical(self, workdir):
        runs = workdir / "runs"
        assert cli.main(["report", "--runs", str(runs), "--ci",
                         "--bootstrap-n", "200"]) == 0
        before = {f: _sha(runs / f) for f in
                  ("table2.csv", "table3.csv", "reliability.csv")}
        assert cli.main(["report", "--runs", str(runs), "--ci",
                         "--bootstrap-n", "200"]) == 0
        after = {f: _sha(runs / f) for f in before}
        assert after == before

    def test_single_run_directory_accepted(self, workdir, tmp_path):
        out = tmp_path / "rep"
        assert cli.main(["report", "--runs",
                         str(workdir / "runs" / "vit3d"), "--out",
                         str(out)]) == 0
        _, rows = _read_csv(out / "table2.csv")
        assert len(rows) == 1 and rows[0][0] == "vit3d"

    def test_empty_run_dir_exits_two(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["report", "--runs", str(empty)]) == 2
        assert cli.main(["report", "--runs", str(tmp_path / "ghost")]) == 2

    def test_low_bootstrap_n_exits_one(self, workdir):
        assert cli.main(["report", "--runs", str(workdir / "runs"),
                         "--ci", "--bootstrap-n", "50"]) == 1


class TestDamagedRun:
    """A run directory whose files are cut short or lack keys exits 2."""

    @staticmethod
    def _analyze_erf(workdir, tmp_path, run):
        return cli.main(["analyze", "--checkpoint", str(run / "fold0.ckpt"),
                         "--instrument", "erf", "--manifest",
                         str(workdir / "data" / "manifest.csv"),
                         "--out", str(tmp_path / "out")])

    def test_truncated_checkpoint_exits_two(self, workdir, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        ckpt = run / "fold0.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-7])
        assert self._analyze_erf(workdir, tmp_path, run) == 2

    @pytest.mark.parametrize("key", ["model", "manifest", "name"])
    def test_resolved_config_missing_key_exits_two(self, workdir, tmp_path,
                                                   key):
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        path = run / "resolved_config.json"
        cfg = json.loads(path.read_text())
        del cfg[key]
        path.write_text(json.dumps(cfg))
        assert self._analyze_erf(workdir, tmp_path, run) == 2
        assert cli.main(["report", "--runs", str(run), "--out",
                         str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"],
                             ids=["unparsable", "not_an_object"])
    def test_resolved_config_unreadable_exits_two(self, workdir, tmp_path,
                                                  text):
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        (run / "resolved_config.json").write_text(text)
        assert self._analyze_erf(workdir, tmp_path, run) == 2
        assert cli.main(["report", "--runs", str(run), "--out",
                         str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize("seed", ["x", -3, 1.5],
                             ids=["text", "negative", "fractional"])
    def test_bad_seed_exits_two(self, workdir, tmp_path, seed):
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        path = run / "resolved_config.json"
        cfg = json.loads(path.read_text())
        cfg["seed"] = seed
        path.write_text(json.dumps(cfg))
        assert self._analyze_erf(workdir, tmp_path, run) == 2
        assert cli.main(["report", "--runs", str(run), "--ci", "--out",
                         str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize("change", [
        {"n_heads": 0}, {"mlp_ratio": 0}, {"agg_dropout": 1.0},
        {"input_shape": "abc"}, {"embed_dim": 0},
    ], ids=["zero_heads", "zero_mlp_ratio", "full_dropout",
            "text_input_shape", "zero_embed_dim"])
    def test_degenerate_model_value_exits_two(self, workdir, tmp_path,
                                              change):
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        path = run / "resolved_config.json"
        cfg = json.loads(path.read_text())
        cfg["model"].update(change)
        path.write_text(json.dumps(cfg))
        assert self._analyze_erf(workdir, tmp_path, run) == 2
        assert cli.main(["report", "--runs", str(run), "--out",
                         str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize("value", [5, None, ["a"]],
                             ids=["number", "null", "list"])
    @pytest.mark.parametrize("key", ["manifest", "name"])
    @pytest.mark.parametrize("command", ["erf", "cka", "report"])
    def test_non_string_manifest_or_name_exits_two(self, workdir, tmp_path,
                                                   command, key, value):
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        path = run / "resolved_config.json"
        cfg = json.loads(path.read_text())
        cfg[key] = value
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        ckpts = [str(run / "fold0.ckpt")]
        if command == "cka":
            ckpts.append(str(run / "fold1.ckpt"))
        # no --manifest: analyze reads the run's
        argv = (["report", "--runs", str(run)] if command == "report" else
                ["analyze", "--checkpoint", *ckpts, "--instrument", command])
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("column,cell", [
        (3, "x"), (2, "x"), (4, "x"), (4, "1.5"), (None, None),
    ], ids=["text_pred", "text_p_kc", "text_fold", "fractional_fold",
            "short_row"])
    def test_damaged_predictions_exit_two(self, workdir, tmp_path, column,
                                          cell):
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        path = run / "pooled_predictions.csv"
        lines = path.read_text().splitlines()
        row = lines[1].split(",")
        if column is None:
            del row[-1]
        else:
            row[column] = cell
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "rep"
        assert cli.main(["report", "--runs", str(run), "--out",
                         str(out)]) == 2
        assert not out.exists()

    def test_indivisible_swin_window_is_a_data_error(self, tmp_path):
        """A resolved swin config that ``train`` would have refused: the
        window (3, 3, 3) does not divide the (8, 8, 8) stage-1 grid."""
        model = asdict(replace(desk_config("swin3d"), window_size=(3, 3, 3)))
        path = tmp_path / "resolved_config.json"
        path.write_text(json.dumps({"name": "swin3d", "seed": 1,
                                    "manifest": "m.csv", "model": model}))
        with pytest.raises(DataError, match="divisible by window"):
            cli._read_run_config(str(path))

    def test_keys_nothing_reads_are_ignored(self, workdir, tmp_path,
                                            capsys):
        """A run written while configs still held analysis settings and a
        target analyzes with the flag defaults and reports as before."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        path = run / "resolved_config.json"
        cfg = json.loads(path.read_text())
        cfg.update(analysis={"erf_inputs": 1, "threshold": 0.5},
                   target="pkc")
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert self._analyze_erf(workdir, tmp_path, run) == 0
        assert "over 2 inputs" in capsys.readouterr().out
        assert cli.main(["report", "--runs", str(run), "--out",
                         str(tmp_path / "rep")]) == 0

    def test_model_key_modelconfig_lacks_exits_two(self, workdir, tmp_path):
        """The resolved model block goes through the same check train
        runs: a key ModelConfig does not have is a data error."""
        run = tmp_path / "run"
        shutil.copytree(workdir / "runs" / "cnn3d", run)
        path = run / "resolved_config.json"
        cfg = json.loads(path.read_text())
        cfg["model"]["in_channels"] = 1
        path.write_text(json.dumps(cfg))
        assert self._analyze_erf(workdir, tmp_path, run) == 2
        assert cli.main(["report", "--runs", str(run), "--out",
                         str(tmp_path / "rep")]) == 2


class TestHelpGolden:
    def test_no_command_exits_one(self):
        assert cli.main([]) == 1

    def test_schemas_documented_in_help(self):
        text = cli.build_parser().format_help()
        assert "model,dim,params,mse,mae,r2,pearson,brier,auroc" in text
        assert ("model,dim,bin,sensitivity,specificity,count,"
                "balanced_accuracy") in text
        assert "model,dim,stage1,stage2,stage3,stage4,et_ratio" in text
        assert "model,dim,bin,mean,sd,median,pct_gt20,max" in text
        assert "patient_id,eye_id,p_kc,pred,fold" in text
        assert "epoch,train_mse,val_mse,lr" in text
        assert "patient_id,eye_id,volume_path,p_kc,age,sex" in text

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "exp.json", "--fold", "0"],
        ["report", "--runs", "runs", "--format", "json"],
    ], ids=["train_fold", "report_format"])
    def test_deleted_flags_exit_one(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_exit_codes_documented(self):
        text = cli.build_parser().format_help()
        assert "0 success, 1 usage error, 2 data error, 3 numeric" in text


class TestStartup:
    def test_import_loads_no_scipy_stats(self):
        """scipy.stats would add about half a second to every command's
        start-up; the CLI needs only scipy.ndimage and scipy.special."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = "import sys, volab.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"


class TestReadme:
    def test_config_example_loads(self, tmp_path):
        """The README's experiment config is valid as written."""
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")) as fh:
            section = fh.read().split("## Experiment config", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "exp.json"
        path.write_text(block)
        cfg = cli.load_experiment(str(path))
        assert set(json.loads(block)) == set(
            cli.ExperimentConfig.__dataclass_fields__)
        cli.model_from_block(cfg.model)
        cli.train_config_from_block(cfg.train, 0)
