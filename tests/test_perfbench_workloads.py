"""The benchmark workloads (perfbench/workloads.py) drive volab through
its command line and its experiment configs. Every argv they pass must
parse, and every config they write must load, so a deleted flag or config
field fails here rather than in a benchmark run."""

import importlib.util
import pathlib
import sys

import pytest

from volab import cli

WORKLOADS_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_argv_parses(tmp_path, name):
    w = workloads.WORKLOADS[name]
    layout = workloads.Layout(str(tmp_path))
    argvs = [workloads.phantom_argv(w, layout, seed=1)]
    argvs += [op.argv for op in workloads.phase_ops(w, layout)]
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(list(argv))
        assert args.func is not None, argv


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_experiment_loads(tmp_path, name):
    w = workloads.WORKLOADS[name]
    layout = workloads.Layout(str(tmp_path))
    workloads.write_experiments(w, layout, seed=1)
    for preset in w.presets:
        cfg = cli.load_experiment(layout.config(preset))
        _, default_name = cli.model_from_block(cfg.model)
        assert default_name == preset
        cli.train_config_from_block(cfg.train,
                                    cli.derive_seed(cfg.seed, "init"))
