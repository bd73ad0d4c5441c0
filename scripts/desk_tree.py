#!/usr/bin/env python3
"""Run a small desk tree over all eight presets and print one
`sha256 relative-path` line per file it wrote.

The tree, under OUT (which must not exist yet or be empty):

- data/: a phantom cohort of 24 volumes, seed 3;
- runs/<preset>/: each desk preset trained for 3 folds of 2 epochs at
  batch 4, accumulation 1;
- analysis/: `erf` on every preset's fold 0, `attn` on the vit, swin and
  hybrid_transformer presets, a fold-averaged `cka` over each preset's
  three folds with 16 inputs, and one cnn3d x swin3d `cka`;
- report/: `report --ci --bootstrap-n 200` over every run.

Two source trees that print the same lines wrote the same bytes, from
training through every instrument to the report tables. It takes no
options besides OUT:

    PYTHONPATH=src python3 scripts/desk_tree.py OUT
"""

import hashlib
import json
import os
import sys
from contextlib import redirect_stdout

from volab.cli import main as volab_main
from volab.models import desk_config

DESK_PRESETS = ("cnn2d", "cnn3d", "vit2d", "vit3d", "swin2d", "swin3d",
                "hybrid_lstm", "hybrid_transformer")
ATTENTION_FAMILIES = ("vit", "swin", "hybrid_transformer")
FOLDS = 3


def run(argv):
    with redirect_stdout(sys.stderr):
        code = volab_main(argv)
    if code != 0:
        sys.exit(f"volab {' '.join(argv)} exited {code}")


def build_tree(base):
    run(["phantom", "--n", "24", "--seed", "3",
         "--out", os.path.join(base, "data")])
    for i, preset in enumerate(DESK_PRESETS):
        cfg_path = os.path.join(base, f"exp_{preset}.json")
        with open(cfg_path, "w") as fh:
            json.dump({
                "seed": 10 + i,
                "out_dir": f"runs/{preset}",
                "dataset": {"manifest": "data/manifest.csv"},
                "model": {"preset": preset},
                "train": {"max_epochs": 2, "physical_batch": 4,
                          "accumulation_steps": 1},
                "n_folds": FOLDS,
            }, fh, indent=2)
        run(["train", "--config", cfg_path])

    def fold(preset, k):
        return os.path.join(base, "runs", preset, f"fold{k}.ckpt")

    analysis = os.path.join(base, "analysis")
    for preset in DESK_PRESETS:
        run(["analyze", "--checkpoint", fold(preset, 0), "--instrument",
             "erf", "--out", os.path.join(analysis, f"erf_{preset}")])
        if desk_config(preset).family in ATTENTION_FAMILIES:
            run(["analyze", "--checkpoint", fold(preset, 0), "--instrument",
                 "attn", "--out", os.path.join(analysis, f"attn_{preset}")])
        run(["analyze", "--checkpoint",
             *[fold(preset, k) for k in range(FOLDS)],
             "--instrument", "cka", "--cka-inputs", "16",
             "--out", os.path.join(analysis, f"cka_{preset}")])
    run(["analyze", "--checkpoint", fold("cnn3d", 0), fold("swin3d", 0),
         "--instrument", "cka", "--cka-inputs", "16",
         "--out", os.path.join(analysis, "cka_cnn3d_swin3d")])
    run(["report", "--runs", os.path.join(base, "runs"), "--ci",
         "--bootstrap-n", "200", "--out", os.path.join(base, "report")])


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    base = sys.argv[1]
    if os.path.exists(base) and os.listdir(base):
        sys.exit(f"{base} is not empty")
    build_tree(base)
    paths = sorted(os.path.relpath(os.path.join(root, name), base)
                   for root, _, names in os.walk(base) for name in names)
    for rel in paths:
        with open(os.path.join(base, rel), "rb") as fh:
            print(hashlib.sha256(fh.read()).hexdigest(), rel)


if __name__ == "__main__":
    main()
