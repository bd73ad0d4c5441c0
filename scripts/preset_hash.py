#!/usr/bin/env python3
"""Print one bit-level fingerprint per model geometry: `name sha256[:16]`.

The geometries are the eight desk presets plus two padded ones: a swin
whose input and merged grid both need a pad token, and a vit whose input
needs a pad row. Each hash covers, in order:

- the freshly built state (parameters and buffers);
- a seeded training forward: the prediction, every stage tap with its
  centroids, every attention map with its centroids;
- every parameter gradient of the batch's summed squared error, and
  the input gradient the ERF probe reads;
- the state after one AdamW step;
- a frozen eval forward, hashed like the training one.

Two source trees that print the same lines compute the same bits for
every model family. It takes no options:

    PYTHONPATH=src python3 scripts/preset_hash.py
"""

import hashlib

import numpy as np

from volab.models import ModelConfig, build_model, desk_config
from volab.tensor import Tensor, backward
from volab.training import AdamW, _sse

DESK_PRESETS = ("cnn2d", "cnn3d", "vit2d", "vit3d", "swin2d", "swin3d",
                "hybrid_lstm", "hybrid_transformer")
PADDED = {
    # grid (4, 4, 3) after a padded patch row; the merge pads the odd axis
    "swin3d_padded": ModelConfig(
        family="swin", input_dims=3, input_shape=(30, 32, 24),
        patch_size=(8, 8, 8), window_size=(4, 4, 4), stage_depths=(1, 1),
        embed_dim=12, n_heads=2, pad_policy="pad"),
    "vit2d_padded": ModelConfig(
        family="vit", input_dims=2, input_shape=(30, 32), patch_size=(8, 8),
        embed_dim=32, n_heads=2, pad_policy="pad"),
}


def _feed(h, label, arr):
    h.update(label.encode())
    if arr is None:
        h.update(b"none")
        return
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def _feed_state(h, model):
    for name, arr in sorted(model.state_arrays().items()):
        _feed(h, name, arr)


def _feed_forward(h, result):
    _feed(h, "pred", result.pred.data)
    for tap in result.stages:
        _feed(h, tap.name, tap.data.data)
        _feed(h, tap.name + ".centroids", tap.centroids)
    for rec in result.attention:
        _feed(h, rec.layer, rec.attn)
        _feed(h, rec.layer + ".centroids", rec.centroids)


def model_hash(cfg):
    model = build_model(cfg, seed=0)
    data = np.random.default_rng(1)
    x = data.normal(size=(2, 1) + cfg.input_shape).astype(np.float32)
    x_grad = Tensor(x, requires_grad=True)
    y = Tensor(np.array([0.25, 0.75], np.float32))
    h = hashlib.sha256()
    _feed_state(h, model)
    result = model.forward(x_grad, training=True,
                           rng=np.random.default_rng(2))
    _feed_forward(h, result)
    backward(_sse(result.pred, y))
    for name, p in model.named_parameters():
        _feed(h, name + ".grad", p.grad)
    _feed(h, "input.grad", x_grad.grad)
    AdamW(model.named_parameters(), weight_decay=0.05).step(1e-3)
    _feed_state(h, model)
    with model.frozen():
        _feed_forward(h, model.forward(Tensor(x)))
    return h.hexdigest()[:16]


def main():
    configs = [(name, desk_config(name)) for name in DESK_PRESETS]
    for name, cfg in configs + list(PADDED.items()):
        print(name, model_hash(cfg), flush=True)


if __name__ == "__main__":
    main()
