"""The benchmark tracer (perfbench/tracer.py) patches volab from the
outside, by attribute name. These tests install it over real calls so a
change to the model surface that would leave a span unrecorded, or an
attribute unrestored, fails here rather than in a benchmark run."""

import importlib.util
import pathlib

import numpy as np
import pytest

import volab.training
from volab.models import build_model, desk_config
from volab.tensor import Tensor, backward, tsum

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("preset", ["cnn3d", "swin3d"])
def test_model_spans_recorded_and_attributes_restored(tracer, tmp_path,
                                                      preset):
    cfg = desk_config(preset)
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 1) + cfg.input_shape).astype(np.float32)
    samples = [volab.training.Sample("P0", "OD", x[0], 0.2),
               volab.training.Sample("P1", "OD", x[1], 0.7)]
    opt = volab.training.AdamW(model.named_parameters())
    tr = tracer.Tracer().install()
    patched = tr.patched()
    try:
        res = model.forward(Tensor(x), training=True, rng=rng)
        backward(tsum(res.pred))
        opt.step(1e-3)
        volab.training.predict(model, samples, batch=2)
        model.save(tmp_path / "m.ckpt")
        model.load(tmp_path / "m.ckpt")
    finally:
        tr.uninstall()
    table = tr.rec.span_table()
    for name in ("models.forward_train", "models.forward_eval",
                 "models.save", "models.load", "training.predict"):
        assert table.get(name, (0,))[0] >= 1, name
    assert table["models.forward_train"][0] == 1
    if preset == "cnn3d":  # the tracer binds these two by parameter name
        assert table["tensor.conv3d"][0] >= 1
        assert table["tensor.pool3d"][0] >= 1
        assert tr.rec.counts["tensor.conv3d.flops"] > 0
    assert len(tr.rec.step_ms) == 1
    assert patched and tr.patched() == []
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
