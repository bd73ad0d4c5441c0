"""Artifact I/O: the three binary readers reject every damaged file with
DataError, and an interrupted write leaves the previous file intact."""

import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from volab import cli
from volab.analysis import read_activation_dump, write_activation_dump
from volab.labels import DataError
from volab.tensor import load_checkpoint, save_checkpoint
from volab.volume import Volume, read_volume, write_volume

_VALUES = np.linspace(-1.0, 1.0, 12)

# format -> (writer of one small valid file, reader)
FORMATS = {
    "volb": (lambda p: write_volume(p, Volume(
        _VALUES.reshape(2, 3, 2), (0.5, 1.0, 2.0))), read_volume),
    "vlck": (lambda p: save_checkpoint(p, {
        "w": _VALUES[:6].reshape(2, 3),
        "meta.epoch": np.asarray(3.0, np.float32)}), load_checkpoint),
    "admp": (lambda p: write_activation_dump(p, "m", {
        "stage1": _VALUES[:6].reshape(3, 2)}), read_activation_dump),
}


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    out = {}
    for name, (write, _) in FORMATS.items():
        path = root / f"valid.{name}"
        write(path)
        out[name] = (path.read_bytes(), root / f"damaged.{name}")
    return out


def _load(name, path, blob):
    path.write_bytes(blob)
    return FORMATS[name][1](path)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_truncation_raises_data_error(blobs, name):
    blob, path = blobs[name]
    _load(name, path, blob)
    for n in range(len(blob)):
        with pytest.raises(DataError):
            _load(name, path, blob[:n])


@pytest.mark.parametrize("name", sorted(FORMATS))
@given(mask=st.integers(1, 255))
@example(mask=0x80)
@example(mask=0xFF)
def test_every_byte_flip_loads_or_raises_data_error(blobs, name, mask):
    blob, path = blobs[name]
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= mask
        try:
            _load(name, path, bytes(flipped))
        except DataError:
            pass


def test_empty_array_with_unaddressable_dims_raises_data_error(tmp_path):
    """Zero elements need no bytes, but numpy cannot shape them this way."""
    big = (2**32 - 1).to_bytes(4, "little")
    path = tmp_path / "empty.vlck"
    path.write_bytes(b"VLCK" + (1).to_bytes(4, "little")
                     + (1).to_bytes(4, "little") + b"w"
                     + (4).to_bytes(4, "little") + bytes(4) + big * 3)
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_failed_replace_keeps_old_file(tmp_path, monkeypatch):
    ckpt, table = tmp_path / "m.ckpt", tmp_path / "t.csv"
    save_checkpoint(ckpt, {"w": np.ones(3, np.float32)})
    cli.write_csv(table, ["a"], [[1.0]])
    before = {p: p.read_bytes() for p in (ckpt, table)}

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save_checkpoint(ckpt, {"w": np.zeros(5, np.float32)})
    with pytest.raises(OSError):
        cli.write_csv(table, ["a"], [[2.0], [3.0]])
    assert {p: p.read_bytes() for p in (ckpt, table)} == before
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "t.csv"]
