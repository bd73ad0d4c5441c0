"""How artifacts reach the disk and come back. Every output is written to
a temporary file beside its target and renamed over it, so a killed process
leaves the old file or the new one, never a torn one (no fsync: power loss
is out of scope). The binary formats (VOLB, VLCK, ADMP) share one framing:
magic, little-endian fields, u32-length-prefixed UTF-8 strings, float32
C-order arrays, and nothing after the last field. The value checks every
config, spec and flag shares live here too: a bad value raises ConfigError,
and only the command line decides what exit code that becomes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import numbers
import os
import struct

import numpy as np


class DataError(ValueError):
    """A missing, malformed or truncated input file or record."""


class ConfigError(ValueError):
    """A degenerate value in a config, a flag or a spec dataclass."""


def is_count(value, low=1):
    """An integer (numpy's included, bool excluded) no smaller than low."""
    return isinstance(value, numbers.Integral) and \
        not isinstance(value, bool) and value >= low


def is_real(value):
    """A finite real number, bool excluded."""
    return isinstance(value, numbers.Real) and \
        not isinstance(value, bool) and math.isfinite(value)


def require(ok, name, value, domain):
    if not ok:
        raise ConfigError(f"{name} must be {domain}, got {value!r}")


def write_atomic(path, data):
    """Replace the file at ``path`` with the bytes ``data``. On failure the
    temporary file is removed and the target is left as it was."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_csv_rows(path, kind, header):
    """The rows after the first of a CSV file whose first row is header."""
    try:
        text = read_bytes(path, kind).decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except (UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"{kind} {path}: {err}") from err
    if rows[:1] != [header]:
        raise DataError(f"{path}: bad {kind} header "
                        f"{rows[0] if rows else None}")
    return rows[1:]


def write_csv(path, header, rows, lineterminator="\n"):
    """Floats are written with repr, so they round-trip exactly; numpy
    scalars are written as the Python numbers they hold."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator).writerows(
        [v.item() if isinstance(v, np.generic) else v for v in row]
        for row in [header, *rows])
    write_atomic(path, buf.getvalue().encode("utf-8"))


def write_npy(path, arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    write_atomic(path, buf.getvalue())


def read_bytes(path, kind):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise DataError(f"cannot read {kind} {path}: {err}") from err


def parse_json_object(blob, what):
    try:
        payload = json.loads(blob)
    except ValueError as err:
        raise DataError(f"{what} is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise DataError(f"{what} must hold a JSON object")
    return payload


def read_json_object(path, kind):
    return parse_json_object(read_bytes(path, kind), f"{kind} {path}")


class Packer:
    """Builds one framed binary file in memory; ``save`` writes it.
    ``fields`` takes little-endian struct codes such as ``"B3I"``."""

    def __init__(self, magic):
        self._chunks = [magic]

    def fields(self, fmt, *values):
        self._chunks.append(struct.pack("<" + fmt, *values))

    def string(self, text):
        raw = str(text).encode("utf-8")
        self._chunks += [struct.pack("<I", len(raw)), raw]

    def array(self, arr):
        self._chunks.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    def save(self, path):
        write_atomic(path, b"".join(self._chunks))


class Unpacker:
    """Bounds-checked reader of one framed binary file: a short file, bad
    magic, bad UTF-8 or trailing byte raises DataError."""

    def __init__(self, path, magic, kind):
        self.path, self.kind = path, kind
        self._blob = read_bytes(path, kind)
        self._off = len(magic)
        if self._blob[:self._off] != magic:
            raise DataError(f"{path}: bad {kind} magic "
                            f"{self._blob[:self._off]!r}")

    def _take(self, nbytes):
        if self._off + nbytes > len(self._blob):
            raise DataError(f"{self.path}: truncated {self.kind}")
        self._off += nbytes
        return self._off - nbytes

    def fields(self, fmt):
        start = self._take(struct.calcsize("<" + fmt))
        return struct.unpack_from("<" + fmt, self._blob, start)

    def string(self):
        start = self._take(self.fields("I")[0])
        try:
            return self._blob[start:self._off].decode("utf-8")
        except UnicodeDecodeError as err:
            raise DataError(f"{self.path}: bad string: {err}") from err

    def array(self, shape):
        """A float32 array of the given shape, copied out of the file."""
        count = math.prod(shape)
        flat = np.frombuffer(self._blob, dtype="<f4", count=count,
                             offset=self._take(4 * count))
        try:  # an empty array may still name dims numpy cannot address
            return flat.reshape(shape).copy()
        except ValueError as err:
            raise DataError(f"{self.path}: bad array shape {shape}") from err

    def finish(self):
        if self._off != len(self._blob):
            raise DataError(f"{self.path}: {len(self._blob) - self._off} "
                            f"trailing bytes")
