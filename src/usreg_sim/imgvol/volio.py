"""The .vol volume file format: a JSON header plus a raw payload.

A ``name.vol`` file is a JSON header with fields shape, spacing, origin,
axes, dtype ("u8" or "f32") and data_file; the payload is a separate raw
little-endian binary in C order (axis 0 major), referenced relative to the
header's directory. The package writes masks (u8, bool ones included)
only; f32 stays readable because ``usreg-sim register`` accepts
float-typed masks.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .volume import Volume3

_DTYPES = {"u8": np.dtype("uint8"), "f32": np.dtype("<f4")}


def save_volume(vol: Volume3, path: str | Path) -> Path:
    """Write a volume as header + raw pair: float data as f32, bool and integer data in 0..255 as u8."""
    path = Path(path)
    data = vol.data
    if data.dtype == np.bool_ or np.issubdtype(data.dtype, np.integer):
        if data.size and not 0 <= data.min() <= data.max() <= 255:
            raise ValueError(f"{path}: integer data spans {data.min()}..{data.max()}, u8 holds 0..255")
        data = data.astype(np.uint8)
        dtype_tag = "u8"
    else:
        data = data.astype("<f4")
        dtype_tag = "f32"
    raw_name = path.stem + ".raw"
    header = {
        "shape": [int(n) for n in vol.shape],
        "spacing": [float(v) for v in vol.spacing],
        "origin": [float(v) for v in vol.origin],
        "axes": [[float(v) for v in row] for row in vol.axes],
        "dtype": dtype_tag,
        "data_file": raw_name,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(header, indent=1) + "\n")
    (path.parent / raw_name).write_bytes(np.ascontiguousarray(data).tobytes())
    return path


def _json_numbers(header: dict, key: str, depth: int) -> np.ndarray:
    """Field ``key`` as float64: a list of JSON numbers (``depth`` 1) or of such lists (2); a bool is not a number."""
    value = header[key]
    rows = value if depth == 2 and isinstance(value, list) else [value]
    if not all(isinstance(row, list) and all(type(v) in (int, float) for v in row) for row in rows):
        raise ValueError(f"{key} must be a list{' of lists' * (depth - 1)} of numbers, got {value!r}")
    return np.asarray(value, dtype=np.float64)


def load_volume(path: str | Path) -> Volume3:
    path = Path(path)
    try:
        # text that is not UTF-8 or not JSON is a ValueError; a file that
        # cannot be read is an OSError, which names the file itself
        header = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(header, dict):
            raise ValueError("not a JSON object")
        tag = header.get("dtype")
        if tag is not None and (not isinstance(tag, str) or tag not in _DTYPES):
            raise ValueError(f"unsupported dtype {tag!r}; accepted: {sorted(_DTYPES)}")
        dtype = _DTYPES[header["dtype"]]
        shape = header["shape"]
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):  # no bool
            raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
        geometry = [_json_numbers(header, key, depth) for key, depth in (("spacing", 1), ("origin", 1), ("axes", 2))]
        raw = (path.parent / header["data_file"]).read_bytes()
        expected = int(np.prod(shape)) * dtype.itemsize
        if len(raw) != expected:
            raise ValueError(f"payload is {len(raw)} bytes, expected {expected}")
        return Volume3(np.frombuffer(raw, dtype=dtype).reshape(shape), *geometry)
    except KeyError as exc:
        raise ValueError(f"malformed volume header {path}: missing {exc}") from exc
    except (TypeError, ValueError) as exc:  # a field of the wrong type or value
        raise ValueError(f"malformed volume header {path}: {exc}") from exc
