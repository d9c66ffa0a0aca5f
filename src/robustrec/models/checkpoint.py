"""The cache's one array format, shared by checkpoints, attack gradients and datasets.

A directory holds manifest.json, index.json (array name -> shape) and one raw
little-endian blob per array, whose suffix is its dtype: `<name>.f64` holds
float64 and `<name>.i64` int64. Arrays round-trip bit for bit.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DTYPES = {"f64": "<f8", "i64": "<i8"}  # blob suffix -> stored dtype


def save_checkpoint(path: str | Path, manifest: dict, params: dict[str, np.ndarray]) -> None:
    """Write an array directory; every array must be float64 or int64."""
    blobs = {}
    for name, arr in sorted(params.items()):
        arr = np.asarray(arr)
        suffix = {"f8": "f64", "i8": "i64"}.get(f"{arr.dtype.kind}{arr.dtype.itemsize}")
        if suffix is None:
            raise ValueError(f"array {name}: dtype {arr.dtype} is neither float64 nor int64")
        blobs[name] = suffix, arr
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    index = {name: list(arr.shape) for name, (_, arr) in blobs.items()}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    (root / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True))
    for name, (suffix, arr) in blobs.items():
        (root / f"{name}.{suffix}").write_bytes(np.asarray(arr, dtype=DTYPES[suffix]).tobytes())


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """(manifest, arrays) of an array directory; the arrays are fresh and
    writable. A manifest or index that is not a JSON object, a malformed index
    entry, or a blob missing, of another dtype or of the wrong size, raises
    ValueError."""
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    index = json.loads((root / "index.json").read_text())
    if not (isinstance(manifest, dict) and isinstance(index, dict)):
        raise ValueError(f"{path}: manifest.json and index.json must be JSON objects")
    files = {p.name for p in root.iterdir()}
    params: dict[str, np.ndarray] = {}
    for name, shape in index.items():
        found = [suffix for suffix in DTYPES if f"{name}.{suffix}" in files]
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
                and len(found) == 1):
            raise ValueError(f"{path}: array {name} needs a shape and one .f64 or .i64 "
                             f"blob, has shape {shape!r} and {len(found)} blobs")
        dtype, blob = DTYPES[found[0]], root / f"{name}.{found[0]}"
        size = blob.stat().st_size
        arr = np.empty(shape, dtype) if size == 8 * math.prod(shape) else None
        with open(blob, "rb") as fh:  # one read, straight into the array
            if arr is None or fh.readinto(arr) != size:
                raise ValueError(f"{path}: array {name} holds {size} bytes, "
                                 f"expected {math.prod(shape)} values")
        params[name] = arr.astype(dtype[1:], copy=False)  # copies only on a big-endian host
    return manifest, params
