"""Shared on-disk formats: plain CSV tables and a JSON-header binary block.

The block format is one UTF-8 JSON line describing named arrays (name,
dtype, shape, byte offset), a newline, then the raw little-endian array
bytes concatenated in declaration order.  It exists for fast reload of
large grids; the CSV writers remain the interchange format.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InvalidInputError

BLOCK_FORMAT = "chronotax-block-1"


def write_csv(path, header: str, columns) -> None:
    """Comma-separated table with the given header line, 15 significant digits."""
    data = np.column_stack(columns)
    np.savetxt(path, data, fmt="%.15g", delimiter=",", header=header, comments="")


def write_block(path, meta: dict, arrays: dict) -> None:
    """Write named arrays behind a single JSON header line."""
    entries = []
    offset = 0
    blobs = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        if a.dtype.byteorder == ">":
            a = a.astype(a.dtype.newbyteorder("<"))
        blob = a.tobytes()
        entries.append(
            {
                "name": name,
                "dtype": a.dtype.str,
                "shape": list(a.shape),
                "offset": offset,
            }
        )
        offset += len(blob)
        blobs.append(blob)
    header = dict(meta)
    header["format"] = BLOCK_FORMAT
    header["arrays"] = entries
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for blob in blobs:
            fh.write(blob)


def read_block(path) -> tuple[dict, dict]:
    """Read back a block file: (metadata, {name: array})."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"not a block file: {path}") from exc
    if header.get("format") != BLOCK_FORMAT:
        raise InvalidInputError(f"unsupported block format in {path}")
    arrays = {}
    for entry in header["arrays"]:
        dt = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(payload, dtype=dt, count=count, offset=start)
        arrays[entry["name"]] = arr.reshape(shape).copy()
    meta = {k: v for k, v in header.items() if k not in ("format", "arrays")}
    return meta, arrays
