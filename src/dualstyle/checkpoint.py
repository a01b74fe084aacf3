"""Flat binary checkpoint container: versioned JSON header + raw arrays.

Layout: magic line, one JSON header line listing metadata and parameter
entries (name, shape, dtype), then the arrays' row-major bytes concatenated
in header order.  Writing is byte-deterministic for identical inputs and
round-trips float64 losslessly.  A write goes through ``write_atomic``, so a
crash mid-write leaves the previous checkpoint whole.  Loading reads each
array straight into its own ``np.empty`` buffer, so a load holds each payload
once, and rejects a payload whose length differs from what the header lists.

``save_model`` and ``load_model`` are the one path for a model's weights:
the file stores the model's ``params`` with its vocabulary's hash, and a
load refuses a file built for another vocabulary or holding other
parameter names or shapes than the model it builds.  The loaders build
their models from ``np.empty`` parameters for ``load_model`` to fill, so
loading draws no random initialisation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

MAGIC = b"DUALSTYLE-CKPT\n"
VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        entries.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
        })
        blobs.append(arr.tobytes())
    header = {
        "version": VERSION,
        "meta": meta,
        "params": entries,
    }
    header_line = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    write_atomic(path, [MAGIC, header_line.encode("utf-8"), *blobs])


def write_atomic(path, chunks) -> None:
    """Write byte ``chunks`` to ``path`` all or nothing.

    They go to a temporary file in the same directory, which is flushed to
    disk and then renamed over ``path``, so a crash mid-write leaves the
    previous file whole.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path} is not a dualstyle checkpoint")
        header = json.loads(fh.readline().decode("utf-8"))
        if header["version"] != VERSION:
            raise ValueError(f"unsupported checkpoint version {header['version']}")
        arrays = {}
        for entry in header["params"]:
            arr = np.empty(entry["shape"], dtype=np.dtype(entry["dtype"]))
            got = fh.readinto(arr.reshape(-1).view(np.uint8))
            if got != arr.nbytes:
                raise ValueError(f"{path} is truncated: {entry['name']!r} has "
                                 f"{got} of {arr.nbytes} bytes")
            arrays[entry["name"]] = arr
        extra = len(fh.read())
        if extra:
            raise ValueError(f"{path} has {extra} bytes past the arrays its header lists")
    return arrays, header["meta"]


def save_model(path, model, meta: dict) -> None:
    """Write ``model.params`` with ``meta`` and the hash of ``model.vocab``."""
    save_checkpoint(path, {k: p.value for k, p in model.params.items()},
                    {**meta, "vocab_hash": model.vocab.content_hash()})


def load_model(path, vocab, build):
    """The model ``build(meta)`` makes, holding the weights saved at ``path``.

    Raises ``ValueError`` naming ``path``, before any weight changes, if the
    file was saved for another vocabulary or its arrays differ in name or
    shape from the built model's parameters.
    """
    arrays, meta = load_checkpoint(path)
    if meta.get("vocab_hash") != vocab.content_hash():
        raise ValueError(f"{path} was built with a different vocabulary")
    model = build(meta)
    if ({k: a.shape for k, a in arrays.items()}
            != {k: p.value.shape for k, p in model.params.items()}):
        raise ValueError(f"{path} does not hold this model's parameters")
    for k, p in model.params.items():
        p.value = arrays[k]
    return model
