"""JSON value codec for recorded channel samples.

Samples flowing through fpt-core channels carry heterogeneous payloads:
numpy vectors (sadc/hadoop_log), plain ints (knn state indices),
:class:`~repro.analysis.metrics.Alarm` objects, lists of
:class:`~repro.analysis.metrics.WindowDecision`, and stats dicts mixing
all of the above.  The flight recorder archives every one of them as
JSONL, and archive replay must reconstruct values faithfully enough that
re-running the same DAG reproduces the same alarms -- so the codec is a
bijection for every type the standard module library emits.

Tagged encodings use a ``"__kind__"`` discriminator; everything already
JSON-native passes through untouched.

Arrays have two encodings, one per reader:

* **decimal** -- ``{"__kind__": "ndarray", "dtype": ..., "data": [...]}``,
  the nested ``tolist()`` of the array.  Incident bundles use it: they
  are the evidence a person reads, greps and diffs.
* **bytes** -- ``{"__kind__": "ndarray", "dtype": <name>, "shape": [...],
  "b64": <base64>}`` over the array's little-endian C-order bytes
  (``encode_value(..., binary=True)``, :func:`array_row_json`).  The
  ``samples.jsonl`` archive uses it: only :class:`ReplayArchive.load
  <repro.flightrec.replay.ReplayArchive>` reads that file, a replay needs
  the bits rather than the decimals (NaN payloads and ``-0.0`` survive,
  which JSON decimals do not guarantee), and formatting 64 doubles as
  shortest-repr decimals was the most expensive thing the recorder did
  per ``sadc`` row.  Only plain numeric dtypes (kind ``f``/``i``/``u``/
  ``b``) take this form; object and string arrays keep the decimal one.

:func:`decode_value` reads both, whichever file it is handed.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from functools import lru_cache
from typing import Any, Optional, Tuple

import numpy as np

from ..analysis.metrics import Alarm, WindowDecision

__all__ = ["encode_value", "decode_value", "array_row_json"]

_KIND = "__kind__"


@lru_cache(maxsize=None)
def _little_endian(dtype: np.dtype) -> np.dtype:
    """``dtype`` if its bytes are little-endian already, else its twin.

    One object per dtype, cached: ``newbyteorder`` builds a new dtype on
    every call, and an array keeps its dtype alive -- a fresh one per
    decoded record cost 240 B a record in the replay loader.
    """
    little = dtype.newbyteorder("<")
    return dtype if little == dtype else little


@lru_cache(maxsize=None)
def _byte_plan(dtype: np.dtype) -> Optional[Tuple[str, np.dtype]]:
    """``(recorded name, dtype of the recorded bytes)``, or ``None``.

    ``None`` for dtypes that keep the decimal form.  Cached because
    ``dtype.name`` alone costs microseconds and the archive asks on
    every row.
    """
    if dtype.kind not in "fiub":
        return None
    return dtype.name, _little_endian(dtype)


def _array_fields(array: np.ndarray) -> Optional[Tuple[str, list, str]]:
    """``(dtype name, shape, base64)`` of a numeric array, else ``None``."""
    plan = _byte_plan(array.dtype)
    if plan is None:
        return None
    name, little = plan
    if little is not array.dtype:
        array = array.astype(little)
    return (
        name, list(array.shape),
        b2a_base64(array.tobytes(), newline=False).decode("ascii"),
    )


@lru_cache(maxsize=256)
def _row_plan(dtype: np.dtype, shape: tuple) -> Optional[Tuple[str, np.dtype]]:
    """``(everything before a row's base64, dtype of its bytes)``.

    A channel carries one dtype and shape for its lifetime, so the
    constant part of its rows is formatted once (bounded all the same:
    a channel of ragged arrays must not grow it for ever).
    """
    plan = _byte_plan(dtype)
    if plan is None:
        return None
    return (
        '{"__kind__": "ndarray", "dtype": "%s", "shape": %s, "b64": "'
        % (plan[0], list(shape)),
        plan[1],
    )


def array_row_json(array: np.ndarray) -> Optional[str]:
    """JSON text of ``array``'s bytes encoding, ``None`` if it has none.

    Character for character what ``json.dumps(encode_value(array,
    binary=True))`` gives; the archive writer calls this for a sample
    that *is* an array (most of them), skipping the dict and the encoder.
    """
    plan = _row_plan(array.dtype, array.shape)
    if plan is None:
        return None
    prefix, little = plan
    if little is not array.dtype:
        array = array.astype(little)
    return prefix + b2a_base64(array.tobytes(), newline=False).decode("ascii") + '"}'


def encode_value(value: Any, binary: bool = False) -> Any:
    """Convert ``value`` into a JSON-serializable structure.

    ``binary`` selects the bytes encoding for numeric arrays anywhere in
    ``value`` (the archive's form); the default is the decimal one.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        fields = _array_fields(value) if binary else None
        if fields is None:
            return {_KIND: "ndarray", "dtype": str(value.dtype),
                    "data": value.tolist()}
        return {_KIND: "ndarray", "dtype": fields[0], "shape": fields[1],
                "b64": fields[2]}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, Alarm):
        return {
            _KIND: "alarm",
            "time": value.time,
            "node": value.node,
            "source": value.source,
            "detail": value.detail,
            "via": list(value.via),
        }
    if isinstance(value, WindowDecision):
        return {
            _KIND: "decision",
            "node": value.node,
            "window_start": value.window_start,
            "window_end": value.window_end,
            "alarmed": value.alarmed,
        }
    if isinstance(value, tuple):
        return {_KIND: "tuple",
                "items": [encode_value(v, binary) for v in value]}
    if isinstance(value, list):
        return [encode_value(v, binary) for v in value]
    if isinstance(value, dict):
        return {_KIND: "dict",
                "items": [[str(k), encode_value(v, binary)]
                          for k, v in value.items()]}
    # Last resort for exotic module payloads: keep the repr so the
    # archive stays readable even if the value cannot be replayed.
    return {_KIND: "repr", "repr": repr(value)}


def decode_value(obj: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(obj, list):
        return [decode_value(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    kind = obj.get(_KIND)
    if kind == "ndarray":
        if "b64" not in obj:  # decimal form: a bundle or a /1 archive
            return np.asarray(obj["data"], dtype=np.dtype(obj["dtype"]))
        # An owning, writable array: replay hands it to modules as the
        # live collector would.  The shape is set in place -- a
        # ``reshape`` would leave every record holding a view *and* its
        # base.
        array = np.frombuffer(
            a2b_base64(obj["b64"]),
            dtype=_little_endian(np.dtype(obj["dtype"])),
        ).copy()
        array.shape = obj["shape"]
        return array
    if kind == "alarm":
        return Alarm(
            time=obj["time"], node=obj["node"], source=obj["source"],
            detail=obj["detail"], via=tuple(obj.get("via", ())),
        )
    if kind == "decision":
        return WindowDecision(
            node=obj["node"], window_start=obj["window_start"],
            window_end=obj["window_end"], alarmed=obj["alarmed"],
        )
    if kind == "tuple":
        return tuple(decode_value(v) for v in obj["items"])
    if kind == "dict":
        return {k: decode_value(v) for k, v in obj["items"]}
    if kind == "repr":
        return obj["repr"]
    # A plain dict written by an older archive (no tag): decode values.
    return {k: decode_value(v) for k, v in obj.items()}
