"""Stable text encodings for reports: JSON and CSV suitable for golden files.

Key order is insertion order, floats are rendered with 17 significant
digits (so values round-trip bit-exactly), and non-finite floats become the
strings "inf", "-inf", "nan" (plain JSON has no encoding for them).  The
same input therefore always produces byte-identical output.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring

__all__ = ["dumps_stable", "format_float", "pmf_to_csv", "rows_to_csv"]


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a float (round-trip exact)."""
    return format(float(x), ".17g")


def _float_json(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format_float(x)


def _encode(obj, pieces: list) -> None:
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(_float_json(obj))
    elif isinstance(obj, str):
        pieces.append(encode_basestring(obj))
    elif isinstance(obj, dict):
        pieces.append("{")
        for k, key in enumerate(obj):
            if k:
                pieces.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            _encode(key, pieces)
            pieces.append(": ")
            _encode(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, (list, tuple)):
        if obj and all(type(x) is float for x in obj):
            # a list of plain floats (a report's rates and pmfs) in one pass
            texts = [
                format(x, ".17g") if math.isfinite(x) else _float_json(x) for x in obj
            ]
            pieces.append("[" + ", ".join(texts) + "]")
        else:
            pieces.append("[")
            for k, item in enumerate(obj):
                if k:
                    pieces.append(", ")
                _encode(item, pieces)
            pieces.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dumps_stable(obj) -> str:
    """Deterministic JSON text: insertion-order keys, 17-digit floats."""
    pieces: list = []
    _encode(obj, pieces)
    return "".join(pieces)


def rows_to_csv(rows) -> str:
    """CSV text with columns ``k,prob`` for ``(k, p)`` rows."""
    return "k,prob\n" + "".join(f"{k},{format_float(p)}\n" for k, p in rows)


def pmf_to_csv(pmf) -> str:
    """CSV text with columns ``k,prob`` for a pmf given as P(0..kmax)."""
    return rows_to_csv(enumerate(pmf))
