"""Stable JSON/CSV encodings: round-trip exactness and determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockmotif import dumps_stable, format_float, pmf_to_csv


def test_floats_keep_seventeen_significant_digits():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(1.0) == "1"
    assert float(format_float(math.pi)) == math.pi
    assert dumps_stable([0.0, -0.0, 5e-324]) == "[0, -0, 4.9406564584124654e-324]"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


def test_dumps_stable_is_valid_json_with_insertion_order():
    payload = {
        "b": [1, 2.5, None, True],
        "a": {"nested": "line\nbreak", "tab\t": "cr\r nul\x00"},
    }
    text = dumps_stable(payload)
    assert text.index('"b"') < text.index('"a"')
    assert json.loads(text) == {
        "b": [1, 2.5, None, True],
        "a": {"nested": "line\nbreak", "tab\t": "cr\r nul\x00"},
    }
    # quotes, backslashes and newlines are escaped; other text is kept as is
    assert dumps_stable('say "é"\\\n') == '"say \\"é\\"\\\\\\n"'


def test_dumps_stable_encodes_nonfinite_floats_as_strings():
    assert dumps_stable({"x": math.inf}) == '{"x": "inf"}'
    assert dumps_stable({"x": -math.inf}) == '{"x": "-inf"}'
    assert dumps_stable({"x": math.nan}) == '{"x": "nan"}'


def test_dumps_stable_rejects_unencodable_values():
    with pytest.raises(TypeError):
        dumps_stable({"x": {1: "non-string key"}})
    with pytest.raises(TypeError):
        dumps_stable({"x": object()})


def test_dumps_stable_tuples_encode_as_arrays():
    assert dumps_stable((1, (2, 3))) == "[1, [2, 3]]"


def _per_item_json(obj) -> str:
    """The report encoding, one item at a time, written out independently."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj:
            return '"nan"'
        if obj in (math.inf, -math.inf):
            return '"inf"' if obj > 0 else '"-inf"'
        return "%.17g" % obj
    if isinstance(obj, str):
        return '"' + obj + '"'
    if isinstance(obj, dict):
        items = (f"{_per_item_json(k)}: {_per_item_json(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    return "[" + ", ".join(map(_per_item_json, obj)) + "]"


EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1]


@pytest.mark.parametrize(
    "obj",
    [
        EDGE_FLOATS,
        tuple(EDGE_FLOATS),
        [np.float64(x) for x in EDGE_FLOATS],
        [1, 0.5, True, -0.0, None, math.nan, 2],
        [],
        (),
        [[0.1, -0.0], [], [[math.inf], [3]], (1e308, 5e-324)],
        {"lambda": [0.0] * 5 + [0.25], "pmf": [[0, 0.75], [1, 0.25]]},
    ],
)
def test_float_lists_encode_as_item_by_item(obj):
    assert dumps_stable(obj) == _per_item_json(obj)


@given(st.lists(st.floats()))
def test_any_float_list_encodes_as_item_by_item(xs):
    assert dumps_stable(xs) == _per_item_json(xs)
    assert dumps_stable({"xs": tuple(xs)}) == _per_item_json({"xs": xs})


def test_pmf_to_csv_layout():
    csv = pmf_to_csv([0.5, 0.25, 0.25])
    lines = csv.splitlines()
    assert lines[0] == "k,prob"
    assert lines[1] == "0,0.5"
    assert len(lines) == 4
    assert csv.endswith("\n")
    assert [float(l.split(",")[1]) for l in lines[1:]] == [0.5, 0.25, 0.25]
