"""Report rendering: 17-digit floats, CSV flattening, shipped schema."""

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermisep.reporting import flatten_report, format_float, load_report_schema, render_csv, render_json


def test_floats_render_with_seventeen_significant_digits():
    assert render_json(1 / 3) == "0.33333333333333331"
    assert render_json(0.1) == "0.10000000000000001"


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_rendering_round_trips_exactly(x):
    assert float(render_json(x)) == x


def test_non_finite_values_are_rejected():
    with pytest.raises(ValueError):
        format_float(math.nan)
    with pytest.raises(ValueError):
        render_json({"x": math.inf})


def test_nested_document_rendering():
    doc = {"a": 1, "b": [1.5, 2.5], "c": {"flag": True, "none": None}, "t": [0, 2], "s": "x\"y"}
    text = render_json(doc)
    assert json.loads(text) == doc
    assert "[0, 2]" in text  # integer tuples stay on one line


def test_document_layout_is_pinned_byte_for_byte():
    doc = {
        "empty_dict": {},
        "empty_list": [],
        "orbitals": (0, 2, 5),
        "spectrum": [0.1, 1.5],
        "separable": True,
        "note": None,
        "input": "\u03c8 \"pair\".json",
        "nested": {"inner": {"mixed": [1.0, {"flag": False}]}},
    }
    assert render_json(doc) == """{
  "empty_dict": {},
  "empty_list": [],
  "orbitals": [0, 2, 5],
  "spectrum": [
    0.10000000000000001,
    1.5
  ],
  "separable": true,
  "note": null,
  "input": "\\u03c8 \\"pair\\".json",
  "nested": {
    "inner": {
      "mixed": [
        1,
        {
          "flag": false
        }
      ]
    }
  }
}"""


@pytest.mark.parametrize("doc", [{1: 0.5}, {"x": [0.5, {2: True}]}, object(), {"x": [0.5, object()]}])
def test_non_string_keys_and_unsupported_leaves_are_rejected(doc):
    with pytest.raises(TypeError):
        render_json(doc)


def test_csv_flattening():
    record = {
        "input": "f.json",
        "d": 4,
        "n": 2,
        "purity": 0.25,
        "verdicts": {"purity": False, "separable": False},
        "spectrum": [0.25, 0.25],
        "timings": {"total_ms": 1.5},
    }
    row = flatten_report(record)
    assert list(row) == [
        "input", "d", "n", "purity",
        "verdict_purity", "verdict_separable",
        "spectrum_00", "spectrum_01", "total_ms",
    ]
    text = render_csv(list(row), [row])
    assert text.count("\n") == 2
    cells = text.splitlines()[1].split(",")
    assert cells[0] == "f.json"
    assert cells[4] == "false"


def test_csv_cells_render_scalars():
    row = {"flag": True, "count": 3, "value": 0.1, "input": "a b.json"}
    assert render_csv(list(row), [row]) == "flag,count,value,input\ntrue,3,0.10000000000000001,a b.json\n"


def test_schema_ships_with_package():
    schema = load_report_schema()
    assert schema["type"] == "object"
    assert "purity" in schema["properties"]
    assert set(schema["properties"]["verdicts"]["required"]) == {
        "purity", "entropy", "idempotency", "separable",
    }
