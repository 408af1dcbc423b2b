import json
from fractions import Fraction

import pytest

import helpers as H
from latvol.errors import PreconditionError
from latvol.report import Table, format_cell, render, to_csv, to_json


def sample_table():
    return Table(
        "demo",
        ("n", "ratio", "value", "flag"),
        [(1, Fraction(1, 3), 0.5, True), (2, Fraction(7, 1), 82.2467033424113, False)],
        params={"k": 2, "tag": "x"},
    )


def test_format_cell():
    assert format_cell(True) == "true" and format_cell(False) == "false"
    assert format_cell(42) == "42"
    assert format_cell(Fraction(1, 3)) == "1/3"
    assert format_cell(Fraction(7)) == "7/1"  # rationals always carry a slash
    assert format_cell(0.5) == "0.5"
    assert format_cell(82.2467033424113) == "82.2467033424113"
    assert format_cell(1e-17) == "1e-17"


def test_table_width_validation():
    with pytest.raises(PreconditionError):
        Table("bad", ("a", "b"), [(1,)])


def test_csv_round_trip():
    text = to_csv(sample_table())
    lines = text.split("\n")
    assert lines[0] == "n,ratio,value,flag"
    header, rows = H.parse_csv(text)
    assert header == ["n", "ratio", "value", "flag"]
    assert rows[0] == ["1", "1/3", "0.5", "true"]
    # exact rationals survive; floats reparse to all printed digits
    assert Fraction(rows[0][1]) == Fraction(1, 3)
    assert float(rows[1][2]) == 82.2467033424113


def test_empty_table_is_header_only():
    t = Table("empty", ("a", "b"), [])
    assert to_csv(t) == "a,b\n"


def test_json_document():
    doc = json.loads(to_json(sample_table()))
    assert doc["schema"] == "demo"
    assert doc["params"] == {"k": 2, "tag": "x"}
    assert doc["columns"] == ["n", "ratio", "value", "flag"]
    assert doc["rows"][0] == [1, "1/3", 0.5, True]
    assert doc["rows"][1][2] == 82.2467033424113


def test_json_byte_determinism():
    a = to_json(sample_table())
    b = to_json(sample_table())
    assert a == b
    assert a.endswith("\n")


def test_render_dispatch():
    t = sample_table()
    assert render(t, "csv") == to_csv(t)
    assert render(t, "json") == to_json(t)
    with pytest.raises(PreconditionError):
        render(t, "yaml")


def test_csv_quotes_cells_with_commas():
    t = Table("m", ("matrix", "ok"), [("1,0;0,1", True)])
    text = to_csv(t)
    assert '"1,0;0,1"' in text
    _, rows = H.parse_csv(text)
    assert rows[0][0] == "1,0;0,1"
