"""Deterministic table emission: CSV (RFC-4180 style) and JSON.

Formatting rules, applied identically in both formats: exact rationals
print as "a/b" (always with the slash, even for whole values), floats
with 15 significant digits, booleans as true/false.  Identical tables
serialize to identical bytes.
"""

import csv
import io
import json
from fractions import Fraction

from .errors import CELL_DIGITS, BudgetExceededError, PreconditionError

_CELL_BOUND = 10**CELL_DIGITS


class Table:
    """A named table: string column headers, rows of cells, and params.

    A plain record with field-wise repr and equality (a dataclass would
    import inspect and ast on every cold CLI run).  params defaults to a
    fresh empty dict.
    """

    __slots__ = ("schema", "columns", "rows", "params")

    def __init__(self, schema, columns, rows, params=None):
        self.schema = schema
        self.columns = tuple(str(c) for c in columns)
        self.rows = [tuple(r) for r in rows]
        self.params = {} if params is None else params
        for r in self.rows:
            if len(r) != len(self.columns):
                raise PreconditionError("row width does not match the header")

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(schema={self.schema!r}, "
            f"columns={self.columns!r}, rows={self.rows!r}, params={self.params!r})"
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.schema, self.columns, self.rows, self.params) == (
            other.schema,
            other.columns,
            other.rows,
            other.params,
        )

    __hash__ = None


def _digits(n):
    if not -_CELL_BOUND < n < _CELL_BOUND:
        raise BudgetExceededError(f"integer cell longer than {CELL_DIGITS} digits")
    return str(n)


def format_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return f"{_digits(v.numerator)}/{_digits(v.denominator)}"
    if isinstance(v, int):
        return _digits(v)
    if isinstance(v, float):
        return format(v, ".15g")
    if isinstance(v, str):
        return v
    raise PreconditionError(f"cannot format a {type(v).__name__} cell")


def to_csv(table):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(table.columns)
    for row in table.rows:
        w.writerow([format_cell(v) for v in row])
    return buf.getvalue()


def _json_value(v):
    cell = format_cell(v)
    if isinstance(v, Fraction):
        return f'"{cell}"'
    return json.dumps(cell) if isinstance(v, str) else cell


def to_json(table):
    params = ", ".join(
        f"{json.dumps(k)}: {_json_value(v)}" for k, v in sorted(table.params.items())
    )
    columns = ", ".join(json.dumps(c) for c in table.columns)
    rows = ", ".join(
        "[" + ", ".join(_json_value(v) for v in row) + "]" for row in table.rows
    )
    return (
        f'{{"schema": {json.dumps(table.schema)}, "params": {{{params}}}, '
        f'"columns": [{columns}], "rows": [{rows}]}}\n'
    )


def render(table, fmt):
    if fmt == "csv":
        return to_csv(table)
    if fmt == "json":
        return to_json(table)
    raise PreconditionError(f"unknown format {fmt!r}")

