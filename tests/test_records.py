"""Record semantics of latvol's three value classes.

Table and HnfMatrix are plain __slots__ classes, GreedyBasis is a
NamedTuple.  Each keeps the constructor, repr, equality and
(im)mutability of the dataclass it replaced.
"""

from fractions import Fraction

import pytest

from latvol.errors import PreconditionError
from latvol.hnf import HnfMatrix
from latvol.lattice import GreedyBasis
from latvol.report import Table


def test_table_record():
    t = Table("demo", ["a", 2], [[1, Fraction(1, 3)]], {"k": 2})
    assert t.columns == ("a", "2") and t.rows == [(1, Fraction(1, 3))]
    assert t == Table(
        schema="demo", columns=("a", "2"), rows=[(1, Fraction(1, 3))], params={"k": 2}
    )
    assert repr(t) == (
        "Table(schema='demo', columns=('a', '2'), "
        "rows=[(1, Fraction(1, 3))], params={'k': 2})"
    )
    assert t != Table("demo", ("a", "2"), [(1, Fraction(1, 3))], {"k": 3})
    assert t != ("demo", ("a", "2"), [(1, Fraction(1, 3))], {"k": 2})
    with pytest.raises(TypeError):
        hash(t)
    with pytest.raises(PreconditionError):
        Table("bad", ("a", "b"), [(1,)])
    with pytest.raises(TypeError):
        Table("demo", ("a",))


def test_table_default_params_are_fresh():
    a, b = Table("x", ("c",), []), Table("x", ("c",), [])
    assert a.params == {} and a.params is not b.params
    a.params["k"] = 2
    assert b.params == {}
    a.schema = "y"  # a Table stays mutable
    assert a.schema == "y"


def test_hnf_matrix_record():
    h = HnfMatrix(2, ((2, 1), (0, 3)))
    same = HnfMatrix(k=2, entries=((2, 1), (0, 3)))
    assert h == same and h != HnfMatrix(2, ((2, 0), (0, 3)))
    assert h != (2, ((2, 1), (0, 3)))
    assert repr(h) == "HnfMatrix(k=2, entries=((2, 1), (0, 3)))"
    assert hash(h) == hash(same) and len({h, same}) == 1
    assert h.det == 6
    for attempt in (
        lambda: setattr(h, "k", 3),
        lambda: setattr(h, "extra", 1),
        lambda: delattr(h, "entries"),
    ):
        with pytest.raises(AttributeError):
            attempt()
    assert h == same
    for k, entries in (
        (3, ((1, 0), (0, 1))),  # not k x k
        (2, ((2, 2), (0, 3))),  # off-diagonal not reduced
        (2, ((0, 0), (0, 1))),  # zero diagonal
    ):
        with pytest.raises(PreconditionError):
            HnfMatrix(k, entries)


def test_greedy_basis_record():
    fields = (((1, 0), (0, 2)), (Fraction(1), Fraction(4)), ((1, 0), (0, 1)))
    g = GreedyBasis(*fields)
    assert g == GreedyBasis(vectors=fields[0], alphas_sq=fields[1], coeffs=fields[2])
    assert g.alphas_sq == (1, 4)
    assert repr(g) == (
        "GreedyBasis(vectors=((1, 0), (0, 2)), "
        "alphas_sq=(Fraction(1, 1), Fraction(4, 1)), coeffs=((1, 0), (0, 1)))"
    )
    assert hash(g) == hash(GreedyBasis(*fields))
    with pytest.raises(AttributeError):
        g.vectors = ()
    with pytest.raises(TypeError):
        GreedyBasis(fields[0], fields[1])
