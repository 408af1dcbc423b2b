"""Golden digest of the lattice layer's outputs.

Every public lattice function is run on seeded integer and rational bases
of rank 2-4 (some in a larger ambient space), and k = 3 reductions are
run at small budgets.  The reprs of the results, which show both values
and types (an int and a Fraction print differently), are hashed.  The
digest pins the tie-breaks at every quotient level, the lift choices and
the reduction's op counts, which the property tests leave free.
"""

import hashlib
import random
from fractions import Fraction

import helpers as H
from latvol.errors import BudgetExceededError
from latvol.fundomain import reduce_to_F
from latvol.lattice import (
    LatticeBasis,
    greedy_basis,
    lattice_coefficients,
    minbasis_sq,
    minimal_lift,
    quotient,
    short_coefficient_vectors,
    shortest_vector,
)

GOLDEN_SHA256 = "0a342d3500309122f7616e36305466b70c497b2a3f0917794e565a11313db8a8"
GOLDEN_LINES = 1249


def _bases(rng):
    for trial in range(75):
        k = 2 + trial % 3
        ambient = k + (trial % 4 == 3)
        rows = [[rng.randint(-6, 6) for _ in range(ambient)] for _ in range(k)]
        if trial % 2:
            rows = [[Fraction(x, rng.choice((1, 2, 3, 4, 7))) for x in r] for r in rows]
        if H.det([[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]) == 0:
            continue
        yield LatticeBasis(rows)


def _lattice_lines(L):
    v, nv = shortest_vector(L)
    yield repr((v, nv))
    Q = quotient(L, v)
    yield repr((Q.vectors, Q.gram, Q.covol_sq))
    for wbar in Q.vectors:
        yield repr(minimal_lift(L, v, wbar))
    g = greedy_basis(L)
    yield repr(tuple(g))
    for w in g.vectors:
        yield repr(lattice_coefficients(L, w))
        half = tuple(x / 2 for x in w)
        yield repr(lattice_coefficients(L, half))
    yield repr(lattice_coefficients(L, tuple(Fraction(1, 5) for _ in range(L.ambient))))
    yield repr(short_coefficient_vectors(L, max(L.gram[i][i] for i in range(L.rank))))
    yield repr(short_coefficient_vectors(Q, max(Q.gram[i][i] for i in range(Q.rank))))
    if L.rank <= 3:
        yield repr(minbasis_sq(L))


def _reduction_lines(rng):
    for _ in range(30):
        A = H.rand_rows(rng, 3)
        if H.det(A) < 0:
            A = [[-x for x in A[0]]] + A[1:]
        for budget in (10, 100, 1000):
            try:
                yield repr(reduce_to_F(A, k3_budget=budget))
            except BudgetExceededError as e:
                yield f"budget {budget}: {e}"


def _lines():
    rng = random.Random(2004)
    for L in _bases(rng):
        yield repr(L)
        yield from _lattice_lines(L)
    yield from _reduction_lines(rng)


def test_lattice_outputs_match_golden_digest():
    lines = list(_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == GOLDEN_LINES
    assert digest == GOLDEN_SHA256
