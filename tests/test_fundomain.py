import random
from fractions import Fraction

import pytest

import helpers as H
from latvol.errors import BudgetExceededError, PreconditionError
from latvol.fundomain import (
    compare_distance,
    in_cone_F,
    reduce_to_F,
    size_sq,
)


def frob_key(m):
    k = len(m)
    return (
        sum(m[i][j] ** 2 for i in range(k) for j in range(k)),
        sum(m[i][i] for i in range(k)),
    )


def exact_distance_sq(m, d, root):
    # valid only when root**k == d exactly
    a, b = frob_key(m)
    k = len(m)
    return Fraction(a, root**2) - Fraction(2 * b, root) + k


def test_compare_distance_warning_example():
    A = [[5, -8], [3, 5]]
    S = [[5, 2], [-3, -1]]  # carries A to its Hermite form
    assert H.mat_mul(A, S) == [[49, 18], [0, 1]]
    assert H.det(S) == 1
    I = [[1, 0], [0, 1]]
    # det 49 is a perfect square, so both distances are exact rationals
    assert exact_distance_sq(A, 49, 7) == Fraction(81, 49)
    assert exact_distance_sq([[49, 18], [0, 1]], 49, 7) == Fraction(2124, 49)
    assert compare_distance(A, I, S) == -1
    assert compare_distance(A, S, I) == 1
    assert compare_distance(A, S, S) == 0


def test_compare_distance_tie():
    I = [[1, 0], [0, 1]]
    g1 = [[1, 1], [0, 1]]
    g2 = [[1, 0], [1, 1]]
    # equal sum of squares and equal trace: exactly tied
    assert compare_distance(I, g1, g2) == 0


def test_compare_distance_agrees_with_high_precision_floats():
    import mpmath

    rng = random.Random(31)
    mpmath.mp.dps = 60
    for _ in range(60):
        A = H.rand_rows(rng, 2, -5, 5)
        if H.det(A) < 0:
            A[0], A[1] = A[1], A[0]
        d = H.det(A)
        def special(g):
            return [[r[1], r[0]] for r in g] if H.det(g) == -1 else g

        g1 = special(H.rand_unimodular(rng, 2))
        g2 = special(H.rand_unimodular(rng, 2))
        x = mpmath.power(d, Fraction(1, 2))
        vals = []
        for g in (g1, g2):
            m = H.mat_mul(A, g)
            a, b = frob_key(m)
            vals.append(a / x**2 - 2 * b / x + 2)
        want = 0 if mpmath.almosteq(vals[0], vals[1], rel_eps=mpmath.mpf("1e-40")) else (
            1 if vals[0] > vals[1] else -1
        )
        assert compare_distance(A, g1, g2) == want


def test_compare_distance_preconditions():
    with pytest.raises(PreconditionError):
        compare_distance([[1, 2], [2, 4]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        compare_distance([[-1, 0], [0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        # det gamma must be exactly 1
        compare_distance([[1, 0], [0, 1]], [[1, 0], [0, -1]], [[1, 0], [0, 1]])


def test_reduce_warning_matrix():
    res = reduce_to_F([[5, -8], [3, 5]])
    assert [list(r) for r in res.rep] == [[5, -3], [3, 8]]
    assert [list(r) for r in res.gamma] == [[1, 1], [0, 1]]
    assert exact_distance_sq([[5, -3], [3, 8]], 49, 7) == Fraction(23, 49)


def test_reduce_k1_and_identity():
    res = reduce_to_F([[5]])
    assert [list(r) for r in res.rep] == [[5]] and [list(r) for r in res.gamma] == [[1]]
    res = reduce_to_F([[1, 0], [0, 1]])
    assert [list(r) for r in res.rep] == [[1, 0], [0, 1]]


def test_reduce_k2_matches_certified_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        A = H.rand_rows(rng, 2, -6, 6)
        if H.det(A) < 0:
            A[0][0], A[0][1] = A[0][1], A[0][0]
            A[1][0], A[1][1] = A[1][1], A[1][0]
        rep, _ = H.orbit_minimum(A)
        res = reduce_to_F(A)
        assert rep == [list(r) for r in res.rep]
        got = H.mat_mul(A, [list(r) for r in res.gamma])
        assert got == [list(r) for r in res.rep]
        assert H.det([list(r) for r in res.gamma]) == 1


K3_CASES = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
    [[1, 0, 1], [0, 1, 1], [0, 0, 2]],
    [[1, 0, 0], [0, 1, 2], [0, 0, 3]],
    [[2, 0, 1], [0, 1, 0], [0, 0, 2]],
    [[1, 1, 0], [0, 2, 1], [0, 0, 2]],
    [[0, -1, 0], [1, 0, 0], [0, 0, 3]],
    [[1, 0, 0], [0, 2, 0], [0, 0, 2]],
]


def test_reduce_k3_matches_certified_enumeration():
    for A in K3_CASES:
        rep, _ = H.orbit_minimum(A)
        res = reduce_to_F(A, k3_budget=300000)
        assert rep == [list(r) for r in res.rep], A
        got = H.mat_mul(A, [list(r) for r in res.gamma])
        assert got == [list(r) for r in res.rep]
        assert H.det([list(r) for r in res.gamma]) == 1


def test_reduce_k3_diagonal_fixed_points():
    for n in range(1, 9):
        A = [[1, 0, 0], [0, 1, 0], [0, 0, n]]
        res = reduce_to_F(A, k3_budget=300000)
        assert [list(r) for r in res.rep] == A


def test_reduce_preconditions_and_budget():
    with pytest.raises(PreconditionError):
        reduce_to_F([[1, 2], [2, 4]])
    with pytest.raises(PreconditionError):
        reduce_to_F([[-1, 0], [0, 1]])
    with pytest.raises(PreconditionError):
        reduce_to_F([[1, 0, 0], [0, 1, 0], [0, 0, 2]])  # budget must be explicit
    with pytest.raises(PreconditionError):
        reduce_to_F([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    with pytest.raises(PreconditionError):
        reduce_to_F([[1, 0, 0], [0, 1, 0], [0, 0, 2]], k3_budget=-5)
    with pytest.raises(BudgetExceededError):
        reduce_to_F([[1, 0, 0], [0, 1, 0], [0, 0, 2]], k3_budget=1)


def test_in_cone_membership():
    assert in_cone_F([[1, 0], [0, 1]])
    assert in_cone_F([[5, -3], [3, 8]])
    assert not in_cone_F([[49, 18], [0, 1]])
    assert in_cone_F([[1, 0, 0], [0, 1, 0], [0, 0, 2]], k3_budget=300000)


def test_size_sq_pinned():
    assert size_sq([[49, 18], [0, 1]]) == 107
    assert size_sq([[1, 0], [0, 1]]) == 2
    with pytest.raises(PreconditionError):
        size_sq([[1, 0, 0], [0, 1, 0], [0, 0, 2]])  # k=3 needs a budget
    assert size_sq([[1, 0, 0], [0, 1, 0], [0, 0, 2]], k3_budget=300000) == 6


def test_size_dominates_minbasis():
    from latvol.lattice import LatticeBasis, minbasis_sq

    rng = random.Random(33)
    for _ in range(50):
        rows = H.rand_rows(rng, 2, -7, 7)
        if H.det(rows) < 0:
            rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
            rows[1][0], rows[1][1] = rows[1][1], rows[1][0]
        cols = H.transpose(rows)
        assert minbasis_sq(LatticeBasis(cols)) <= size_sq(rows)
