import itertools
import random
from fractions import Fraction

import pytest

import helpers as H
from latvol.errors import PreconditionError
from latvol.lattice import (
    LatticeBasis,
    complete_to_unimodular,
    covol_sq,
    dot,
    greedy_basis,
    lattice_coefficients,
    minbasis_sq,
    minimal_lift,
    quotient,
    short_coefficient_vectors,
    shortest_vector,
)


def rand_basis(rng, k, lo=-9, hi=9):
    return LatticeBasis(H.rand_rows(rng, k, lo, hi))


def test_basis_validation():
    with pytest.raises(PreconditionError):
        LatticeBasis([])
    with pytest.raises(PreconditionError):
        LatticeBasis([(1, 0), (0,)])
    with pytest.raises(PreconditionError):
        LatticeBasis([(1, 0), (2, 0)])
    with pytest.raises(PreconditionError):
        LatticeBasis([(1,), (2,), (3,)])  # more vectors than ambient dim
    # ambient dimension may exceed rank
    L = LatticeBasis([(1, 0, 0), (0, 1, 1)])
    assert L.rank == 2 and L.ambient == 3


def test_covol_sq_is_squared_determinant():
    rng = random.Random(11)
    for _ in range(100):
        rows = H.rand_rows(rng, 3)
        assert covol_sq(LatticeBasis(rows)) == H.det(rows) ** 2


def test_shortest_vector_pinned_cases():
    v, n = shortest_vector(LatticeBasis([(49, 0), (18, 1)]))
    assert (tuple(v), n) == ((5, 3), 34)
    v, n = shortest_vector(LatticeBasis([(1, 0), (0, 1)]))
    assert n == 1 and tuple(v) == (0, 1)  # lex-smallest minimizer
    v, n = shortest_vector(LatticeBasis([(2, 0), (1, 2)]))
    assert n == 4


def test_shortest_vector_brute_force_agreement():
    rng = random.Random(12)
    for _ in range(60):
        L = rand_basis(rng, 2, -6, 6)
        _, n = shortest_vector(L)
        brute = min(
            dot(w, w)
            for a in range(-12, 13)
            for b in range(-12, 13)
            if (a, b) != (0, 0)
            for w in [
                tuple(a * L.vectors[0][t] + b * L.vectors[1][t] for t in range(2))
            ]
        )
        # the coefficient box is wide enough at these sizes
        assert n == brute


def test_short_coefficient_vectors_complete():
    L = LatticeBasis([(2, 0), (1, 2)])
    got = {tuple(c): n for c, n in short_coefficient_vectors(L, 8)}
    want = {}
    for a in range(-4, 5):
        for b in range(-4, 5):
            if (a, b) == (0, 0):
                continue
            w = (2 * a + b, 2 * b)
            n = w[0] ** 2 + w[1] ** 2
            if n <= 8:
                want[(a, b)] = Fraction(n)
    assert got == want


def _box_enumeration(L, bound):
    """{coeffs: norm} over the box |c_i| <= sqrt(bound * (G^-1)_ii), which
    holds every coefficient vector of norm <= bound (Cauchy-Schwarz)."""
    k = L.rank
    G = [list(row) for row in L.gram]
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for col in range(k):  # Gauss-Jordan; G is positive definite
        p = G[col][col]
        G[col] = [x / p for x in G[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(k):
            if r != col:
                f = G[r][col]
                G[r] = [x - f * y for x, y in zip(G[r], G[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    box = []
    for i in range(k):
        r2 = bound * inv[i][i]
        r = 0
        while (r + 1) ** 2 <= r2:
            r += 1
        box.append(range(-r, r + 1))
    out = {}
    for c in itertools.product(*box):
        if any(c):
            n = sum(c[i] * L.gram[i][j] * c[j] for i in range(k) for j in range(k))
            if n <= bound:
                out[c] = n
    return out


def test_short_coefficient_vectors_match_box_enumeration():
    # integral Gram matrices (rank 2 and 3) and the rational ones of their
    # quotients by a shortest vector
    rng = random.Random(17)
    for trial in range(30):
        k = 2 + trial % 2
        L = rand_basis(rng, k, -5, 5)
        v, _ = shortest_vector(L)
        for M in (L, quotient(L, v)):
            top = max(M.gram[i][i] for i in range(M.rank))
            for bound in (top / 3, top * Fraction(3, 2)):
                got = short_coefficient_vectors(M, bound)
                assert all(type(n) is Fraction for _, n in got)
                assert len(got) == len({c for c, _ in got})
                assert {tuple(c): n for c, n in got} == _box_enumeration(M, bound)


def test_lattice_coefficients_and_membership():
    L = LatticeBasis([(5, 3), (-8, 5)])
    assert lattice_coefficients(L, (5, 3)) == (1, 0)
    assert lattice_coefficients(L, (-3, 8)) == (1, 1)
    assert lattice_coefficients(L, (1, 0)) is None


def test_quotient_multiplicativity_and_examples():
    L = LatticeBasis([(2, 0), (1, 2)])
    Q = quotient(L, (1, 2))
    assert covol_sq(Q) == Fraction(16, 5)
    with pytest.raises(PreconditionError):
        quotient(L, (2, 4))  # not primitive
    with pytest.raises(PreconditionError):
        quotient(LatticeBasis([(2, 0), (0, 3)]), (0, 1))  # not in L
    rng = random.Random(13)
    for _ in range(100):
        L = rand_basis(rng, 2)
        v, nv = shortest_vector(L)
        Q = quotient(L, v)
        assert covol_sq(Q) * nv == covol_sq(L)


def test_minimal_lift_examples_and_bound():
    Z2 = LatticeBasis([(1, 0), (0, 1)])
    assert minimal_lift(Z2, (0, 1), (Fraction(0), Fraction(0))) == (0, 0)
    w = minimal_lift(Z2, (0, 1), (Fraction(1), Fraction(0)))
    assert dot(w, w) == 1
    L = LatticeBasis([(2, 0), (1, 2)])
    Q = quotient(L, (1, 2))
    w = minimal_lift(L, (1, 2), Q.vectors[0])
    assert dot(w, w) <= Fraction(16, 5) + Fraction(5, 4)


def test_minimal_lift_rejects_vectors_outside_quotient():
    L = LatticeBasis([(2, 0), (1, 2)])
    with pytest.raises(PreconditionError):
        minimal_lift(L, (1, 2), (Fraction(1), Fraction(1)))


def test_greedy_basis_pinned_and_unimodular():
    g = greedy_basis(LatticeBasis([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert list(g.alphas_sq) == [1, 1, 1]
    g = greedy_basis(LatticeBasis([(5, 3), (-8, 5)]))
    assert list(g.alphas_sq) == [34, Fraction(2401, 34)]
    rng = random.Random(14)
    for _ in range(50):
        L = rand_basis(rng, 3)
        g = greedy_basis(L)
        coeffs = [lattice_coefficients(L, w) for w in g.vectors]
        assert all(c is not None for c in coeffs)
        assert abs(H.det([list(c) for c in coeffs])) == 1
        for i in range(1, L.rank):
            slack = sum(g.alphas_sq[:i], Fraction(0)) / 4
            assert dot(g.vectors[i], g.vectors[i]) <= g.alphas_sq[i] + slack


def test_minbasis_pinned_cases():
    assert minbasis_sq(LatticeBasis([(1, 0), (0, 1)])) == 2
    assert minbasis_sq(LatticeBasis([(49, 0), (18, 1)])) == 107
    L = LatticeBasis([(5, 3), (-8, 5)])
    assert minbasis_sq(LatticeBasis([(10, 6), (-16, 10)])) == 4 * minbasis_sq(L)
    with pytest.raises(PreconditionError):
        minbasis_sq(LatticeBasis([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]))


def test_minbasis_brute_force_rank2():
    # independent check: scan small unimodular coefficient matrices
    rng = random.Random(15)
    for _ in range(25):
        L = rand_basis(rng, 2, -4, 4)
        mb = minbasis_sq(L)
        best = None
        for a in range(-6, 7):
            for b in range(-6, 7):
                for c in range(-6, 7):
                    for d in range(-6, 7):
                        if a * d - b * c not in (1, -1):
                            continue
                        v1 = tuple(a * L.vectors[0][t] + b * L.vectors[1][t] for t in range(2))
                        v2 = tuple(c * L.vectors[0][t] + d * L.vectors[1][t] for t in range(2))
                        s = dot(v1, v1) + dot(v2, v2)
                        if best is None or s < best:
                            best = s
        assert mb == best


def test_complete_to_unimodular():
    rng = random.Random(16)
    for _ in range(200):
        k = rng.choice((2, 3))
        coeffs = [rng.randint(-9, 9) for _ in range(k)]
        from math import gcd
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if g != 1:
            continue
        m = complete_to_unimodular(tuple(coeffs))
        assert list(m[0]) == coeffs
        assert abs(H.det([list(r) for r in m])) == 1
