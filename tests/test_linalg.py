import random
from fractions import Fraction

import pytest

import helpers as H
from latvol.errors import PreconditionError
from latvol.linalg import (
    bernoulli,
    det_fraction,
    det_int,
    ext_gcd,
    floor_sqrt_frac,
    inverse_fraction,
    ldl_fraction_free,
    power_sum,
    solve_fraction,
    vec_gcd,
)


def test_det_int_matches_cofactor_expansion():
    rng = random.Random(1)
    for _ in range(200):
        k = rng.choice((2, 3, 4))
        m = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
        assert det_int(m) == H.det(m)


def test_det_fraction_agrees_with_det_int():
    rng = random.Random(2)
    for _ in range(50):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        assert det_fraction(m) == Fraction(det_int(m))


def test_ext_gcd_bezout():
    rng = random.Random(3)
    for _ in range(500):
        a, b = rng.randint(-200, 200), rng.randint(-200, 200)
        g, u, v = ext_gcd(a, b)
        assert u * a + v * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_solve_and_inverse_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        m = H.rand_rows(rng, 3)
        rhs = [rng.randint(-9, 9) for _ in range(3)]
        x = solve_fraction(m, rhs)
        assert [sum(Fraction(m[i][j]) * x[j] for j in range(3)) for i in range(3)] == [
            Fraction(r) for r in rhs
        ]
        inv = inverse_fraction(m)
        prod = H.mat_mul(m, inv)
        assert prod == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def test_ldl_fraction_free_reconstructs_gram():
    rng = random.Random(5)
    for _ in range(30):
        b = H.rand_rows(rng, 3)
        gram = [[sum(b[i][t] * b[j][t] for t in range(3)) for j in range(3)] for i in range(3)]
        deltas, U = ldl_fraction_free(gram)
        assert deltas == (1,) + tuple(
            H.det([row[:i] for row in gram[:i]]) for i in range(1, 4)
        )
        # x^T G x = sum_i (U x)_i^2 / (D_i D_(i+1)), i.e. G = U^T diag(1 / D_i D_(i+1)) U
        re = [
            [
                sum(Fraction(U[t][i] * U[t][j], deltas[t] * deltas[t + 1]) for t in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert re == gram
        assert all(U[i][j] == 0 for i in range(3) for j in range(i))


def test_ldl_fraction_free_rejects_rank_deficient():
    with pytest.raises(ValueError):
        ldl_fraction_free([[1, 2], [2, 4]])


def test_floor_sqrt_frac_exact():
    cases = [
        (Fraction(0), 0),
        (Fraction(1), 1),
        (Fraction(99, 100), 0),
        (Fraction(100, 9), 3),
        (Fraction(10**12 + 1), 10**6),
    ]
    for x, want in cases:
        assert floor_sqrt_frac(x) == want
    rng = random.Random(6)
    for _ in range(300):
        x = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**3))
        f = floor_sqrt_frac(x)
        assert f * f <= x < (f + 1) * (f + 1)


def test_bernoulli_numbers():
    assert [bernoulli(n) for n in (0, 1, 2, 4, 6, 8, 10, 12)] == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 6),
        Fraction(-1, 30),
        Fraction(1, 42),
        Fraction(-1, 30),
        Fraction(5, 66),
        Fraction(-691, 2730),
    ]
    assert bernoulli(3) == 0 and bernoulli(7) == 0


def test_power_sum_matches_brute_force():
    for e in range(4):
        for n in (0, 1, 2, 10, 37):
            assert power_sum(e, n) == sum(i**e for i in range(1, n + 1))


def test_vec_gcd():
    assert vec_gcd((0, 0, 7)) == 7
    assert vec_gcd((-4, 6)) == 2
    assert vec_gcd((3, 5)) == 1


def test_det_int_rejects_non_square():
    with pytest.raises(PreconditionError):
        det_int([[1, 2, 3], [4, 5, 6]])
