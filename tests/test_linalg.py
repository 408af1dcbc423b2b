import itertools
import math
import random
from fractions import Fraction

import pytest

import helpers as H
from latvol.errors import PreconditionError
from latvol.linalg import (
    bernoulli,
    det_int,
    ext_gcd,
    floor_sqrt_frac,
    icbrt,
    ldl_fraction_free,
    power_sum,
    vec_gcd,
)


def _leibniz(m):
    k = len(m)
    total = 0
    for p in itertools.permutations(range(k)):
        inversions = sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))
        total += (-1) ** inversions * math.prod(m[i][p[i]] for i in range(k))
    return total


def test_det_int_matches_cofactor_expansion():
    # k = 2 and 3 take closed forms, k = 1 and 4 Bareiss elimination
    rng = random.Random(1)
    seen = set()
    for _ in range(400):
        k = rng.choice((1, 2, 3, 4))
        e = rng.choice((9, 10**40))
        m = [[rng.randint(-e, e) for _ in range(k)] for _ in range(k)]
        d = det_int(m)
        assert d == H.det(m) == _leibniz(m), m
        assert det_int(tuple(map(tuple, m))) == d
        seen.add((k, d > 0))
        if k == 1:
            assert det_int([[0]]) == 0
            continue
        # a row swap negates it; a row combining two others makes it singular
        assert det_int([m[1], m[0]] + m[2:]) == -d
        a, b = rng.randint(-e, e), rng.randint(-e, e)
        singular = m[:-1] + [[a * x + b * y for x, y in zip(m[0], m[-2])]]
        assert det_int(singular) == 0 == _leibniz(singular)
    assert seen == {(k, s) for k in (1, 2, 3, 4) for s in (False, True)}


def test_icbrt_is_the_floor_cube_root():
    root = 0
    for n in range(10**4 + 1):
        if (root + 1) ** 3 <= n:
            root += 1
        assert icbrt(n) == root, n
    # up to det ~ 10^330, past a reduction input like diag(10^320, 1, 1)
    rng = random.Random(5)
    cs = [2, 3, 10**110, 2**365, 10**110 + 7] + [rng.randint(2, 10**110) for _ in range(200)]
    for c in cs:
        assert icbrt(c**3 - 1) == c - 1, c
        assert icbrt(c**3) == c, c
        assert icbrt(c**3 + 1) == c, c
    with pytest.raises(PreconditionError):
        icbrt(-1)


def test_ext_gcd_bezout():
    rng = random.Random(3)
    for _ in range(500):
        a, b = rng.randint(-200, 200), rng.randint(-200, 200)
        g, u, v = ext_gcd(a, b)
        assert u * a + v * b == g
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


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
    # count --k K runs power_sum(K - 1, .), so cover exponents beyond 3
    for e in range(8):
        for n in (0, 1, 2, 10, 37):
            assert power_sum(e, n) == sum(i**e for i in range(1, n + 1))
    n = 10**12 + 7
    assert power_sum(1, n) == n * (n + 1) // 2
    assert power_sum(2, n) == n * (n + 1) * (2 * n + 1) // 6
    assert power_sum(3, n) == (n * (n + 1) // 2) ** 2


def test_vec_gcd():
    assert vec_gcd((0, 0, 7)) == 7
    assert vec_gcd((-4, 6)) == 2
    assert vec_gcd((3, 5)) == 1


def test_det_int_rejects_non_square():
    with pytest.raises(PreconditionError):
        det_int([[1, 2, 3], [4, 5, 6]])
