import random
from math import isqrt

import pytest

import helpers as H
from latvol import hnf
from latvol.errors import BudgetExceededError, PreconditionError
from latvol.hnf import (
    HnfMatrix,
    count_by_index,
    count_sublattices,
    count_with_short_vector,
    enumerate_hnf,
    hnf_of,
)


def test_hnf_matrix_validation():
    HnfMatrix(2, ((2, 1), (0, 3)))
    with pytest.raises(PreconditionError):
        HnfMatrix(2, ((2, 2), (0, 3)))  # off-diagonal not reduced
    with pytest.raises(PreconditionError):
        HnfMatrix(2, ((2, 0), (1, 3)))  # lower triangle
    with pytest.raises(PreconditionError):
        HnfMatrix(2, ((0, 0), (0, 1)))  # zero diagonal


def test_hnf_of_pinned_example():
    h, s = hnf_of([[5, -8], [3, 5]])
    assert [list(r) for r in h.entries] == [[49, 18], [0, 1]]
    assert H.mat_mul([[5, -8], [3, 5]], [list(r) for r in s]) == [[49, 18], [0, 1]]
    assert abs(H.det([list(r) for r in s])) == 1


def test_hnf_of_properties_random():
    rng = random.Random(21)
    for _ in range(150):
        k = rng.choice((2, 3))
        a = H.rand_rows(rng, k)
        h, s = hnf_of(a)
        rows = [list(r) for r in h.entries]
        assert H.mat_mul(a, [list(r) for r in s]) == rows
        assert abs(H.det([list(r) for r in s])) == 1
        assert h.det == abs(H.det(a))


def test_hnf_of_unimodular_invariance_and_idempotence():
    rng = random.Random(22)
    for _ in range(40):
        k = rng.choice((2, 3))
        a = H.rand_rows(rng, k)
        h1, _ = hnf_of(a)
        for _ in range(5):
            u = H.rand_unimodular(rng, k)
            h2, _ = hnf_of(H.mat_mul(a, u))
            assert h2.entries == h1.entries
        h3, _ = hnf_of([list(r) for r in h1.entries])
        assert h3.entries == h1.entries


def test_hnf_of_rejects_singular():
    with pytest.raises(PreconditionError):
        hnf_of([[1, 2], [2, 4]])


def test_enumerate_hnf_counts():
    sig = H.sigma_table(60)
    for n in range(1, 61):
        by_det = [h for h in enumerate_hnf(2, n) if h.det == n]
        assert len(by_det) == count_by_index(2, n) == sig[n]
    assert len(list(enumerate_hnf(2, 4))) == 1 + 3 + 4 + 7
    for p in (2, 3, 5, 7, 11, 13):
        assert count_by_index(2, p) == p + 1
        assert count_by_index(3, p) == p * p + p + 1


def test_count_by_index_matches_divisor_recursion():
    # the defining recursion c_k(n) = sum_{d | n} d^(k-1) c_(k-1)(n / d)
    ref = {(1, n): 1 for n in range(1, 400)}
    for k in range(2, 7):
        for n in range(1, 400):
            ref[k, n] = sum(
                d ** (k - 1) * ref[k - 1, n // d] for d in range(1, n + 1) if n % d == 0
            )
    for (k, n), want in ref.items():
        assert count_by_index(k, n) == want, (k, n)
    # c_12(2^39) is the Gaussian binomial [50, 39]_2 = [50, 11]_2
    num = den = 1
    for i in range(1, 12):
        num *= 2 ** (51 - i) - 1
        den *= 2**i - 1
    assert count_by_index(12, 2**39) == num // den
    with pytest.raises(BudgetExceededError):
        count_by_index(2, 10**30)  # factoring is capped at n <= 10^12
    with pytest.raises(BudgetExceededError):
        count_by_index(101, 2)
    with pytest.raises(PreconditionError):
        count_by_index(0, 2)


def test_enumerate_hnf_yields_distinct_valid_matrices():
    seen = set()
    for h in enumerate_hnf(3, 6):
        assert h.det <= 6
        seen.add(h.entries)
    assert len(seen) == sum(count_by_index(3, n) for n in range(1, 7))


def test_count_sublattices_pinned():
    assert count_sublattices(2, 10) == 87
    assert count_sublattices(3, 2) == 8
    assert count_sublattices(1, 7) == 7
    assert count_sublattices(2, 1) == 1


def test_count_sublattices_matches_exact_reference():
    # independent references: prefix sums of sigma for k = 2, and the
    # per-index counts c_k(n) from their divisor recursion for k = 3, 4
    sig = H.sigma_table(120)
    for t in (1, 7, 50, 120):
        assert count_sublattices(2, t) == sum(sig[1 : t + 1])
        for k in (3, 4):
            want = sum(count_by_index(k, n) for n in range(1, t + 1))
            assert count_sublattices(k, t) == want


def test_count_sublattices_matches_enumeration():
    sig = H.sigma_table(40)
    for t in range(1, 41):
        assert count_sublattices(2, t) == sum(sig[1 : t + 1])


def test_count_blocks_match_the_memo_keys():
    # the up-front charge is 2 isqrt(x) summed over the (level, x) keys
    # the recursion memoizes, levels k down to 2
    for k in (1, 2, 3, 4, 5):
        for t in (1, 2, 3, 10, 99, 1000):
            memo = {}
            hnf._count_exact(k, t, memo)
            assert hnf._count_blocks(k, t) == sum(2 * isqrt(x) for _, x in memo), (k, t)


def test_count_sublattices_preconditions():
    with pytest.raises(PreconditionError):
        count_sublattices(0, 5)
    with pytest.raises(PreconditionError):
        count_sublattices(2, 0)


def test_count_with_short_vector_pinned():
    assert count_with_short_vector(2, 1, 1) == 1
    assert count_with_short_vector(2, 2, 2) == 7
    assert count_with_short_vector(2, 3, 3) <= 16 * 3**2


def test_count_with_short_vector_brute_force():
    # direct re-enumeration: index <= T^2 and min <= T/S
    from latvol.lattice import LatticeBasis, shortest_vector
    from fractions import Fraction

    for T in (2, 3):
        for S in (1, 2):
            want = 0
            for h in enumerate_hnf(2, T * T):
                rows = [list(r) for r in h.entries]
                cols = H.transpose(rows)
                _, n = shortest_vector(LatticeBasis(cols))
                if n <= Fraction(T, S) ** 2:
                    want += 1
            assert count_with_short_vector(2, T, S) == want


def test_count_with_short_vector_budget():
    import time

    with pytest.raises(BudgetExceededError):
        count_with_short_vector(2, 10**6, 1)
    # within the old T^k caps of 40,000 and 1,000, but about 1.3 * 10^9 and
    # 6.6 * 10^8 HNF matrices: refused before the first one is built
    for k, T in ((2, 200), (3, 10)):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            count_with_short_vector(k, T, 1)
        assert time.perf_counter() - start < 1, (k, T)
