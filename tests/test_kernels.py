import random

import pytest

import helpers as H
from latvol import kernels
from latvol.errors import BudgetExceededError


def test_sigma_cumsum_exact():
    # r^2 - 1, r^2 and r^2 + 1 put n just below, at and above the point
    # where the sieve's small-divisor range [1, isqrt(n)] grows
    roots = (1, 2, 3, 4, 5, 7, 10, 31, 100, 317)
    top = roots[-1] ** 2 + 1
    sig = H.sigma_table(top)
    want = [0] * (top + 1)
    for m in range(1, top + 1):
        want[m] = want[m - 1] + sig[m]
    sizes = {0, 1, 500} | {r * r + e for r in roots for e in (-1, 0, 1)}
    for n in sorted(sizes):
        assert list(kernels.sigma_cumsum(n)) == want[: n + 1], n


def test_disc_count_exact():
    rng = random.Random(41)
    small = [-5, -1, 0, 1, 2, 3, 4, 5, 24, 25, 26, 99, 100, 1000]
    small += [rng.randint(1, 10**4) for _ in range(10)]
    for q in small:
        assert kernels.disc_count(q) == H.disc_points(q), q
        assert H.disc_points(q) == H.disc_row_sum(q), q
    # isqrt(Q) just below, at and above one and two chunks of rows
    c = kernels._DISC_CHUNK
    for m in (c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1):
        for q in (m * m, m * m + m, (m + 1) ** 2 - 1):
            assert kernels.disc_count(q) == H.disc_row_sum(q), q


def test_sigma_budget():
    with pytest.raises(BudgetExceededError):
        kernels.sigma_cumsum(kernels._SIGMA_BUDGET + 1)


def test_disc_budget():
    with pytest.raises(BudgetExceededError):
        kernels.disc_count(int(kernels._DISC_BUDGET) + 1)
