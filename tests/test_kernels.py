import random
from math import isqrt

import numpy as np
import pytest

import helpers as H
from latvol import kernels
from latvol.errors import BudgetExceededError


def _sigma_one_shot(n):
    """The sieve with one n-sized array of large divisors, as a reference."""
    r = isqrt(n)
    arr = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, r + 1):
        arr[d::d] += d
    big = np.arange(r + 1, n + 1, dtype=np.int64)
    for c in range(1, n // (r + 1) + 1):
        top = n // c
        arr[c * (r + 1) : c * top + 1 : c] += big[: top - r]
    return np.cumsum(arr)


def test_sigma_cumsum_exact():
    # r^2 - 1, r^2 and r^2 + 1 put n just below, at and above the point
    # where the sieve's small-divisor range [1, isqrt(n)] grows; the rest
    # put n, and n - isqrt(n), the count of large divisors the sieve takes
    # a chunk at a time, around one and two chunks
    roots = (1, 2, 3, 4, 5, 7, 10, 31, 100, 317)
    c = kernels._CHUNK
    sizes = {0, 1, 500} | {r * r + e for r in roots for e in (-1, 0, 1)}
    sizes |= {c - 1, c, c + 1, 2 * c - 1, 2 * c + 1}
    sizes |= {m + isqrt(m) + e for m in (c, 2 * c) for e in (-1, 0, 1)}
    want = np.cumsum(H.sigma_table(max(sizes)))
    for n in sorted(sizes):
        got = kernels.sigma_cumsum(n)
        assert np.array_equal(got, want[: n + 1]), n
        assert np.array_equal(got, _sigma_one_shot(n)), n


@pytest.mark.parametrize("chunk", (1, 2, 3, 7))
def test_sigma_cumsum_exact_with_tiny_chunks(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    top = 1000
    want = np.cumsum(H.sigma_table(top))
    for n in [*range(60), 99, 100, 101, 257, top]:
        assert np.array_equal(kernels.sigma_cumsum(n), want[: n + 1]), n


def test_sigma_cumsum_peak_is_output_plus_a_chunk():
    n = 10**6
    assert H.peak_bytes(lambda: kernels.sigma_cumsum(n)) <= 8 * (n + 1) + 2**20


def test_disc_count_exact():
    rng = random.Random(41)
    small = [-5, -1, 0, 1, 2, 3, 4, 5, 24, 25, 26, 99, 100, 1000]
    small += [rng.randint(1, 10**4) for _ in range(10)]
    for q in small:
        assert kernels.disc_count(q) == H.disc_points(q), q
        assert H.disc_points(q) == H.disc_row_sum(q), q
    # isqrt(Q) just below, at and above one and two chunks of rows
    c = kernels._CHUNK
    for m in (c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1):
        for q in (m * m, m * m + m, (m + 1) ** 2 - 1):
            assert kernels.disc_count(q) == H.disc_row_sum(q), q


def test_sigma_budget():
    with pytest.raises(BudgetExceededError):
        kernels.sigma_cumsum(kernels._SIGMA_BUDGET + 1)


def test_disc_budget():
    with pytest.raises(BudgetExceededError):
        kernels.disc_count(int(kernels._DISC_BUDGET) + 1)
