"""Exact numpy kernels: the divisor-sum sieve and the disc count.

- sigma_cumsum(n): out[t] = sigma(1) + ... + sigma(t), an int64 array.
- disc_count(Q):   the number of integer points (i, j) with i^2 + j^2 <= Q.

numpy is imported inside each kernel, so importing latvol (and every CLI
subcommand, none of which builds an array) does not pay for it.  Both
kernels are exact in int64 under their caps: the sigma sums stay below
~0.83 n^2, and the disc rows stay below 2^53, where float64 square roots
are off by at most one and are corrected in integers.  Their working
arrays hold at most _CHUNK elements, so the sieve's peak is its output,
8 (n + 1) bytes, plus O(_CHUNK), and the disc count's is O(_CHUNK).
"""

from math import isqrt

from .errors import BudgetExceededError, PreconditionError

_SIGMA_BUDGET = 20_000_000
_DISC_BUDGET = 4 * 10**15
# elements per working array, shared by the sieve, the disc rows and
# dirichlet.product_error_scan
_CHUNK = 1 << 16


def sigma_cumsum(n):
    """Cumulative sums of the divisor function: out[t] = sum_{m<=t} sigma(m).

    Peak memory is the 8 (n + 1)-byte output plus one _CHUNK-element
    array.
    """
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if n > _SIGMA_BUDGET:
        raise BudgetExceededError(f"sigma sieve limited to n <= {_SIGMA_BUDGET}")
    import numpy as np

    r = isqrt(n)
    arr = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, r + 1):
        arr[d::d] += d
    # each divisor d > r of m = c d has cofactor c <= n // d; per chunk
    # of such d, one slice per cofactor adds all of them
    big = np.arange(r + 1, r + 1 + min(_CHUNK, n - r), dtype=np.int64)
    for lo in range(r + 1, n + 1, _CHUNK):
        for c in range(1, n // lo + 1):
            m = min(n // c - lo + 1, _CHUNK)
            arr[c * lo : c * (lo + m - 1) + 1 : c] += big[:m]
        big += _CHUNK
    return np.cumsum(arr, out=arr)


def disc_count(Q):
    """Number of integer points (i, j) with i^2 + j^2 <= Q.

    Peak memory is O(_CHUNK): the rows are taken _CHUNK at a time.
    """
    if Q > _DISC_BUDGET:
        raise BudgetExceededError(f"disc count limited to Q <= {_DISC_BUDGET}")
    if Q < 0:
        return 0
    import numpy as np

    M = isqrt(Q)
    # the axes hold 4M + 1 points; rows +-i, i = 1..M, hold s_i = isqrt(Q - i^2)
    # points off the axes in each of the four quadrants
    total = 4 * M + 1
    for lo in range(1, M + 1, _CHUNK):
        i = np.arange(lo, min(lo + _CHUNK, M + 1), dtype=np.int64)
        v = Q - i * i
        s = np.sqrt(v.astype(np.float64)).astype(np.int64)
        s[(s + 1) * (s + 1) <= v] += 1
        s[s * s > v] -= 1
        total += 4 * int(s.sum())
    return total
