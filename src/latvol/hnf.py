"""Hermite normal form: canonical forms, enumeration, and fast counting.

A finite-index sublattice of Z^k is the column span of exactly one
integer matrix in column Hermite normal form (upper triangular, positive
diagonal, off-diagonal entries reduced modulo the row's diagonal).  The
counting recursion over first diagonal entries is memoized on the
distinct values of floor(T/n), which makes the threshold counts usable
at T = 10^5 and beyond.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt

from .errors import BudgetExceededError, PreconditionError
from .linalg import ext_gcd, identity_int, power_sum
from .lattice import LatticeBasis, shortest_vector


@dataclass(frozen=True)
class HnfMatrix:
    """Integer matrix in column Hermite normal form."""

    k: int
    entries: tuple

    def __post_init__(self):
        e = self.entries
        if len(e) != self.k or any(len(row) != self.k for row in e):
            raise PreconditionError("entries must form a k x k matrix")
        for i in range(self.k):
            if e[i][i] <= 0:
                raise PreconditionError("HNF diagonal entries must be positive")
            for j in range(self.k):
                if j < i and e[i][j] != 0:
                    raise PreconditionError("HNF must be upper triangular")
                if j > i and not (0 <= e[i][j] < e[i][i]):
                    raise PreconditionError(
                        "HNF off-diagonal entries must lie in [0, diagonal)"
                    )

    @property
    def det(self):
        d = 1
        for i in range(self.k):
            d *= self.entries[i][i]
        return d

    def column_lattice(self):
        """The sublattice of Z^k spanned by the columns, as a LatticeBasis."""
        cols = tuple(
            tuple(self.entries[i][j] for i in range(self.k)) for j in range(self.k)
        )
        return LatticeBasis(cols)


def hnf_of(matrix):
    """Column Hermite normal form of a nonsingular integer matrix.

    Returns (H, S) where S is unimodular (det +-1) and matrix . S has
    the entries of H.  Column operations preserve the column span, so H
    is the canonical representative of the input's column lattice.
    """
    a = [list(map(int, row)) for row in matrix]
    k = len(a)
    if any(len(row) != k for row in a):
        raise PreconditionError("matrix must be square")
    S = identity_int(k)

    def colop(c0, c1, u, v, w, z):
        # (col_c0, col_c1) <- (u col_c0 + v col_c1, w col_c0 + z col_c1)
        for row in (*a, *S):
            x, y = row[c0], row[c1]
            row[c0] = u * x + v * y
            row[c1] = w * x + z * y

    for i in range(k - 1, -1, -1):
        for j in range(i):
            if a[i][j] == 0:
                continue
            g, u, v = ext_gcd(a[i][i], a[i][j])
            colop(i, j, u, v, -(a[i][j] // g), a[i][i] // g)
        if a[i][i] == 0:
            raise PreconditionError("matrix is singular")
        if a[i][i] < 0:
            for row in (*a, *S):
                row[i] = -row[i]
    for j in range(k):
        for i in range(j - 1, -1, -1):
            q = a[i][j] // a[i][i]
            if q:
                for row in (*a, *S):
                    row[j] -= q * row[i]
    H = HnfMatrix(k, tuple(tuple(row) for row in a))
    return H, tuple(tuple(row) for row in S)


def _diagonals(k, budget):
    """Diagonal tuples with product <= budget, in lexicographic order."""
    if k == 0:
        yield ()
        return
    for n in range(1, budget + 1):
        for rest in _diagonals(k - 1, budget // n):
            yield (n,) + rest


def enumerate_hnf(k, max_det):
    """Yield every HNF matrix with det <= max_det exactly once.

    Order is lexicographic in (diagonal, row-major off-diagonals), so
    the stream is stable for golden tests.  Consumers can treat this as
    a visitor feed; nothing is materialized.
    """
    if k < 1 or max_det < 1:
        raise PreconditionError("need k >= 1 and max_det >= 1")
    positions = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for diag in _diagonals(k, max_det):
        ranges = [range(diag[i]) for i, _ in positions]
        for offs in product(*ranges):
            rows = [[0] * k for _ in range(k)]
            for i in range(k):
                rows[i][i] = diag[i]
            for (i, j), v in zip(positions, offs):
                rows[i][j] = v
            yield HnfMatrix(k, tuple(tuple(r) for r in rows))


def _count_exact(k, T, memo):
    # count_k(T) = sum_{n <= T} n^{k-1} count_{k-1}(floor(T/n)), big ints
    if k == 1:
        return T
    key = (k, T)
    val = memo.get(key)
    if val is not None:
        return val
    total = 0
    d = 1
    while d <= T:
        q = T // d
        dmax = T // q
        total += (power_sum(k - 1, dmax) - power_sum(k - 1, d - 1)) * _count_exact(
            k - 1, q, memo
        )
        d = dmax + 1
    memo[key] = total
    return total


def _int64_safe(k, T):
    # the numba path caps every partial sum by T^k (easy bound) and its
    # Faulhaber intermediates by 8 T^k, so this guard rules out wrap
    return k <= 4 and 8 * T**k < 2**63


def count_sublattices(k, T):
    """Number of sublattices of Z^k with index at most T, exact.

    Uses the int64 kernel when kernels.backend() resolves to numba and the
    easy bound count <= T^k proves the arithmetic cannot overflow; otherwise
    falls back to arbitrary-precision integers, so overflow is excluded
    structurally rather than detected after the fact.
    """
    if k < 1:
        raise PreconditionError("rank must be >= 1")
    if T < 1:
        raise PreconditionError("threshold must be >= 1")
    # imported at call time: perfbench/tracer.py wraps each kernels function
    # that another module holds as a kernel whose first argument is a size,
    # and backend() takes no argument
    from .kernels import backend, count_dp

    if backend() == "numba" and _int64_safe(k, T):
        return int(count_dp(k, T))
    return _count_exact(k, T, {})


def count_exact_reference(k, T):
    """Arbitrary-precision reference path for count_sublattices."""
    if k < 1 or T < 1:
        raise PreconditionError("need k >= 1 and T >= 1")
    return _count_exact(k, T, {})


def count_by_index(k, n):
    """Number of sublattices of Z^k of index exactly n.

    This is the n-th Dirichlet coefficient of zeta(s-k+1)...zeta(s):
    c_k(n) = sum_{d | n} d^{k-1} c_{k-1}(n/d), multiplicative in n.
    """
    if k < 1 or n < 1:
        raise PreconditionError("need k >= 1 and n >= 1")
    divisors = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    divisors = sorted(set(divisors + [n // d for d in divisors]))

    def rec(kk, m):
        if kk == 1:
            return 1
        total = 0
        for d in divisors:
            if m % d == 0:
                total += d ** (kk - 1) * rec(kk - 1, m // d)
        return total

    return rec(k, n)


_SHORT_BUDGET = {2: 40_000, 3: 1_000}


def count_with_short_vector(k, T, S):
    """Count sublattices of Z^k with index <= T^k and min <= T/S, exact.

    Enumerates HNF representatives and tests the shortest vector of each
    column lattice; k is limited to 2 or 3 and T^k to a small budget.
    T and S may be ints, Fractions, or strings like "5/2"; floats are
    rejected so the threshold comparison stays exact.
    """
    if k not in (2, 3):
        raise PreconditionError("enumeration regime is k = 2 or 3")
    if isinstance(T, float) or isinstance(S, float):
        raise PreconditionError("pass T and S as ints or rationals, not floats")
    T = Fraction(T)
    S = Fraction(S)
    if T <= 0 or S < 1:
        raise PreconditionError("need T > 0 and S >= 1")
    det_cap = T**k
    D = det_cap.numerator // det_cap.denominator
    if D > _SHORT_BUDGET[k]:
        raise BudgetExceededError(
            f"T^k = {D} exceeds the enumeration budget {_SHORT_BUDGET[k]}"
        )
    if D < 1:
        return 0
    min_cap = (T / S) ** 2
    count = 0
    for H in enumerate_hnf(k, D):
        _, norm = shortest_vector(H.column_lattice())
        if norm <= min_cap:
            count += 1
    return count
