"""Hermite normal form: canonical forms, enumeration, and fast counting.

A finite-index sublattice of Z^k is the column span of exactly one
integer matrix in column Hermite normal form (upper triangular, positive
diagonal, off-diagonal entries reduced modulo the row's diagonal).  The
counting recursion over first diagonal entries is memoized on the
distinct values of floor(T/n), which makes the threshold counts usable
at T = 10^5 and beyond.
"""

from fractions import Fraction
from itertools import product
from math import isqrt

from .errors import K_CAP, BudgetExceededError, InvariantError, PreconditionError
from .linalg import ext_gcd, identity_int, power_sum
from .lattice import LatticeBasis, _shortest
from .padic import index_local_factors


class HnfMatrix:
    """Integer matrix in column Hermite normal form.

    An immutable, hashable record with field-wise repr and equality.
    """

    __slots__ = ("k", "entries")

    def __init__(self, k, entries):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "entries", entries)
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

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}(k={self.k!r}, entries={self.entries!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.k, self.entries) == (other.k, other.entries)

    def __hash__(self):
        return hash((self.k, self.entries))

    @property
    def det(self):
        d = 1
        for i in range(self.k):
            d *= self.entries[i][i]
        return d

    def column_lattice(self):
        """The sublattice of Z^k spanned by the columns, as a LatticeBasis."""
        return LatticeBasis._from_rows(tuple(zip(*self.entries)), 1)


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


# hyperbola blocks one count may run; count_sublattices(4, 10^5), the
# largest use in the tests and benchmarks, charges 57,520
_COUNT_BLOCK_BUDGET = 1_000_000


def _count_blocks(k, T):
    """count_sublattices' block charge, or a partial sum past the budget.

    Level k holds T, and every level from k - 1 down to 2 memoizes exactly
    the distinct values x of floor(T/n); each key charges 2 isqrt(x).
    """
    total = 2 * isqrt(T) if k > 1 else 0
    n = 1
    while k > 2 and n <= T and total <= _COUNT_BLOCK_BUDGET:
        x = T // n
        total += (k - 2) * 2 * isqrt(x)
        n = T // x + 1
    return total


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


def count_sublattices(k, T):
    """Number of sublattices of Z^k with index at most T, exact.

    The recursion runs on arbitrary-precision integers, so overflow is
    excluded structurally rather than detected after the fact.  Each
    memoized level is charged 2 isqrt(T) hyperbola blocks, a bound on the
    distinct values of floor(T/n); a count whose total charge passes
    _COUNT_BLOCK_BUDGET raises BudgetExceededError before the recursion.
    """
    if k < 1:
        raise PreconditionError("rank must be >= 1")
    if T < 1:
        raise PreconditionError("threshold must be >= 1")
    if _count_blocks(k, T) > _COUNT_BLOCK_BUDGET:
        raise BudgetExceededError(f"count capped at {_COUNT_BLOCK_BUDGET} blocks")
    return _count_exact(k, T, {})


def count_by_index(k, n):
    """Number of sublattices of Z^k of index exactly n.

    This is the n-th Dirichlet coefficient of zeta(s-k+1)...zeta(s),
    multiplicative in n with c_k(p^e) the Gaussian binomial
    [k-1+e, e]_p = prod_{i=1..e} (p^(k-1+i) - 1) / (p^i - 1).  n is
    factored by `padic.index_local_factors`, which refuses n > 10^12
    (BudgetExceededError), and k is capped at errors.K_CAP.
    """
    if k < 1 or n < 1:
        raise PreconditionError("need k >= 1 and n >= 1")
    if k > K_CAP:
        raise BudgetExceededError(f"count by index capped at k <= {K_CAP}")
    count = 1
    for p, pe in index_local_factors(n).items():
        num = den = pi = 1
        while pi < pe:  # pi = p^i for i = 1..e
            pi *= p
            num *= pi * p ** (k - 1) - 1
            den *= pi - 1
        if num % den:
            raise InvariantError("Gaussian binomial is not an integer")
        count *= num // den
    return count


# HNF matrices one short-vector count may enumerate, about 190x criterion
# 07's largest count_with_short_vector(2, 5, S), which enumerates
# count_sublattices(2, 25) = 522.  Each costs a shortest-vector search:
# count_with_short_vector(2, 18, 1) enumerates 86,618 in about 80 s.
_SHORT_BUDGET = 100_000


def count_with_short_vector(k, T, S):
    """Count sublattices of Z^k with index <= T^k and min <= T/S, exact.

    Enumerates HNF representatives and tests the shortest vector of each
    column lattice; k is limited to 2 or 3, and a count that would
    enumerate more than _SHORT_BUDGET matrices raises BudgetExceededError
    before the first one.
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
    if D < 1:
        return 0
    # there are at least D sublattices of index <= D, so D itself is a cheap
    # first test before the exact number is counted
    if D > _SHORT_BUDGET or count_sublattices(k, D) > _SHORT_BUDGET:
        raise BudgetExceededError(
            f"T^k = {D} needs more than {_SHORT_BUDGET} HNF matrices enumerated"
        )
    # the first minimum n of an integer lattice is at most (T/S)^2 = a/b
    # when n b <= a
    a, b = ((T / S) ** 2).as_integer_ratio()
    return sum(_shortest(H.column_lattice())[0] * b <= a for H in enumerate_hnf(k, D))
