"""Exact rational and integer linear algebra helpers.

Everything here is exact: Fraction arithmetic for rational matrices and
Bareiss elimination for integer determinants and the fraction-free
L D L^T that the lattice enumerations run on.  No floats enter any
comparison.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

from .errors import InvariantError, PreconditionError


def frac_vector(v):
    return tuple(Fraction(x) for x in v)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def gram_matrix(vectors):
    k = len(vectors)
    return tuple(
        tuple(dot(vectors[i], vectors[j]) for j in range(k)) for i in range(k)
    )


def identity_int(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(m)) for j in range(p))
        for i in range(n)
    )


def det_fraction(m):
    """Determinant of a square matrix by exact fraction elimination."""
    k = len(m)
    a = [list(map(Fraction, row)) for row in m]
    det = Fraction(1)
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, k):
            if a[r][col]:
                f = a[r][col] * inv
                for c in range(col, k):
                    a[r][c] -= f * a[col][c]
    return det


def det_int(m):
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    k = len(m)
    if any(len(row) != k for row in m):
        raise PreconditionError("determinant needs a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for col in range(k - 1):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                a[r][c] = (a[r][c] * a[col][col] - a[r][col] * a[col][c]) // prev
            a[r][col] = 0
        prev = a[col][col]
    return sign * a[k - 1][k - 1]


def solve_fraction(m, rhs):
    """Solve m x = rhs exactly; returns None when m is singular."""
    k = len(m)
    a = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(m)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][k] for i in range(k))


def inverse_fraction(m):
    """Exact inverse; returns None when m is singular."""
    k = len(m)
    a = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(m)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[k:]) for row in a)


def ldl_fraction_free(m):
    """Fraction-free L D L^T of a symmetric integer matrix (Bareiss).

    Returns (deltas, U): deltas[i] is the leading principal minor of
    order i (deltas[0] = 1) and U is upper triangular with
    U[i][j] = L[j][i] * deltas[i + 1], so U[i][i] = deltas[i + 1] and
    x^T m x = sum_i (U x)_i^2 / (deltas[i] * deltas[i + 1]).  Every entry
    is an integer.  Raises ValueError when m is not positive definite,
    which doubles as the rank check for lattice Gram matrices.
    """
    k = len(m)
    a = [list(row) for row in m]
    deltas = [1]
    rows = []
    for p in range(k):
        piv = a[p][p]
        if piv <= 0:
            raise ValueError("matrix is not positive definite")
        rows.append((0,) * p + tuple(a[p][p:]))
        prev = deltas[-1]
        deltas.append(piv)
        for r in range(p + 1, k):
            for c in range(p + 1, k):
                q, rem = divmod(a[r][c] * piv - a[r][p] * a[p][c], prev)
                if rem:
                    raise InvariantError("Bareiss step left the integers")
                a[r][c] = q
    return tuple(deltas), tuple(rows)


def floor_sqrt_frac(x):
    """floor(sqrt(x)) for a nonnegative Fraction, exact."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    return isqrt(x.numerator * x.denominator) // x.denominator


def ext_gcd(a, b):
    """Extended gcd: returns (g, x, y) with a x + b y = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@lru_cache(maxsize=None)
def bernoulli(n):
    """Bernoulli number B_n with the B_1 = -1/2 convention."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _faulhaber_coeffs(e):
    # S_e(n) = 1/(e+1) * sum_j C(e+1, j) B^+_j n^{e+1-j}, B^+_1 = +1/2
    coeffs = []
    for j in range(e + 1):
        b = bernoulli(j)
        if j == 1:
            b = -b
        coeffs.append(Fraction(comb(e + 1, j), e + 1) * b)
    return tuple(coeffs)


def power_sum(e, n):
    """Exact sum of i^e for i = 1..n (n >= 0)."""
    if n <= 0:
        return 0
    if e == 0:
        return n
    acc = Fraction(0)
    npow = n ** (e + 1)
    for j, c in enumerate(_faulhaber_coeffs(e)):
        acc += c * npow
        npow //= n
    assert acc.denominator == 1
    return acc.numerator


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return g
