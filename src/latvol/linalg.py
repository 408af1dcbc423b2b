"""Exact integer linear algebra and number-theory helpers.

Everything here is exact: closed-form (k = 2, 3) and Bareiss determinants
and the fraction-free L D L^T that the lattice layer runs on, integer
square and cube roots, and Fractions only for parsing and the
Bernoulli/Faulhaber sums.  No floats enter any comparison.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from operator import mul

from .errors import InvariantError, PreconditionError


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
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def det_int(m):
    """Exact determinant of an integer matrix: closed forms for k = 2 and
    k = 3, Bareiss elimination above."""
    k = len(m)
    if any(len(row) != k for row in m):
        raise PreconditionError("determinant needs a square matrix")
    if k == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
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


def icbrt(n):
    """floor(n^(1/3)) for an integer n >= 0, exact (Newton's method on ints)."""
    if n < 0:
        raise PreconditionError("cube root of a negative integer")
    if n == 0:
        return 0
    # start above the root: n < 2^bits <= x^3
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


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
