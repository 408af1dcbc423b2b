"""Shared test utilities, independent of the library internals.

Everything here is written from the defining formulas so that library
results can be checked against a second implementation, except
run_python, which starts a fresh interpreter for import checks, and
parse_csv, which reads the CLI's CSV output back.
"""

import csv
import io
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt

import latvol


def run_python(*args):
    """Run a fresh interpreter on args, with latvol's source directory on
    PYTHONPATH; returns the CompletedProcess with text output."""
    src = os.path.dirname(os.path.dirname(latvol.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def parse_csv(text):
    """(header, rows) of string cells; inverse of latvol's to_csv up to typing."""
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


def peak_bytes(call):
    """Peak bytes traced by tracemalloc during call(), after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sigma_table(n):
    """sigma[i] = sum of divisors of i, for i in 0..n (sigma[0] unused)."""
    s = [0] * (n + 1)
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            s[m] += d
    return s


def disc_points(q):
    """Integer points (x, y) with x^2 + y^2 <= q, by testing the square."""
    if q < 0:
        return 0
    r = isqrt(q)
    return sum(
        1 for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y <= q
    )


def disc_row_sum(q):
    """Integer points (x, y) with x^2 + y^2 <= q, one isqrt per row x."""
    if q < 0:
        return 0
    r = isqrt(q)
    return sum(2 * isqrt(q - x * x) + 1 for x in range(-r, r + 1))


def transpose(rows):
    k = len(rows)
    return [[rows[j][i] for j in range(k)] for i in range(k)]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(m)) for j in range(p)] for i in range(n)]


def det(rows):
    k = len(rows)
    if k == 1:
        return rows[0][0]
    if k == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    if k == 3:
        a, b, c = rows
        return (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            - a[1] * (b[0] * c[2] - b[2] * c[0])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
    # cofactor expansion is fine at test sizes
    total = 0
    for j in range(k):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det(minor)
    return total


def rand_rows(rng, k, lo=-9, hi=9):
    """Nonsingular integer matrix with entries in [lo, hi]."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]
        if det(rows) != 0:
            return rows


def rand_unimodular(rng, k, steps=8):
    """Random product of integer shears and swaps; det is +-1."""
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(steps):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for t in range(k):
            u[t][j] += c * u[t][i]
        if rng.random() < 0.3:
            for t in range(k):
                u[t][i], u[t][j] = u[t][j], u[t][i]
    return u


def frac_sqrt_upper(x):
    """A rational upper bound on sqrt(x) for x >= 0."""
    f = Fraction(x)
    return Fraction(isqrt(f.numerator * f.denominator) + 1, f.denominator)


def _root_brackets(d, k):
    """Rational xl <= d**(1/k) <= xh, bracketed to ~1e-6."""
    scale = 10**6
    n = d * scale**k
    if k == 2:
        c = isqrt(n)
    else:
        c = round(n ** (1.0 / k))
        while c**k > n:
            c -= 1
        while (c + 1) ** k <= n:
            c += 1
    return Fraction(c, scale), Fraction(c + 1, scale)


def key_cmp(key1, key2, d, k):
    """Order on (sum-of-squares, trace) pairs induced by the distance to
    the rescaled identity: sign of (a1 - 2 b1 x) - (a2 - 2 b2 x) with
    x = d**(1/k), decided exactly in integers."""
    s = key1[0] - key2[0]
    t = 2 * (key1[1] - key2[1])
    if t == 0:
        return (s > 0) - (s < 0)
    if s == 0:
        return (t < 0) - (t > 0)
    if k % 2 == 1:
        lhs, rhs = s**k, t**k * d
        return (lhs > rhs) - (lhs < rhs)
    if s > 0 and t < 0:
        return 1
    if s < 0 and t > 0:
        return -1
    lhs, rhs = s**k, t**k * d
    if s > 0:
        return (lhs > rhs) - (lhs < rhs)
    return (lhs < rhs) - (lhs > rhs)


def _solve_int(A, v):
    """A^{-1} v if it is an integer vector, else None (Cramer)."""
    d = det(A)
    k = len(A)
    out = []
    for j in range(k):
        cols = [[A[r][c] if c != j else v[r] for c in range(k)] for r in range(k)]
        num = det(cols)
        if num % d:
            return None
        out.append(num // d)
    return out


def orbit_minimum(A):
    """Exhaustive minimizer of the distance key over {A*g : det g = 1}.

    The search ball is certified: any orbit member closer than A itself
    has squared Frobenius norm at most R, where R comes from the exact
    level-set bound with rational outer estimates on the k-th root.
    Returns (rep rows, gamma rows).
    """
    k = len(A)
    d = det(A)
    assert d > 0
    xl, xh = _root_brackets(d, k)
    a0 = sum(A[i][j] ** 2 for i in range(k) for j in range(k))
    b0 = sum(A[i][i] for i in range(k))
    v_up = a0 - 2 * b0 * (xl if b0 >= 0 else xh)
    inner = k * xh**2 + v_up
    assert inner >= 0
    r_up = 2 * k * xh**2 + v_up + 2 * xh * frac_sqrt_upper(k * inner)
    bound = int(r_up) + 1

    # ambient integer vectors in the ball that lie in the column lattice
    members = []
    e = isqrt(bound)
    if k == 2:
        ambient = (
            (x, y) for x in range(-e, e + 1) for y in range(-e, e + 1)
        )
    else:
        ambient = (
            (x, y, z)
            for x in range(-e, e + 1)
            for y in range(-e, e + 1)
            for z in range(-e, e + 1)
        )
    for v in ambient:
        n = sum(c * c for c in v)
        if n == 0 or n > bound - (k - 1):
            continue
        if _solve_int(A, list(v)) is not None:
            members.append((list(v), n))
    members.sort(key=lambda vn: vn[1])

    best = None
    if k == 2:
        for c1, n1 in members:
            if n1 + 1 > bound:
                break
            for c2, n2 in members:
                if n1 + n2 > bound:
                    break
                m = [[c1[0], c2[0]], [c1[1], c2[1]]]
                if det(m) != d:
                    continue
                best = _keep(best, m, d, k)
    else:
        for c1, n1 in members:
            if n1 + 2 > bound:
                break
            for c2, n2 in members:
                if n1 + n2 + 1 > bound:
                    break
                for c3, n3 in members:
                    if n1 + n2 + n3 > bound:
                        break
                    m = [
                        [c1[0], c2[0], c3[0]],
                        [c1[1], c2[1], c3[1]],
                        [c1[2], c2[2], c3[2]],
                    ]
                    if det(m) != d:
                        continue
                    best = _keep(best, m, d, k)
    assert best is not None
    rep = best[0]
    gamma = _solve_matrix(A, rep)
    assert gamma is not None and det(gamma) == 1
    return rep, gamma


def _keep(best, m, d, k):
    key = (
        sum(m[i][j] ** 2 for i in range(k) for j in range(k)),
        sum(m[i][i] for i in range(k)),
    )
    flat = tuple(x for row in m for x in row)
    if best is None:
        return (m, key, flat)
    c = key_cmp(key, best[1], d, k)
    if c < 0 or (c == 0 and flat < best[2]):
        return (m, key, flat)
    return best


def _solve_matrix(A, M):
    """A^{-1} M if integral, else None."""
    k = len(A)
    cols = []
    for j in range(k):
        x = _solve_int(A, [M[i][j] for i in range(k)])
        if x is None:
            return None
        cols.append(x)
    return transpose(cols)
