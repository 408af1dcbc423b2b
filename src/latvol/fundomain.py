"""Nearest-to-identity reduction over unimodular column changes.

For an integer matrix A with det A = d > 0, the orbit {A @ g : det g = 1}
has a unique member minimizing the squared Frobenius distance
|M / d^(1/k) - I|^2 once ties are broken lexicographically on the matrix
entries (row-major).  The minimizer is found by exhaustive search over
an exact integer ball, so every comparison is rational: for candidates
M1, M2 the sign of the distance difference equals the sign of
(a1 - a2) * d^(-1/k) - 2 * (b1 - b2) with a = |M|_F^2 and b = tr M,
which is decided by comparing |a1 - a2|^k against 2^k |b1 - b2|^k d.

Guaranteed-exact for k = 2; k = 3 runs the same scheme behind an
explicit operation budget.  The set of fixed points ("the cone F") is
the chosen fundamental domain for the column action on positive
determinant matrices.
"""

from fractions import Fraction
from itertools import permutations, product
from math import gcd, isqrt, sqrt
from typing import NamedTuple

from .errors import BudgetExceededError, InvariantError, PreconditionError
from .lattice import LatticeBasis, greedy_basis, short_coefficient_vectors
from .linalg import det_int, ext_gcd, mat_mul, vec_gcd


class ReduceResult(NamedTuple):
    gamma: tuple
    rep: tuple


def _as_rows(matrix):
    entries = getattr(matrix, "entries", matrix)
    rows = tuple(tuple(int(x) for x in row) for row in entries)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise PreconditionError("matrix must be square")
    return rows


def _sign(x):
    return (x > 0) - (x < 0)


def _floor_div(a, b):
    return a // b


def _ceil_div(a, b):
    return -((-a) // b)


def _frob_tr(rows):
    a = sum(e * e for row in rows for e in row)
    b = sum(rows[i][i] for i in range(len(rows)))
    return a, b


def _cmp_keys(a1, b1, a2, b2, d, k):
    """Sign of f(M1) - f(M2) where f(M) = |M d^(-1/k) - I|_F^2.

    The difference is (a1 - a2) x^2 - 2 (b1 - b2) x with x = d^(-1/k) > 0,
    so dividing by x leaves sign((a1 - a2) x - 2 (b1 - b2)).
    """
    da = a1 - a2
    db = b1 - b2
    if da == 0:
        return -_sign(db)
    if db == 0:
        return _sign(da)
    if da > 0 and db < 0:
        return 1
    if da < 0 and db > 0:
        return -1
    # same sign: da * d^(-1/k) vs 2 db reduces to |da|^k vs 2^k |db|^k d
    lhs = abs(da) ** k
    rhs = (2**k) * abs(db) ** k * d
    if lhs == rhs:
        return 0
    if da > 0:
        return 1 if lhs > rhs else -1
    return 1 if lhs < rhs else -1


def compare_distance(A, gamma1, gamma2):
    """Exact three-way comparison of |A g_i / d^(1/k) - I|_F^2 for i = 1, 2."""
    rows = _as_rows(A)
    g1 = _as_rows(gamma1)
    g2 = _as_rows(gamma2)
    d = det_int(rows)
    if d <= 0:
        raise PreconditionError("determinant must be positive")
    for g in (g1, g2):
        if det_int(g) != 1:
            raise PreconditionError("gamma must have determinant 1")
    a1, b1 = _frob_tr(mat_mul(rows, g1))
    a2, b2 = _frob_tr(mat_mul(rows, g2))
    return _cmp_keys(a1, b1, a2, b2, d, len(rows))


def _dot2(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _lagrange(b1, b2):
    """Gauss-reduce a rank-2 basis: |b1| <= |b2| and |2 <b1,b2>| <= |b1|^2."""
    while True:
        if _dot2(b1, b1) > _dot2(b2, b2):
            b1, b2 = b2, b1
        n1 = _dot2(b1, b1)
        q = (2 * _dot2(b1, b2) + n1) // (2 * n1)
        if q == 0:
            return b1, b2
        b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1])


def _k2_candidates(b1, b2, d, R2):
    """Yield (a, tr, x, y, al0, be0, t) over all M = (b1 b2) gamma',
    det gamma' = 1, |M|_F^2 <= R2, where gamma' = ((x, al0 + t x),
    (y, be0 + t y)) and (a, tr) = (|M|_F^2, tr M); `_k2_member` builds
    (M, gamma').  (b1, b2) must be Lagrange-reduced with det +d."""
    n1 = _dot2(b1, b1)
    n2 = _dot2(b2, b2)
    m = _dot2(b1, b2)
    D2 = n1 * n2 - m * m
    C1 = R2 - n1
    if C1 < 0:
        return
    Y = isqrt(C1 * n1 // D2)
    for y in range(-Y, Y + 1):
        disc = n1 * C1 - D2 * y * y
        if disc < 0:
            continue
        s = isqrt(disc)
        for x in range(_ceil_div(-m * y - s, n1), _floor_div(-m * y + s, n1) + 1):
            if gcd(x, y) != 1:
                continue
            q1 = n1 * x * x + 2 * m * x * y + n2 * y * y
            if q1 > C1:
                continue
            # second columns with det 1 form the line (a0 + t x, b0 + t y)
            _, uu, vv = ext_gcd(x, y)
            al0, be0 = -vv, uu
            qc = n1 * x * al0 + m * (x * be0 + y * al0) + n2 * y * be0
            q0 = n1 * al0 * al0 + 2 * m * al0 * be0 + n2 * be0 * be0
            rem = R2 - q1
            disc2 = qc * qc - q1 * (q0 - rem)
            if disc2 < 0:
                continue
            s2 = isqrt(disc2)
            # tr M = u_0 + w_1 is linear in t
            tr0 = x * b1[0] + y * b2[0] + al0 * b1[1] + be0 * b2[1]
            trt = x * b1[1] + y * b2[1]
            for t in range(_ceil_div(-qc - s2, q1), _floor_div(-qc + s2, q1) + 1):
                yield q1 + q1 * t * t + 2 * qc * t + q0, tr0 + trt * t, x, y, al0, be0, t


def _k2_member(b1, b2, x, y, al0, be0, t):
    """(M, gamma') for one candidate of `_k2_candidates`."""
    al, be = al0 + t * x, be0 + t * y
    ucol = (x * b1[0] + y * b2[0], x * b1[1] + y * b2[1])
    wcol = (al * b1[0] + be * b2[0], al * b1[1] + be * b2[1])
    return ((ucol[0], wcol[0]), (ucol[1], wcol[1])), ((x, al), (y, be))


def _columns(rows):
    k = len(rows)
    return [tuple(rows[i][j] for i in range(k)) for j in range(k)]


def _rows_from_columns(cols):
    k = len(cols)
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def _adjugate(rows):
    """adj(A) = det(A) A^(-1) for k = 2, 3; for k = 3 its rows are the
    cross products of A's columns."""
    if len(rows) == 2:
        (a, b), (c, e) = rows
        return ((e, -b), (-c, a))
    c0, c1, c2 = _columns(rows)
    return (_cross(c1, c2), _cross(c2, c0), _cross(c0, c1))


def _change_of_basis(rows, d, red_cols):
    """Integer U = adj(A) B_red / d with A U = B_red; requires det B_red = d."""
    U = []
    for row in mat_mul(_adjugate(rows), _rows_from_columns(red_cols)):
        out = []
        for x in row:
            q, r = divmod(x, d)
            if r:
                raise InvariantError("reduced basis left the column lattice")
            out.append(q)
        U.append(tuple(out))
    return tuple(U)


def _finish(rows, d, best, red_cols):
    a, b, M, gp = min(best, key=lambda c: c[2])
    U = _change_of_basis(rows, d, red_cols)
    gamma = mat_mul(U, gp)
    if det_int(gamma) != 1 or mat_mul(rows, gamma) != M:
        raise InvariantError("reduction produced an inconsistent witness")
    return ReduceResult(gamma=gamma, rep=M)


def _keep(best, c, cand):
    """Record cand, whose key compared c <= 0 against the kept ones."""
    if c < 0:
        best.clear()
    best.append(cand)


def _reduce_k2(rows):
    d = det_int(rows)
    cols = _columns(rows)
    b1, b2 = _lagrange(cols[0], cols[1])
    if b1[0] * b2[1] - b1[1] * b2[0] < 0:
        b2 = (-b2[0], -b2[1])
    # feasible starting point: best arrangement of short vectors
    small = [b1, b2, (b1[0] + b2[0], b1[1] + b2[1]), (b1[0] - b2[0], b1[1] - b2[1])]
    small += [(-u[0], -u[1]) for u in small]
    a0 = None
    for u in small:
        for w in small:
            if u[0] * w[1] - u[1] * w[0] != d:
                continue
            a = _dot2(u, u) + _dot2(w, w)
            b = u[0] + w[1]
            if a0 is None or _cmp_keys(a, b, a0, b0, d, 2) < 0:
                a0, b0 = a, b
    # any minimizer M satisfies |M|_F <= sqrt(a0) + 2 sqrt(2) d^(1/2)
    R2 = a0 + 8 * d + 4 * (isqrt(2 * a0 * d) + 1)
    best = []
    for a, tr, *line in _k2_candidates(b1, b2, d, R2):
        c = _cmp_keys(a, tr, best[0][0], best[0][1], d, 2) if best else -1
        if c <= 0:
            _keep(best, c, (a, tr, *_k2_member(b1, b2, *line)))
    return _finish(rows, d, best, [b1, b2])


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _mat_vec3(A, v):
    return (_dot3(A[0], v), _dot3(A[1], v), _dot3(A[2], v))


def _reduce_k3(rows, budget):
    d = det_int(rows)
    g = greedy_basis(LatticeBasis(_columns(rows)))
    vecs = []
    for v in g.vectors:
        if any(Fraction(x).denominator != 1 for x in v):
            raise InvariantError("greedy basis left the integer lattice")
        vecs.append(tuple(int(x) for x in v))
    if det_int(_rows_from_columns(vecs)) == -d:
        vecs[2] = tuple(-x for x in vecs[2])
    if det_int(_rows_from_columns(vecs)) != d:
        raise InvariantError("greedy basis does not span the column lattice")
    norms = [sum(x * x for x in v) for v in vecs]
    a0 = sum(norms)
    b0 = None
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            cols3 = [tuple(s * x for x in vecs[p]) for s, p in zip(signs, perm)]
            if det_int(_rows_from_columns(cols3)) != d:
                continue
            tr = sum(cols3[i][i] for i in range(3))
            if b0 is None or _cmp_keys(a0, tr, a0, b0, d, 3) < 0:
                b0 = tr
    # any f-minimizer M has |M|_F <= sqrt(f(M0)) d^(1/3) + sqrt(3) d^(1/3);
    # with X = d^(1/3) and F = f(M0) X^2 = a0 - 2 b0 X + 3 X^2 that squares
    # to F + 3 X^2 + 2 sqrt(3 F) X, inflated generously against float error
    X = d ** (1.0 / 3.0)
    F = max(a0 - 2.0 * b0 * X + 3.0 * X * X, 0.0)
    R2 = int((F + 3.0 * X * X + 2.0 * sqrt(3.0 * F) * X) * (1.0 + 1e-6)) + 2
    lam1 = g.alphas_sq[0]
    if lam1.denominator != 1:
        raise InvariantError("integer lattice with fractional minimum")
    lam1 = lam1.numerator
    LB = LatticeBasis(vecs)
    G = tuple(tuple(int(x) for x in row) for row in LB.gram)
    # row j of the basis matrix: M_jj = c_j . e_j for M = (vecs) (c1 c2 c3)
    e = _rows_from_columns(vecs)
    cap1 = R2 - 2 * lam1
    # per primitive short vector: c, |c|^2, G c and c . e_j for j = 0, 1, 2
    cands = [
        (c, int(n), _mat_vec3(G, c), _mat_vec3(e, c))
        for c, n in short_coefficient_vectors(LB, Fraction(cap1))
        if vec_gcd(c) == 1
    ]
    cands.sort(key=lambda cand: cand[1])
    ops = 0
    best = []
    for c1, n1c, Gc1, ec1 in cands:
        if n1c > cap1:
            break
        for c2, n2c, Gc2, ec2 in cands:
            if n1c + n2c + lam1 > R2:
                break
            ops += 1
            if ops > budget:
                raise BudgetExceededError(f"k = 3 reduction exceeded budget {budget}")
            m = _cross(c1, c2)
            if m == (0, 0, 0) or vec_gcd(m) != 1:
                continue
            g1, aa, bb = ext_gcd(m[0], m[1])
            g2, cc, dd = ext_gcd(g1, m[2])
            if g2 != 1:
                continue
            y0 = (cc * aa, cc * bb, dd)
            rem3 = R2 - n1c - n2c
            q12 = _dot3(c1, Gc2)
            p1 = _dot3(y0, Gc1)
            p2 = _dot3(y0, Gc2)
            p0 = _dot3(y0, _mat_vec3(G, y0))
            A2 = n1c * n2c - q12 * q12
            B2 = p1 * q12 - n1c * p2
            C2 = p1 * p1 - n1c * p0 + n1c * rem3
            disc22 = B2 * B2 + A2 * C2
            if disc22 < 0:
                continue
            s22 = isqrt(disc22)
            # tr M = ec1[0] + ec2[1] + w . e_2 with w = y0 + t1 c1 + t2 c2
            tr12 = ec1[0] + ec2[1] + _dot3(y0, e[2])
            a12 = n1c + n2c
            for t2 in range(_ceil_div(B2 - s22, A2), _floor_div(B2 + s22, A2) + 1):
                ops += 1
                if ops > budget:
                    raise BudgetExceededError(
                        f"k = 3 reduction exceeded budget {budget}"
                    )
                cen = p1 + q12 * t2
                base3 = p0 + 2 * p2 * t2 + n2c * t2 * t2
                disc1 = cen * cen - n1c * (base3 - rem3)
                if disc1 < 0:
                    continue
                s1 = isqrt(disc1)
                tr2 = tr12 + t2 * ec2[2]
                # the t1 range is exact: every w in it has q3 = |w|_G^2 <= rem3
                for t1 in range(_ceil_div(-cen - s1, n1c), _floor_div(-cen + s1, n1c) + 1):
                    a = a12 + base3 + t1 * (2 * cen + n1c * t1)
                    tr = tr2 + t1 * ec1[2]
                    c = _cmp_keys(a, tr, best[0][0], best[0][1], d, 3) if best else -1
                    if c > 0:
                        continue
                    w = tuple(y0[i] + t1 * c1[i] + t2 * c2[i] for i in range(3))
                    gp = _rows_from_columns([c1, c2, w])
                    _keep(best, c, (a, tr, mat_mul(e, gp), gp))
    return _finish(rows, d, best, vecs)


def reduce_to_F(A, k3_budget=None):
    """Reduce A to the unique orbit representative nearest the identity.

    Returns ReduceResult(gamma, rep) with A @ gamma = rep, det gamma = 1.
    k = 2 is guaranteed exact; k = 3 requires an explicit operation
    budget and raises BudgetExceededError when the search outgrows it.
    """
    rows = _as_rows(A)
    k = len(rows)
    d = det_int(rows)
    if d <= 0:
        raise PreconditionError("determinant must be positive")
    if k == 1:
        return ReduceResult(gamma=((1,),), rep=rows)
    if k == 2:
        return _reduce_k2(rows)
    if k == 3:
        if k3_budget is None:
            raise PreconditionError("k = 3 reduction needs an explicit k3_budget")
        if k3_budget < 0:
            raise PreconditionError("k3_budget must be >= 0")
        return _reduce_k3(rows, k3_budget)
    raise PreconditionError("reduction is implemented for k <= 3")


def in_cone_F(A, k3_budget=None):
    """True when A is the nearest-to-identity representative of its orbit."""
    rows = _as_rows(A)
    return reduce_to_F(rows, k3_budget=k3_budget).rep == rows


def size_sq(H, k3_budget=None):
    """Squared Frobenius norm of the orbit representative, as an exact rational.

    H may be any positive-determinant integer matrix; the value depends
    only on its column lattice.
    """
    rows = _as_rows(H)
    if len(rows) > 3:
        raise PreconditionError("size is computed via reduction, so k <= 3")
    rep = reduce_to_F(rows, k3_budget=k3_budget).rep
    return Fraction(sum(e * e for row in rep for e in row))


def _members_in_ball(A, cap):
    """All orbit members M with |M|_F^2 <= cap (k = 2 only, for tests)."""
    rows = _as_rows(A)
    if len(rows) != 2:
        raise PreconditionError("ball enumeration is k = 2 only")
    d = det_int(rows)
    if d <= 0:
        raise PreconditionError("determinant must be positive")
    cols = _columns(rows)
    b1, b2 = _lagrange(cols[0], cols[1])
    if b1[0] * b2[1] - b1[1] * b2[0] < 0:
        b2 = (-b2[0], -b2[1])
    return sorted({_k2_member(b1, b2, *c[2:])[0] for c in _k2_candidates(b1, b2, d, cap)})
