"""Nearest-to-identity reduction over unimodular column changes.

For an integer matrix A with det A = d > 0, the orbit {A @ g : det g = 1}
has a unique member minimizing the squared Frobenius distance
|M / d^(1/k) - I|^2 once ties are broken lexicographically on the matrix
entries (row-major).  The minimizer is found by exhaustive search over
an exact integer region, so every comparison is rational: for candidates
M1, M2 the sign of the distance difference equals the sign of
(a1 - a2) * d^(-1/k) - 2 * (b1 - b2) with a = |M|_F^2 and b = tr M,
which is decided by comparing |a1 - a2|^k against 2^k |b1 - b2|^k d.

Guaranteed-exact for k = 2; k = 3 runs the same scheme behind an
explicit operation budget.  The set of fixed points ("the cone F") is
the chosen fundamental domain for the column action on positive
determinant matrices.
"""

from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .errors import BudgetExceededError, InvariantError, PreconditionError
from .lattice import LatticeBasis, _greedy, _short_vectors
from .linalg import det_int, ext_gcd, icbrt, mat_mul, vec_gcd


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
        if len(g) != len(rows):
            raise PreconditionError("gamma must be the size of A")
        if det_int(g) != 1:
            raise PreconditionError("gamma must have determinant 1")
    a1, b1 = _frob_tr(mat_mul(rows, g1))
    a2, b2 = _frob_tr(mat_mul(rows, g2))
    return _cmp_keys(a1, b1, a2, b2, d, len(rows))


def _dot2(u, v):
    return u[0] * v[0] + u[1] * v[1]


def _lagrange(b1, b2):
    """Gauss-reduce a rank-2 basis: |b1| <= |b2| and |2 <b1,b2>| <= |b1|^2.

    Returns the reduced pair and its coefficient columns c1, c2 in the
    input basis: b1' = c1[0] b1 + c1[1] b2, and likewise for b2'.
    """
    c1, c2 = (1, 0), (0, 1)
    while True:
        if _dot2(b1, b1) > _dot2(b2, b2):
            b1, b2, c1, c2 = b2, b1, c2, c1
        n1 = _dot2(b1, b1)
        q = (2 * _dot2(b1, b2) + n1) // (2 * n1)
        if q == 0:
            return b1, b2, c1, c2
        b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1])
        c2 = (c2[0] - q * c1[0], c2[1] - q * c1[1])


def _floor_sqrt_mul(d, v):
    """floor(sqrt(d) * v) for integers d >= 1 and v, exactly."""
    if v >= 0:
        return isqrt(d * v * v)
    return -isqrt(d * v * v - 1) - 1


# Disc points the k = 2 search may scan, 12x its largest tested use:
# diag(10^8 + r, 1) charges 40,001, while 20,000 sampled Hermite forms with
# d <= 10^5 charged at most 434.  diag(10^10, 1) charges 400,001 and
# diag(10^11, 1) 894,427.
_K2_BUDGET = 500_000


def _spend(spent, n, budget, k):
    """spent + n, refusing once it passes the k x k reduction's budget."""
    spent += n
    if spent > budget:
        raise BudgetExceededError(f"k = {k} reduction exceeded budget {budget}")
    return spent


def _k2_first_columns(b1, b2, d, c, R):
    """Coefficients (x, y), gcd(x, y) = 1, of every u = x b1 + y b2 with
    |u - c e1|^2 <= R, where d = b1 x b2 > 0.

    Each row's x-range is charged against _K2_BUDGET before it is scanned
    (row y = 0 offers only x = +-1 and charges 2).
    """
    n1 = _dot2(b1, b1)
    spent = 0
    # y d = b1 x u = b1 x (u - c e1) - c b1[1], and |b1 x v| <= |b1| |v|
    S = isqrt(n1 * R)
    for y in range(_ceil_div(-S - c * b1[1], d), (S - c * b1[1]) // d + 1):
        # |x b1 + v|^2 <= R with v = y b2 - c e1 is a quadratic in x
        v = (y * b2[0] - c, y * b2[1])
        h = _dot2(b1, v)
        disc = h * h - n1 * (_dot2(v, v) - R)
        if disc < 0:
            continue
        s = isqrt(disc)
        lo, hi = _ceil_div(-h - s, n1), (-h + s) // n1
        spent = _spend(spent, 2 if y == 0 else max(hi - lo + 1, 0), _K2_BUDGET, 2)
        if y == 0:
            yield from ((x, 0) for x in (-1, 1) if lo <= x <= hi)
            continue
        for x in range(lo, hi + 1):
            if gcd(x, y) == 1:
                yield x, y


def _k2_score_column(best, b1, b2, d, x, y):
    """Score the best second columns for the first column u = x b1 + y b2.

    With x be0 - y al0 = 1, the columns w completing u to det d are
    w0 + t u, w0 = al0 b1 + be0 b2.  The key a - 2 sqrt(d) tr M is then
    q1 t^2 + 2 (qc - sqrt(d) u[1]) t + const with q1 = |u|^2 and
    qc = u . w0, a convex quadratic in t whose integer minimizers lie in
    {t0, t0 + 1}, t0 = floor((sqrt(d) u[1] - qc) / q1); both are kept
    on ties so that `_finish` breaks them.
    """
    u = (x * b1[0] + y * b2[0], x * b1[1] + y * b2[1])
    _, p, q = ext_gcd(x, y)
    al0, be0 = -q, p
    w0 = (al0 * b1[0] + be0 * b2[0], al0 * b1[1] + be0 * b2[1])
    q1 = _dot2(u, u)
    qc = _dot2(u, w0)
    a_base = q1 + _dot2(w0, w0)
    tr_base = u[0] + w0[1]
    t0 = (_floor_sqrt_mul(d, u[1]) - qc) // q1
    for t in (t0, t0 + 1):
        a = a_base + t * (2 * qc + q1 * t)
        tr = tr_base + t * u[1]
        c = _cmp_keys(a, tr, best[0][0], best[0][1], d, 2) if best else -1
        if c <= 0:
            M = ((u[0], w0[0] + t * u[0]), (u[1], w0[1] + t * u[1]))
            _keep(best, c, (a, tr, M, ((x, al0 + t * x), (y, be0 + t * y))))


def _transpose(m):
    return tuple(zip(*m))


def _mul2(a, b):
    """The 2 x 2 product a b in closed form."""
    (p, q), (r, s) = a
    (w, x), (y, z) = b
    return ((p * w + q * y, p * x + q * z), (r * w + s * y, r * x + s * z))


def _finish(rows, best, U):
    """The tie-broken best (a, tr, M, gp), with gp given on the reduced
    basis A U, as ReduceResult(U gp, M)."""
    a, b, M, gp = min(best, key=lambda c: c[2])
    mul = _mul2 if len(rows) == 2 else mat_mul
    gamma = mul(U, gp)
    if det_int(gamma) != 1 or mul(rows, gamma) != M:
        raise InvariantError("reduction produced an inconsistent witness")
    return ReduceResult(gamma=gamma, rep=M)


def _keep(best, c, cand):
    """Record cand, whose key compared c <= 0 against the kept ones."""
    if c < 0:
        best.clear()
    best.append(cand)


def _reduce_k2(rows, d):
    cols = _transpose(rows)
    b1, b2, c1, c2 = _lagrange(cols[0], cols[1])
    if b1[0] * b2[1] - b1[1] * b2[0] < 0:
        b2 = (-b2[0], -b2[1])
        c2 = (-c2[0], -c2[1])
    # start point: the quarter turns (b1 b2) J^i, J = ((0, -1), (1, 0)),
    # share |M|_F^2 = |b1|^2 + |b2|^2, so the largest trace is the best
    a0 = _dot2(b1, b1) + _dot2(b2, b2)
    b0 = max(b1[0] + b2[1], b2[0] - b1[1], -b1[0] - b2[1], b1[1] - b2[0])
    # Every minimizer M, and every M tied with it, has
    # |M - sqrt(d) I|_F^2 <= F0 = a0 - 2 sqrt(d) b0 + 2d, so its first
    # column u has |u - sqrt(d) e1|^2 <= F0.  F0 <= F0up below, as
    # isqrt(d b0^2) <= sqrt(d) |b0| < isqrt(d b0^2) + 1, and with
    # c = isqrt(d), |sqrt(d) - c| < 1 gives |u - c e1| <= isqrt(F0up) + 2.
    s = isqrt(d * b0 * b0)
    F0up = a0 + 2 * d + (-2 * s if b0 >= 0 else 2 * (s + 1))
    r = isqrt(F0up) + 2
    best = []
    for x, y in _k2_first_columns(b1, b2, d, isqrt(d), r * r):
        _k2_score_column(best, b1, b2, d, x, y)
    return _finish(rows, best, _transpose((c1, c2)))


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


# X = d^(1/3) is bracketed by icbrt(d 2^(3 m)) / 2^m with m = _CBRT_BITS
_CBRT_BITS = 16


def _dist_lower(S, x, n, uj):
    """Least S^2 |u - X e_j|^2 over X S in [x, x + 1], given |u|^2 = n.

    S^2 n - 2 S uj y + y^2 is convex in y = X S, so its least value on the
    bracket is at the bracket point nearest its vertex y = S uj.
    """
    y = min(max(S * uj, x), x + 1)
    return S * S * n - 2 * S * uj * y + y * y


def _ball(Fs, S, x):
    """A bound on |v|^2 for integer vectors v with S^2 |v - X e_j|^2 <= Fs.

    |v| <= sqrt(Fs) / S + X < (isqrt(Fs) + 1 + x + 1) / S, and |v|^2 is an
    integer, so it is at most the floor of that bound squared.
    """
    return (isqrt(Fs) + x + 2) ** 2 // (S * S)


# the permutations p of range(3), each with its sign sgn(p)
_PERMS3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
)


def _start_trace(vecs):
    """The largest trace of a matrix with columns s_i vecs[p_i], signs s_i
    = +-1 and p a permutation, whose determinant is that of (vecs) > 0.

    Each of the 48 has det sgn(p) s_0 s_1 s_2 times that of (vecs), so the
    admissible ones have s_0 s_1 s_2 = sgn(p).  For fixed p, s_i = sign(t_i)
    on t_i = vecs[p_i][i] gives the trace sum |t_i|; when its sign product
    is wrong, flipping the sign at the smallest |t_i| costs the least.
    """
    best = None
    for p, sgn in _PERMS3:
        t = [vecs[j][i] for i, j in enumerate(p)]
        tr = sum(map(abs, t))
        if (-1) ** sum(a < 0 for a in t) != sgn:
            tr -= 2 * min(map(abs, t))
        if best is None or tr > best:
            best = tr
    return best


def _reduce_k3(rows, d, budget):
    # the greedy basis of the column lattice, rows over q = 1: vecs[i] is
    # the column A coeffs[i] of A U with U = (coeffs)^T, det U = 1
    vecs, _, coeffs = _greedy(LatticeBasis._from_rows(_transpose(rows), 1))
    vecs, coeffs = list(vecs), list(coeffs)
    if det_int(coeffs) < 0:
        coeffs[2] = tuple(-x for x in coeffs[2])
        vecs[2] = tuple(-x for x in vecs[2])
    # start point: the signed permutations of the greedy columns with det d
    # share a0 = |M|_F^2, so the largest trace is the best
    a0 = sum(_dot3(v, v) for v in vecs)
    b0 = _start_trace(vecs)
    # X = d^(1/3) has x <= X S < x + 1.  Every minimizer M, and every M tied
    # with it, has sum_j |M_j - X e_j|^2 = |M - X I|_F^2 <= F = a0 - 2 b0 X
    # + 3 X^2, the start point's value.  F is convex in X, so S^2 F <= Fs,
    # its larger value at the two ends of the bracket; each column j of M
    # then has S^2 |M_j - X e_j|^2 <= Fs less what the others take.
    S = 1 << _CBRT_BITS
    x = icbrt(d << 3 * _CBRT_BITS)
    Fs = max(S * S * a0 - 2 * S * b0 * y + 3 * y * y for y in (x, x + 1))
    LB = LatticeBasis._from_rows(tuple(vecs), 1)
    G = LB._G
    # row j of the basis matrix: M_jj = c_j . e_j for M = (vecs) (c1 c2 c3)
    e = _transpose(vecs)
    # primitive c, as (r, c, |c|^2, G c, B c), kept as a first (second)
    # column when r, the least S^2 |B c - X e_1|^2 (e_2) over the bracket,
    # is at most Fs; each one listed costs an op
    ops = 0
    firsts, seconds = [], []
    for c, n in _short_vectors(LB, _ball(Fs, S, x)):
        if vec_gcd(c) != 1:
            continue
        ops = _spend(ops, 1, budget, 3)
        u = _mat_vec3(e, c)
        Gc = _mat_vec3(G, c)
        for j, kept in ((0, firsts), (1, seconds)):
            r = _dist_lower(S, x, n, u[j])
            if r <= Fs:
                kept.append((r, c, n, Gc, u))
    firsts.sort()
    seconds.sort()
    best = []
    for r1, c1, n1c, Gc1, ec1 in firsts:
        for r2, c2, n2c, Gc2, ec2 in seconds:
            if r1 + r2 > Fs:
                break
            ops = _spend(ops, 1, budget, 3)
            m = _cross(c1, c2)
            if m == (0, 0, 0) or vec_gcd(m) != 1:
                continue
            g1, aa, bb = ext_gcd(m[0], m[1])
            g2, cc, dd = ext_gcd(g1, m[2])
            if g2 != 1:
                continue
            y0 = (cc * aa, cc * bb, dd)
            # the third column w = y0 + t1 c1 + t2 c2 has |w|^2 <= rem3
            rem3 = _ball(Fs - r1 - r2, S, x)
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
            # tr M = ec1[0] + ec2[1] + w . e_2
            tr12 = ec1[0] + ec2[1] + _dot3(y0, e[2])
            a12 = n1c + n2c
            for t2 in range(_ceil_div(B2 - s22, A2), (B2 + s22) // A2 + 1):
                ops = _spend(ops, 1, budget, 3)
                cen = p1 + q12 * t2
                base3 = p0 + 2 * p2 * t2 + n2c * t2 * t2
                disc1 = cen * cen - n1c * (base3 - rem3)
                if disc1 < 0:
                    continue
                s1 = isqrt(disc1)
                tr2 = tr12 + t2 * ec2[2]
                # the t1 range is exact: every w in it has q3 = |w|_G^2 <= rem3
                for t1 in range(_ceil_div(-cen - s1, n1c), (-cen + s1) // n1c + 1):
                    a = a12 + base3 + t1 * (2 * cen + n1c * t1)
                    tr = tr2 + t1 * ec1[2]
                    c = _cmp_keys(a, tr, best[0][0], best[0][1], d, 3) if best else -1
                    if c > 0:
                        continue
                    w = tuple(y0[i] + t1 * c1[i] + t2 * c2[i] for i in range(3))
                    gp = _transpose((c1, c2, w))
                    _keep(best, c, (a, tr, mat_mul(e, gp), gp))
    return _finish(rows, best, _transpose(coeffs))


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
        return _reduce_k2(rows, d)
    if k == 3:
        if k3_budget is None:
            raise PreconditionError("k = 3 reduction needs an explicit k3_budget")
        if k3_budget < 0:
            raise PreconditionError("k3_budget must be >= 0")
        return _reduce_k3(rows, d, k3_budget)
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
