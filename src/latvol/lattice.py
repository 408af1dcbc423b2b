"""Exact lattice arithmetic.

Lattices are free abelian groups of rank k given by a rational basis in
an ambient rational space of dimension >= k, with the standard inner
product.  Every search, projection, lift and solve runs on integer rows
over one denominator (see `LatticeBasis`); Fractions are built only where
input is parsed and where a public value is returned.  Quotient lattices
are realized by exact orthogonal projection, which is why the ambient
dimension may exceed the rank.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .errors import InvariantError, PreconditionError
from .linalg import (
    det_int,
    dot,
    ext_gcd,
    gram_matrix,
    identity_int,
    ldl_fraction_free,
    vec_gcd,
)


class LatticeBasis:
    """Basis of a rank-k lattice: integer rows B over a denominator q > 0.

    The vectors are B / q, q the lcm of the input denominators, so
    tie-breaks on the rows are tie-breaks on the vectors.  G = B B^T has
    leading minors D_i and fraction-free L D L^T rows U; `covol_sq` is
    D_k / q^(2k).  `_fp` caches the Fincke-Pohst data: the row norm
    |x B|^2 of coefficients x is sum_i w_i (U x)_i^2 / W with W the lcm of
    the D_i D_(i+1) and integer w_i = W / (D_i D_(i+1)).  `vectors` and `gram`
    (B / q and G / q^2) are built as Fractions on first use, and so are
    `_minimum` and `_greedy_rows`, the results of `_shortest` and `_greedy`:
    the public functions on one lattice share one search of each.
    """

    def __init__(self, vectors):
        vecs = tuple(tuple(map(Fraction, v)) for v in vectors)
        if not vecs:
            raise PreconditionError("a lattice basis needs at least one vector")
        ambient = len(vecs[0])
        if any(len(v) != ambient for v in vecs):
            raise PreconditionError("basis vectors have mixed ambient dimensions")
        if len(vecs) > ambient:
            raise PreconditionError("more vectors than ambient dimension")
        q = lcm(*(x.denominator for v in vecs for x in v))
        self._init(tuple(tuple(x.numerator * (q // x.denominator) for x in v) for v in vecs), q)

    @classmethod
    def _from_rows(cls, rows, q):
        """The basis with integer rows `rows` (a tuple of tuples) over q > 0."""
        L = cls.__new__(cls)
        L._init(rows, q)
        return L

    def _init(self, rows, q):
        self.rank = len(rows)
        self.ambient = len(rows[0])
        self._rows, self._q = rows, q
        self._G = gram_matrix(rows)
        try:
            deltas, U = ldl_fraction_free(self._G)
        except ValueError:
            raise PreconditionError("basis vectors are linearly dependent") from None
        pairs = [deltas[i] * deltas[i + 1] for i in range(self.rank)]
        W = lcm(*pairs)
        self._fp = (U, tuple(W // p for p in pairs), W)

    @cached_property
    def vectors(self):
        return tuple(_fractions(r, self._q) for r in self._rows)

    @cached_property
    def gram(self):
        return tuple(_fractions(row, self._q**2) for row in self._G)

    @cached_property
    def _minimum(self):
        return _shortest(self)

    @cached_property
    def _greedy_rows(self):
        return _greedy(self)

    @property
    def covol_sq(self):
        return Fraction(self._fp[0][-1][-1], self._q ** (2 * self.rank))

    def __repr__(self):
        return f"LatticeBasis(rank={self.rank}, vectors={self.vectors!r})"


class GreedyBasis(NamedTuple):
    """Output of the greedy economical-basis procedure.

    alphas_sq[i] is the exact square of alpha_{i+1} = covol(L_i / L_{i-1});
    coeffs[i] holds the integer coefficients of vectors[i] in the input
    basis, so the rows of coeffs form a unimodular matrix.
    """

    vectors: tuple
    alphas_sq: tuple
    coeffs: tuple


def covol_sq(L):
    """Squared covolume det(gram); equals index^2 for sublattices of Z^k."""
    return L.covol_sq


def _short_vectors(L, bound):
    """Every nonzero integer coefficient vector c with |c B|^2 <= bound.

    B is L's integer rows, so the bound and the yielded norms are integers
    in row units (q^2 times the vectors' norms).  Exact Fincke-Pohst
    enumeration on the integer Gram minors; both signs of every vector are
    produced, one at a time, so a caller may stop early.  Yields
    (coeffs, |c B|^2).
    """
    if bound <= 0:
        return
    U, mults, W = L._fp
    k = L.rank
    x = [0] * k

    def rec(i, rem, acc):
        # levels i+1..k-1 are fixed; rem is the leftover scaled budget and
        # level i adds w_i z^2 with z = x_i D_(i+1) + n
        row, w, piv = U[i], mults[i], U[i][i]
        n = sum(row[j] * x[j] for j in range(i + 1, k))
        r = isqrt(rem // w)
        for xi in range(-((r + n) // piv), (r - n) // piv + 1):
            z = xi * piv + n
            contrib = w * z * z
            x[i] = xi
            if i == 0:
                if any(x):
                    yield tuple(x), (acc + contrib) // W
            else:
                yield from rec(i - 1, rem - contrib, acc + contrib)
        x[i] = 0

    yield from rec(k - 1, bound * W, 0)


def iter_short_coefficient_vectors(L, bound):
    """Every nonzero integer coefficient vector c with |sum c_i b_i|^2 <= bound.

    The listing of `_short_vectors` with the bound floored to row units
    and each norm returned as a Fraction: both signs of every vector, one
    at a time, so a caller may stop early.  Yields (coeffs, norm_sq).
    """
    bound = Fraction(bound)
    q2 = L._q**2
    for c, n in _short_vectors(L, bound.numerator * q2 // bound.denominator):
        yield c, Fraction(n, q2)


def short_coefficient_vectors(L, bound):
    """The list of `iter_short_coefficient_vectors(L, bound)`."""
    return list(iter_short_coefficient_vectors(L, bound))


def _combine(coeffs, rows):
    """The integer row sum_i coeffs_i rows_i."""
    return tuple(
        sum(c * row[a] for c, row in zip(coeffs, rows)) for a in range(len(rows[0]))
    )


def _fractions(row, q):
    return tuple(Fraction(a, q) for a in row)


def _shortest(L):
    """(r.r, r, c) for shortest_vector's integer row r = c B over L's q."""
    start = min(L._G[i][i] for i in range(L.rank))
    # both signs of every minimizer are listed; keep the positive-led one
    return min(
        (n, r, c)
        for c, n in _short_vectors(L, start)
        for r in (_combine(c, L._rows),)
        if next(a for a in r if a) > 0
    )


def shortest_vector(L):
    """A nonzero lattice vector of minimal length, with its exact norm^2.

    Ties are broken by taking, among all minimizers normalized to have a
    positive first nonzero coordinate, the lexicographically smallest
    coordinate vector.
    """
    n, r, _ = L._minimum
    return _fractions(r, L._q), Fraction(n, L._q**2)


def _locate(L, v):
    """(r, c): v as an integer row r = q v (None if not integral) and c with
    c B = r (None if v is not in L).  c is Cramer's rule on G c = B r,
    floored: it recombines to r only if it is exact and r is in B's span."""
    v = tuple(map(Fraction, v))
    if len(v) != L.ambient:
        raise PreconditionError("vector has wrong ambient dimension")
    q = L._q
    if any(q % x.denominator for x in v):
        return None, None
    r = tuple(x.numerator * (q // x.denominator) for x in v)
    rhs = [dot(b, r) for b in L._rows]
    det = L._fp[0][-1][-1]
    c = tuple(
        det_int([g[:i] + (s,) + g[i + 1 :] for g, s in zip(L._G, rhs)]) // det
        for i in range(L.rank)
    )
    return r, (c if _combine(c, L._rows) == r else None)


def lattice_coefficients(L, v):
    """Integer coefficients of v in L's basis, or None if v is not in L."""
    return _locate(L, v)[1]


def complete_to_unimodular(coeffs):
    """Integer matrix with first row coeffs and determinant +-1.

    Requires gcd(coeffs) = 1.  The row is reduced to e_1 by column
    operations C, and C^-1, whose first row is coeffs, is built alongside
    by applying each step's inverse as integer row operations.
    """
    k = len(coeffs)
    if vec_gcd(coeffs) != 1:
        raise PreconditionError("coefficient vector is not primitive")
    r = list(coeffs)
    U = identity_int(k)
    for t in range(1, k):
        a, b = r[0], r[t]
        if b == 0:
            continue
        g, u, v = ext_gcd(a, b)
        aa, bb = a // g, b // g
        # columns (0, t) <- (u c0 + v ct, -bb c0 + aa ct), whose inverse
        # on rows (0, t) is [[aa, bb], [-v, u]]
        U[0], U[t] = (
            [aa * x + bb * y for x, y in zip(U[0], U[t])],
            [-v * x + u * y for x, y in zip(U[0], U[t])],
        )
        r[0], r[t] = g, 0
    if r[0] == -1:
        U[0] = [-x for x in U[0]]
    U = tuple(map(tuple, U))
    if abs(det_int(U)) != 1 or U[0] != tuple(coeffs):
        raise InvariantError("unimodular completion failed")
    return U


def _primitive_coefficients(L, v):
    """v as an integer row over L's q and its coefficients, primitive in L."""
    if L.rank < 2:
        raise PreconditionError("quotient needs rank >= 2")
    v, coeffs = _locate(L, v)
    if coeffs is None:
        raise PreconditionError("vector is not in the lattice")
    if all(c == 0 for c in coeffs):
        raise PreconditionError("cannot quotient by the zero vector")
    if vec_gcd(coeffs) != 1:
        raise PreconditionError("vector is not primitive in the lattice")
    return v, coeffs


def _quotient(L, v, x):
    """(L / Zv, U) for v = x B: rows u = U[i] B, i >= 1, of U =
    complete_to_unimodular(x), projected off v as (v.v) u - (u.v) v over q (v.v)."""
    U = complete_to_unimodular(x)
    vv = dot(v, v)
    rows = []
    for c in U[1:]:
        u = _combine(c, L._rows)
        uv = dot(u, v)
        rows.append(tuple(vv * a - uv * b for a, b in zip(u, v)))
    q = L._q * vv
    g = gcd(q, *(a for row in rows for a in row))
    return LatticeBasis._from_rows(tuple(tuple(a // g for a in row) for row in rows), q // g), U


def _lift(L, v, x, U, qc, wbar, wq):
    """Minimal lift of wbar / wq = sum qc_i Q_i in Q = L / Zv (see
    `_quotient`), as an integer row over L's q, with its coefficients
    sum qc_i U[i+1] + t x in L."""
    c0 = _combine(qc, U[1:])
    w0 = _combine(c0, L._rows)
    vv = dot(v, v)
    t0 = -dot(w0, v) // vv
    # the nearer of the two lifts, ties broken lexicographically
    n, w, coeffs = min(
        (dot(w, w), w, tuple(c + t * xc for c, xc in zip(c0, x)))
        for t in (t0, t0 + 1)
        for w in (tuple(a + t * b for a, b in zip(w0, v)),)
    )
    # |w|^2 <= |wbar|^2 + |v|^2 / 4, times 4 q^2 wq^2
    if 4 * n * wq**2 > 4 * dot(wbar, wbar) * L._q**2 + vv * wq**2:
        raise InvariantError("lift bound violated")
    return w, coeffs


def quotient(L, v):
    """L / Zv with the inner product induced on the orthogonal complement.

    v must be a primitive lattice vector; covolume multiplicativity
    covol_sq(L) = |v|^2 * covol_sq(L/Zv) then holds exactly.
    """
    v, x = _primitive_coefficients(L, v)
    return _quotient(L, v, x)[0]


def minimal_lift(L, v, wbar):
    """Shortest lattice vector of L projecting to wbar in L/Zv.

    Satisfies |w|^2 <= |wbar|^2 + |v|^2 / 4 exactly.  Ties between the
    two nearest lifts are broken lexicographically.
    """
    v, x = _primitive_coefficients(L, v)
    Q, U = _quotient(L, v, x)
    wbar, qc = _locate(Q, wbar)
    if qc is None:
        raise PreconditionError("wbar is not in the quotient lattice")
    return _fractions(_lift(L, v, x, U, qc, wbar, Q._q)[0], L._q)


def _greedy(L):
    """greedy_basis with integer rows over L's q, alpha_i^2 as (num, den)."""
    n1, v1, x = L._minimum
    rows, norms, coeffs = (v1,), ((n1, L._q**2),), (x,)
    if L.rank > 1:
        Q, U = _quotient(L, v1, x)
        sub_rows, sub_norms, sub_coeffs = _greedy(Q)
        for qc, wbar in zip(sub_coeffs, sub_rows):
            w, c = _lift(L, v1, x, U, qc, wbar, Q._q)
            rows += (w,)
            coeffs += (c,)
        norms += sub_norms
    if abs(det_int(coeffs)) != 1 or any(
        _combine(c, L._rows) != w for c, w in zip(coeffs, rows)
    ):
        raise InvariantError("greedy basis does not generate the lattice")
    return rows, norms, coeffs


def greedy_basis(L):
    """Greedy economical basis: shortest vector, then minimal lifts.

    The alpha sequence records alpha_i^2 = covol_sq(L_i / L_{i-1});
    alpha_1^2 is the squared minimum and prod alphas_sq = covol_sq(L).
    Each vector's coefficients are carried through the recursion: the
    quotient's basis comes from a unimodular completion of v_1's
    coefficients, so a lift's coefficients follow from its quotient
    coefficients.  The output generates L (its coefficient rows have
    det +-1 and recombine to its vectors), and
    |v_i|^2 <= alpha_i^2 + (alpha_1^2 + .. + alpha_{i-1}^2)/4.
    """
    rows, norms, coeffs = L._greedy_rows
    alphas_sq = tuple(Fraction(n, d) for n, d in norms)
    return GreedyBasis(tuple(_fractions(w, L._q) for w in rows), alphas_sq, coeffs)


def minbasis_sq(L):
    """Exact minimum of sum |v_i|^2 over all bases of L (rank <= 3).

    Enumerates coefficient vectors inside the ball given by the greedy
    upper bound and scans basis tuples; rank > 3 is rejected as a
    documented limitation.
    """
    if L.rank > 3:
        raise PreconditionError("minbasis_sq is exhaustive and limited to rank <= 3")
    q2 = L._q**2
    if L.rank == 1:
        return Fraction(L._G[0][0], q2)
    # the scan runs on row norms, integers over q^2; the greedy basis's sum
    # is the upper bound: its lift bounds make it at most (k+3)/4 sum alpha_i^2
    rows, _, _ = L._greedy_rows
    k = L.rank
    best = sum(dot(w, w) for w in rows)
    cap = best - (k - 1) * dot(rows[0], rows[0])
    # one sign of each primitive vector, the positive-led one
    items = sorted(
        (n, c)
        for c, n in _short_vectors(L, cap)
        if vec_gcd(c) == 1 and next(a for a in c if a) > 0
    )
    norms = [n for n, _ in items]
    vecs = [c for _, c in items]
    m = len(vecs)
    if k == 2:
        for i in range(m):
            if 2 * norms[i] > best:
                break
            for j in range(i + 1, m):
                s = norms[i] + norms[j]
                if s > best:
                    break
                a, b = vecs[i], vecs[j]
                if abs(a[0] * b[1] - a[1] * b[0]) == 1:
                    best = s
        return Fraction(best, q2)
    for i in range(m):
        if 3 * norms[i] > best:
            break
        for j in range(i + 1, m):
            if norms[i] + 2 * norms[j] > best:
                break
            a, b = vecs[i], vecs[j]
            cx = a[1] * b[2] - a[2] * b[1]
            cy = a[2] * b[0] - a[0] * b[2]
            cz = a[0] * b[1] - a[1] * b[0]
            if gcd(gcd(cx, cy), cz) != 1:
                continue
            base = norms[i] + norms[j]
            for l in range(j + 1, m):
                if base + norms[l] > best:
                    break
                c = vecs[l]
                if abs(cx * c[0] + cy * c[1] + cz * c[2]) == 1:
                    best = base + norms[l]
    return Fraction(best, q2)
