"""Exact lattice arithmetic.

Lattices are free abelian groups of rank k given by a rational basis in
an ambient rational space of dimension >= k, with the standard inner
product.  All stored quantities are squared and exact (Fractions, and
the scaled integer Gram minors the enumeration runs on); square roots
appear only in display helpers.  Quotient lattices are
realized by exact orthogonal projection, which is why the ambient
dimension may exceed the rank.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .errors import InvariantError, PreconditionError
from .linalg import (
    det_int,
    dot,
    ext_gcd,
    frac_vector,
    gram_matrix,
    identity_int,
    ldl_fraction_free,
    solve_fraction,
    vec_gcd,
)


class LatticeBasis:
    """Basis of a rank-k lattice with cached exact Gram matrix.

    With s the lcm of the Gram denominators, the scaled Gram matrix s G
    has leading minors D_i and fraction-free L D L^T rows U.  `covol_sq`
    is det G = D_k / s^k.  `_fp` caches the integer data of the
    Fincke-Pohst enumeration: the norm of coefficients x is
    sum_i (U x)_i^2 / (D_i D_(i+1)) / s, which over the common
    denominator W = lcm_i D_i D_(i+1) is sum_i w_i (U x)_i^2 / (s W)
    with integer multipliers w_i = W / (D_i D_(i+1)).
    """

    __slots__ = ("rank", "ambient", "vectors", "gram", "covol_sq", "_fp")

    def __init__(self, vectors):
        vecs = tuple(frac_vector(v) for v in vectors)
        if not vecs:
            raise PreconditionError("a lattice basis needs at least one vector")
        ambient = len(vecs[0])
        if any(len(v) != ambient for v in vecs):
            raise PreconditionError("basis vectors have mixed ambient dimensions")
        if len(vecs) > ambient:
            raise PreconditionError("more vectors than ambient dimension")
        self.rank = len(vecs)
        self.ambient = ambient
        self.vectors = vecs
        self.gram = gram_matrix(vecs)
        s = lcm(*(x.denominator for row in self.gram for x in row))
        scaled = [[x.numerator * (s // x.denominator) for x in row] for row in self.gram]
        try:
            deltas, U = ldl_fraction_free(scaled)
        except ValueError:
            raise PreconditionError("basis vectors are linearly dependent") from None
        self.covol_sq = Fraction(deltas[-1], s**self.rank)
        pairs = [deltas[i] * deltas[i + 1] for i in range(self.rank)]
        W = lcm(*pairs)
        self._fp = (U, tuple(W // p for p in pairs), s * W)

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


def iter_short_coefficient_vectors(L, bound):
    """Every nonzero integer coefficient vector c with |sum c_i b_i|^2 <= bound.

    Exact Fincke-Pohst style enumeration on the scaled integer Gram
    minors; both signs of every vector are produced, one at a time, so a
    caller may stop early.  Yields (coeffs, norm_sq) with norm_sq a
    Fraction.
    """
    bound = Fraction(bound)
    if bound <= 0:
        return
    U, mults, scale = L._fp
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
                    yield tuple(x), Fraction(acc + contrib, scale)
            else:
                yield from rec(i - 1, rem - contrib, acc + contrib)
        x[i] = 0

    yield from rec(k - 1, bound.numerator * scale // bound.denominator, 0)


def short_coefficient_vectors(L, bound):
    """The list of `iter_short_coefficient_vectors(L, bound)`."""
    return list(iter_short_coefficient_vectors(L, bound))


def _canonical_sign(coeffs):
    for c in coeffs:
        if c > 0:
            return tuple(coeffs)
        if c < 0:
            return tuple(-y for y in coeffs)
    return tuple(coeffs)


def _coeffs_to_vector(L, coeffs):
    return tuple(
        sum(Fraction(c) * L.vectors[i][a] for i, c in enumerate(coeffs))
        for a in range(L.ambient)
    )


def _shortest(L):
    """shortest_vector's (vector, norm^2) and the vector's coefficients."""
    start = min(L.gram[i][i] for i in range(L.rank))
    cands = short_coefficient_vectors(L, start)
    best = min(n for _, n in cands)
    # both signs of every minimizer are listed; keep the canonical one
    found = []
    for coeffs, n in cands:
        if n == best:
            v = _coeffs_to_vector(L, coeffs)
            if v == _canonical_sign(v):
                found.append((v, coeffs))
    v, x = min(found)
    return v, best, x


def shortest_vector(L):
    """A nonzero lattice vector of minimal length, with its exact norm^2.

    Ties are broken by taking, among all minimizers normalized to have a
    positive first nonzero coordinate, the lexicographically smallest
    coordinate vector.
    """
    v, n, _ = _shortest(L)
    return v, n


def lattice_coefficients(L, v):
    """Integer coefficients of v in L's basis, or None if v is not in L."""
    v = frac_vector(v)
    if len(v) != L.ambient:
        raise PreconditionError("vector has wrong ambient dimension")
    rhs = [dot(L.vectors[i], v) for i in range(L.rank)]
    sol = solve_fraction(L.gram, rhs)
    coeffs = []
    for c in sol:
        if c.denominator != 1:
            return None
        coeffs.append(c.numerator)
    # the solve only matches inner products; confirm the vector itself
    if _coeffs_to_vector(L, coeffs) != v:
        return None
    return tuple(coeffs)


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
    """v as Fractions and its coefficients, checked primitive in L (rank >= 2)."""
    if L.rank < 2:
        raise PreconditionError("quotient needs rank >= 2")
    v = frac_vector(v)
    coeffs = lattice_coefficients(L, v)
    if coeffs is None:
        raise PreconditionError("vector is not in the lattice")
    if all(c == 0 for c in coeffs):
        raise PreconditionError("cannot quotient by the zero vector")
    if vec_gcd(coeffs) != 1:
        raise PreconditionError("vector is not primitive in the lattice")
    return v, coeffs


def _quotient(L, v, x):
    """(L / Zv, U) for v with coefficients x: the quotient's basis is rows
    1..k-1 of U = complete_to_unimodular(x) projected orthogonally to v."""
    U = complete_to_unimodular(x)
    vv = dot(v, v)
    projected = []
    for row in U[1:]:
        u = _coeffs_to_vector(L, row)
        t = dot(u, v) / vv
        projected.append(tuple(ua - t * va for ua, va in zip(u, v)))
    return LatticeBasis(projected), U


def _lift(L, v, x, U, qc, wbar):
    """Minimal lift of wbar = sum qc_i Q_i in Q = L / Zv (see `_quotient`),
    with its coefficients sum qc_i U[i+1] + t x in L."""
    c0 = [sum(q * U[i + 1][j] for i, q in enumerate(qc)) for j in range(L.rank)]
    w0 = _coeffs_to_vector(L, c0)
    vv = dot(v, v)
    tstar = -dot(w0, v) / vv
    tf = tstar.numerator // tstar.denominator
    cands = []
    for t in (tf, tf + 1):
        w = tuple(wa + t * va for wa, va in zip(w0, v))
        cands.append((dot(w, w), w, tuple(c + t * xc for c, xc in zip(c0, x))))
    nmin = min(n for n, _, _ in cands)
    n, w, coeffs = min(c for c in cands if c[0] == nmin)
    if n > dot(wbar, wbar) + vv / 4:
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
    wbar = frac_vector(wbar)
    qc = lattice_coefficients(Q, wbar)
    if qc is None:
        raise PreconditionError("wbar is not in the quotient lattice")
    return _lift(L, v, x, U, qc, wbar)[0]


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
    v1, n1, x = _shortest(L)
    vectors, alphas_sq, coeffs = (v1,), (n1,), (x,)
    if L.rank > 1:
        Q, U = _quotient(L, v1, x)
        sub = greedy_basis(Q)
        for qc, wbar in zip(sub.coeffs, sub.vectors):
            w, c = _lift(L, v1, x, U, qc, wbar)
            vectors += (w,)
            coeffs += (c,)
        alphas_sq += sub.alphas_sq
    if abs(det_int(coeffs)) != 1 or any(
        _coeffs_to_vector(L, c) != w for c, w in zip(coeffs, vectors)
    ):
        raise InvariantError("greedy basis does not generate the lattice")
    return GreedyBasis(vectors=vectors, alphas_sq=alphas_sq, coeffs=coeffs)


def minbasis_sq(L):
    """Exact minimum of sum |v_i|^2 over all bases of L (rank <= 3).

    Enumerates coefficient vectors inside the ball given by the greedy
    upper bound and scans basis tuples; rank > 3 is rejected as a
    documented limitation.
    """
    if L.rank > 3:
        raise PreconditionError("minbasis_sq is exhaustive and limited to rank <= 3")
    if L.rank == 1:
        return L.gram[0][0]
    g = greedy_basis(L)
    k = L.rank
    upper = min(
        sum(dot(w, w) for w in g.vectors),
        Fraction(k + 3, 4) * sum(g.alphas_sq),
    )
    lam1 = g.alphas_sq[0]
    cap = upper - (k - 1) * lam1
    cands = {}
    for coeffs, n in short_coefficient_vectors(L, cap):
        if vec_gcd(coeffs) != 1:
            continue
        cands[_canonical_sign(coeffs)] = n
    items = sorted(cands.items(), key=lambda cn: (cn[1], cn[0]))
    vecs = [c for c, _ in items]
    norms = [n for _, n in items]
    m = len(vecs)
    best = upper
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
        return best
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
    return best
