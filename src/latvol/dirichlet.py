"""Dirichlet series prefixes, convolution, zeta evaluation, Abelian limits.

Series are finite prefixes with exact rational coefficients; every
operation states its dependence on the prefix and refuses to truncate
silently.  zeta is evaluated by Euler-Maclaurin with an implemented
remainder bound, giving 1e-12 absolute error on [1.001, 50].
"""

import csv
from fractions import Fraction
from math import factorial, floor, fsum, log

import numpy as np

from . import kernels
from .errors import PreconditionError
from .linalg import bernoulli
from .report import Table


class DirichletSeries:
    """Prefix a_1..a_N of a series sum a_n lambda_n^(-s).

    Coefficients must be nonnegative rationals; weights, when given,
    must be nondecreasing with lambda_1 >= 1 (default lambda_n = n).
    """

    __slots__ = ("coefficients", "weights")

    def __init__(self, coefficients, weights=None):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if not coeffs:
            raise PreconditionError("series prefix must be nonempty")
        if any(c < 0 for c in coeffs):
            raise PreconditionError("coefficients must be nonnegative")
        if weights is not None:
            weights = tuple(Fraction(w) for w in weights)
            if len(weights) != len(coeffs):
                raise PreconditionError("one weight per coefficient")
            if weights[0] < 1:
                raise PreconditionError("weights must start at 1 or above")
            if any(weights[i] > weights[i + 1] for i in range(len(weights) - 1)):
                raise PreconditionError("weights must be nondecreasing")
        self.coefficients = coeffs
        self.weights = weights

    def __len__(self):
        return len(self.coefficients)

    def a(self, n):
        return self.coefficients[n - 1]

    @classmethod
    def ones(cls, N):
        """Prefix of zeta: a_n = 1."""
        return cls((1,) * N)

    @classmethod
    def shifted(cls, N):
        """Prefix of zeta(s - 1): a_n = n."""
        return cls(range(1, N + 1))

    @classmethod
    def delta(cls, N):
        """Convolution identity: a_1 = 1, the rest 0."""
        return cls([1] + [0] * (N - 1))

    @classmethod
    def from_csv(cls, path):
        """Load a two-column CSV (n, a_n) with n = 1..N in order."""
        coeffs = []
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                if not coeffs and not row[0].strip().lstrip("-").isdigit():
                    continue  # header row
                if len(row) != 2:
                    raise PreconditionError("expected two columns (n, a_n)")
                n = int(row[0])
                if n != len(coeffs) + 1:
                    raise PreconditionError(f"rows must run n = 1..N, got {n}")
                coeffs.append(Fraction(row[1]))
        return cls(coeffs)


def summatory(f, T):
    """Exact partial sum A(T) = sum of a_n with lambda_n <= T."""
    T = Fraction(T)
    if f.weights is None:
        if T > len(f):
            raise PreconditionError("T beyond the stored prefix")
        return sum(f.coefficients[: floor(T)], Fraction(0))
    if T > f.weights[-1]:
        raise PreconditionError("T beyond the stored prefix")
    return sum(
        (a for a, lam in zip(f.coefficients, f.weights) if lam <= T), Fraction(0)
    )


def convolve(f, g, N):
    """Dirichlet product prefix: c_n = sum over d | n of a_d b_{n/d}, exact."""
    if f.weights is not None or g.weights is not None:
        raise PreconditionError("convolution assumes the default weights")
    if len(f) < N or len(g) < N:
        raise PreconditionError("prefixes shorter than N")
    c = [Fraction(0)] * (N + 1)
    for d in range(1, N + 1):
        ad = f.coefficients[d - 1]
        if not ad:
            continue
        for m in range(d, N + 1, d):
            c[m] += ad * g.coefficients[m // d - 1]
    return DirichletSeries(c[1:])


def dirichlet_psi(f, s):
    """Float evaluation of the prefix: sum a_n lambda_n^(-s)."""
    s = float(s)
    if f.weights is None:
        return fsum(
            float(a) * float(n) ** -s
            for n, a in enumerate(f.coefficients, start=1)
            if a
        )
    return fsum(
        float(a) * float(lam) ** -s for a, lam in zip(f.coefficients, f.weights) if a
    )


_EM_M = 32
_EM_J = 10
# B_{2j} / (2j)! for the correction terms and the remainder bound
_B_OVER_FACT = [0.0] + [
    float(bernoulli(2 * j) / factorial(2 * j)) for j in range(1, _EM_J + 2)
]


def _em_remainder(s, M, J):
    # first omitted term bounds the remainder for real s > 0
    rise = 1.0
    for i in range(2 * J + 1):
        rise *= s + i
    return abs(_B_OVER_FACT[J + 1]) * rise * M ** (-s - 2 * J - 1)


def riemann_zeta(s, eps=1e-12):
    """zeta(s) for real s > 1 with absolute error below eps.

    Euler-Maclaurin: sum_{n < M} n^(-s) + M^(1-s)/(s-1) + M^(-s)/2 plus
    J Bernoulli corrections; with M = 32, J = 10 the remainder term is
    below 1e-32 throughout [1.001, 16], and M doubles in the (untested
    in that range) event the bound exceeds eps/2.  Large s uses the
    direct sum with the integral tail bound.
    """
    s = float(s)
    if s <= 1:
        raise PreconditionError("zeta is evaluated for s > 1 only")
    if s >= 16:
        terms = []
        n = 0
        while True:
            n += 1
            terms.append(float(n) ** -s)
            if float(n) ** (1.0 - s) / (s - 1.0) <= eps / 2:
                return fsum(terms)
    M, J = _EM_M, _EM_J
    while _em_remainder(s, M, J) > eps / 2:
        M *= 2
    terms = [float(n) ** -s for n in range(1, M)]
    terms.append(M ** (1.0 - s) / (s - 1.0))
    terms.append(0.5 * M**-s)
    rise = s
    for j in range(1, J + 1):
        terms.append(_B_OVER_FACT[j] * rise * float(M) ** (-s - 2 * j + 1))
        rise *= (s + 2 * j - 1) * (s + 2 * j)
    return fsum(terms)


def subgroup_zeta(k, s):
    """zeta(s) zeta(s-1) ... zeta(s-k+1), the sublattice-count series of Z^k."""
    s = float(s)
    if s <= k:
        raise PreconditionError("the product converges only for s > k")
    v = 1.0
    for i in range(k):
        v *= riemann_zeta(s - i)
    return v


def volume_constant(k):
    """zeta(2) zeta(3) ... zeta(k) / k; the empty product makes k = 1 give 1."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    v = 1.0
    for j in range(2, k + 1):
        v *= riemann_zeta(j)
    return v / k


def sigma_summatory(T):
    """Sum of sigma(n) for n <= T, exactly, by the hyperbola method."""
    if T < 0:
        raise PreconditionError("T must be nonnegative")
    total = 0
    d = 1
    while d <= T:
        q = T // d
        dmax = T // q
        total += q * (dmax * (dmax + 1) // 2 - (d - 1) * d // 2)
        d = dmax + 1
    return total


def product_error_table(T_list):
    """Rows (T, E(T), |E(T)| / (T (1 + log T))) for the sigma summatory.

    E(T) = sum_{n <= T} sigma(n) - zeta(2) T^2 / 2; the normalized
    column staying bounded is the observed O(T log T) error regime.
    """
    z2 = riemann_zeta(2)
    rows = []
    for T in T_list:
        T = int(T)
        if T < 1:
            raise PreconditionError("T must be >= 1")
        e = float(sigma_summatory(T)) - z2 * T * T / 2.0
        rows.append((T, e, abs(e) / (T * (1.0 + log(T)))))
    return Table("product_error", ("T", "error", "normalized"), rows)


def product_error_scan(T_max):
    """(sup, argmax) of the normalized sigma-summatory error over T <= T_max."""
    if T_max < 1:
        raise PreconditionError("T_max must be >= 1")
    cs = kernels.sigma_cumsum(T_max)
    z2 = riemann_zeta(2)
    t = np.arange(1, T_max + 1, dtype=np.float64)
    e = cs[1:].astype(np.float64) - z2 * t * t / 2.0
    norm = np.abs(e) / (t * (1.0 + np.log(t)))
    i = int(np.argmax(norm))
    return float(norm[i]), i + 1


def abelian_limit(k, s_list, series=None):
    """Table of (s, (s - k) psi(s)) as s decreases to the pole at k.

    psi defaults to subgroup_zeta(k, .), whose scaled values approach
    zeta(2)...zeta(k); an explicit series prefix is evaluated instead
    when given.
    """
    if k < 1:
        raise PreconditionError("rank k must be >= 1")
    svals = [float(s) for s in s_list]
    if any(s <= k for s in svals):
        raise PreconditionError("s must stay in the convergence region s > k")
    if any(svals[i] <= svals[i + 1] for i in range(len(svals) - 1)):
        raise PreconditionError("s_list must decrease toward the pole")
    rows = []
    for s in svals:
        psi = subgroup_zeta(k, s) if series is None else dirichlet_psi(series, s)
        rows.append((s, (s - k) * psi))
    return Table("abelian_limit", ("s", "scaled"), rows, {"k": k})
