"""Dirichlet series prefixes, convolution, zeta evaluation, Abelian limits.

Series are finite prefixes with exact rational coefficients; every
operation states its dependence on the prefix and refuses to truncate
silently.  zeta is evaluated by Euler-Maclaurin with an implemented
remainder bound, giving 1e-12 absolute error on [1.001, 50].
"""

from fractions import Fraction
from math import factorial, fsum, log

from . import kernels
from .errors import K_CAP, BudgetExceededError, PreconditionError
from .linalg import bernoulli
from .report import Table


class DirichletSeries:
    """Prefix a_1..a_N of a series sum a_n n^(-s).

    Coefficients must be nonnegative rationals.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(Fraction(c) for c in coefficients)
        if not coeffs:
            raise PreconditionError("series prefix must be nonempty")
        if any(c < 0 for c in coeffs):
            raise PreconditionError("coefficients must be nonnegative")
        self.coefficients = coeffs

    def __len__(self):
        return len(self.coefficients)

    @classmethod
    def ones(cls, N):
        """Prefix of zeta: a_n = 1."""
        return cls((1,) * N)

    @classmethod
    def shifted(cls, N):
        """Prefix of zeta(s - 1): a_n = n."""
        return cls(range(1, N + 1))


def convolve(f, g, N):
    """Dirichlet product prefix: c_n = sum over d | n of a_d b_{n/d}, exact."""
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


_ZETA_TOL = 1e-12
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


def riemann_zeta(s):
    """zeta(s) for real s > 1 with absolute error below _ZETA_TOL = 1e-12.

    Euler-Maclaurin: sum_{n < M} n^(-s) + M^(1-s)/(s-1) + M^(-s)/2 plus
    J Bernoulli corrections; with M = 32, J = 10 the remainder term is
    below 1e-32 throughout [1.001, 16], and M doubles in the (untested
    in that range) event the bound exceeds half the tolerance.  Large s
    uses the direct sum with the integral tail bound.
    """
    try:
        s = float(s)
    except OverflowError:
        raise PreconditionError("|s| is too large for a float") from None
    if s <= 1:
        raise PreconditionError("zeta is evaluated for s > 1 only")
    if s >= 16:
        terms = []
        n = 0
        while True:
            n += 1
            terms.append(float(n) ** -s)
            if float(n) ** (1.0 - s) / (s - 1.0) <= _ZETA_TOL / 2:
                return fsum(terms)
    M, J = _EM_M, _EM_J
    while _em_remainder(s, M, J) > _ZETA_TOL / 2:
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
    """zeta(2) zeta(3) ... zeta(k) / k for k <= errors.K_CAP; k = 1 gives 1."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if k > K_CAP:
        raise BudgetExceededError(f"volume constant capped at k <= {K_CAP}")
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
    """(sup, argmax) of the normalized sigma-summatory error over T <= T_max.

    The first maximizer wins.  Peak memory is sigma_cumsum's 8 (T_max + 1)
    bytes plus a few float arrays of kernels._CHUNK elements: the error
    is evaluated one chunk of T at a time.
    """
    if T_max < 1:
        raise PreconditionError("T_max must be >= 1")
    import numpy as np

    cs = kernels.sigma_cumsum(T_max)
    z2 = riemann_zeta(2)
    step = kernels._CHUNK
    sup, arg = -1.0, 0
    for lo in range(1, T_max + 1, step):
        hi = min(lo + step, T_max + 1)
        t = np.arange(lo, hi, dtype=np.float64)
        e = cs[lo:hi].astype(np.float64) - z2 * t * t / 2.0
        norm = np.abs(e) / (t * (1.0 + np.log(t)))
        i = int(np.argmax(norm))
        if norm[i] > sup:
            sup, arg = float(norm[i]), lo + i
    return sup, arg


def abelian_limit(k, s_list):
    """Table of (s, (s - k) psi(s)) as s decreases to the pole at k.

    psi is subgroup_zeta(k, .), whose scaled values approach
    zeta(2)...zeta(k).  k is capped at errors.K_CAP.
    """
    if k < 1:
        raise PreconditionError("rank k must be >= 1")
    if k > K_CAP:
        raise BudgetExceededError(f"abelian limit capped at k <= {K_CAP}")
    svals = [float(s) for s in s_list]
    if any(s <= k for s in svals):
        raise PreconditionError("s must stay in the convergence region s > k")
    if any(svals[i] <= svals[i + 1] for i in range(len(svals) - 1)):
        raise PreconditionError("s_list must decrease toward the pole")
    rows = []
    for s in svals:
        rows.append((s, (s - k) * subgroup_zeta(k, s)))
    return Table("abelian_limit", ("s", "scaled"), rows, {"k": k})
