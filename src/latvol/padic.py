"""Exact local densities at primes and the global product over them.

Everything except the final float product is an exact rational: unit
densities of matrix groups mod p, local zeta factors from p-power-index
sublattices, the telescoping local identity, and the finite-level
singular-set density.  tamagawa_partial multiplies the exact prime
product into zeta values and is the one float-valued quantity.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

from .dirichlet import riemann_zeta
from .errors import (
    CELL_DIGITS,
    K_CAP,
    BudgetExceededError,
    InvariantError,
    PreconditionError,
)
from .linalg import det_int

_SIEVE_CAP = 1_000_000
_ENUM_BUDGET = 200_000
# tamagawa_partial's bound on the bits of its exact prime products:
# (3, 10^5) needs about 10^6, (50, 10^4) about 2.2 * 10^7
_PRODUCT_BITS = 20_000_000


def is_prime(n):
    """Primality by `index_local_factors`' trial division (capped at 10^12)."""
    return n >= 2 and index_local_factors(n) == {n: n}


def _require_k(k, least):
    """Refuse k < least (exit 3), then k > errors.K_CAP (exit 4); callers
    check their other arguments first, so those refusals keep exit 3."""
    if k < least:
        raise PreconditionError(f"k must be >= {least}")
    if k > K_CAP:
        raise BudgetExceededError(f"p-adic products capped at k <= {K_CAP}")


def _require(k, p):
    """The argument check of every entry point taking a prime p and k >= 1."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    _require_k(k, 1)


def primes_up_to(n):
    """All primes <= n by a byte sieve; cutoffs beyond 10^6 are rejected."""
    if n > _SIEVE_CAP:
        raise BudgetExceededError(f"prime cutoff capped at {_SIEVE_CAP}")
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(2, n + 1) if flags[i]]


def _unit_terms(p, lo, hi):
    """(prod_{i=lo..hi} (p^i - 1), p^(lo + ... + hi)), a coprime pair.

    Their quotient is prod_{i=lo..hi} (1 - p^-i); p divides no p^i - 1.
    """
    return prod(p**i - 1 for i in range(lo, hi + 1)), p ** ((lo + hi) * (hi - lo + 1) // 2)


def gl_density(k, p):
    """Density of invertible matrices: (1 - p^-1)(1 - p^-2)...(1 - p^-k)."""
    _require(k, p)
    return Fraction(*_unit_terms(p, 1, k))


def _det_counts(k, p, n):
    """Counter of det mod p^n over all p^(n k^2) k x k matrices over Z/p^n.

    Refused past _ENUM_BUDGET matrices; as p >= 2, that holds once n k^2
    reaches the budget's bit length, which is tested before the power.
    """
    if n * k * k >= _ENUM_BUDGET.bit_length() or p ** (n * k * k) > _ENUM_BUDGET:
        raise BudgetExceededError(f"enumeration capped at p^(n k^2) <= {_ENUM_BUDGET}")
    q = p**n
    return Counter(
        det_int(tuple(e[i * k : (i + 1) * k] for i in range(k))) % q
        for e in product(range(q), repeat=k * k)
    )


def gl_count_modp(k, p, method="formula"):
    """#Gl_k(F_p), by the column-count formula or exhaustive enumeration."""
    if method not in ("formula", "enumeration"):
        raise PreconditionError(f"unknown method {method!r}")
    _require(k, p)
    if method == "formula":
        return prod(p**k - p**i for i in range(k))
    return p ** (k * k) - _det_counts(k, p, 1)[0]


def sl_count_modp(k, p, method="formula"):
    """#Sl_k(F_p) = #Gl_k(F_p) / (p - 1), with an enumeration cross-check mode."""
    if method not in ("formula", "enumeration"):
        raise PreconditionError(f"unknown method {method!r}")
    _require(k, p)
    if method == "formula":
        n = gl_count_modp(k, p)
        if n % (p - 1):
            raise InvariantError("unit determinants must split evenly")
        return n // (p - 1)
    return _det_counts(k, p, 1)[1]


def sl_density(k, p):
    """(1 - p^-2)...(1 - p^-k) = #Sl_k(F_p) / p^(k^2 - 1); empty product at k = 1."""
    _require(k, p)
    return Fraction(*_unit_terms(p, 2, k))


def local_zeta(k, p, s):
    """Sum of [Z_p^k : J]^(-s) over finite-index J, as an exact rational.

    Equals 1/((1 - p^(k-1-s)) ... (1 - p^(-s))); integer s > k - 1 keeps
    every factor a finite rational.  s is capped at errors.K_CAP like k.
    """
    if not isinstance(s, int) or isinstance(s, bool):
        raise PreconditionError("exactness needs integer s")
    if s <= k - 1:
        raise PreconditionError("the product diverges for s <= k - 1")
    _require(k, p)
    if s > K_CAP:
        raise BudgetExceededError(f"local zeta capped at s <= {K_CAP}")
    num, den = _unit_terms(p, s - k + 1, s)
    return Fraction(den, num)


def local_tamagawa_check(k, p):
    """local_zeta(k, p, k) * gl_density(k, p); anything but 1 is a failure."""
    v = local_zeta(k, p, k) * gl_density(k, p)
    if v != 1:
        raise InvariantError(f"local product at k={k}, p={p} gave {v}, not 1")
    return v


def singular_density(k, p, n):
    """Fraction of k x k matrices over Z/p^n with det divisible by p^n.

    Exhaustive only (there is no formula mode); the value is bounded by
    k * p^(-n).
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    _require(k, p)
    return Fraction(_det_counts(k, p, n)[0], p ** (n * k * k))


def index_local_factors(A):
    """Prime factorization {p: p-part} of the index det A.

    Accepts a triangular basis object, a square integer matrix, or the
    index itself; the factors multiply back to the index exactly.
    """
    if isinstance(A, int):
        d = A
    elif hasattr(A, "det"):
        d = A.det
    else:
        d = det_int(tuple(tuple(int(x) for x in row) for row in A))
    if d <= 0:
        raise PreconditionError("index must be positive")
    if d > 10**12:
        raise BudgetExceededError("trial division capped at 10^12")
    out = {}
    m = d
    f = 2
    while f * f <= m:
        if m % f == 0:
            q = 1
            while m % f == 0:
                m //= f
                q *= f
            out[f] = q
        f += 1 if f == 2 else 2
    if m > 1:
        out[m] = m
    if prod(out.values(), start=1) != d:
        raise InvariantError("factor product does not recover the index")
    return out


def _tree_prod(items):
    items = list(items)
    if not items:
        return 1
    while len(items) > 1:
        pairs = [a * b for a, b in zip(items[::2], items[1::2])]
        if len(items) % 2:
            pairs.append(items[-1])
        items = pairs
    return items[0]


def tamagawa_partial(k, P):
    """prod_{j=2..k} zeta(j) * prod_{p <= P} (1 - p^-j); approaches 1 from above.

    The prime product is computed as one exact integer pair per j, whose
    quotient num / den is the correctly rounded float, so error comes
    only from zeta and the final products.  The pairs' sizes add up to
    at most k(k+1)/2 * pi(P) * P.bit_length() bits; past _PRODUCT_BITS
    the call is refused before any product is built.
    """
    if P < 2:
        raise PreconditionError("P must be >= 2")
    _require_k(k, 2)
    ps = primes_up_to(P)
    if k * (k + 1) // 2 * len(ps) * P.bit_length() > _PRODUCT_BITS:
        raise BudgetExceededError(f"prime products capped at {_PRODUCT_BITS} bits")
    value = 1.0
    for j in range(2, k + 1):
        num = _tree_prod([p**j - 1 for p in ps])
        den = _tree_prod([p**j for p in ps])
        value *= riemann_zeta(j) * (num / den)
    return value


def tamagawa_factors_table(k, P):
    """Rows (p, factor, running product) for convergence plots.

    factor is sl_density(k, p) built from its integer terms; the sieve
    already vouches that p is prime.  The running product multiplies in
    num / den, the correctly rounded float of the factor.  The longest
    cell is the last factor, whose numerator is below its denominator
    p^(k(k+1)/2 - 1), so a table that report could not print is refused
    before any factor is built.
    """
    from .report import Table

    if P < 2:
        raise PreconditionError("P must be >= 2")
    _require_k(k, 2)
    ps = primes_up_to(P)
    if ps[-1] ** (k * (k + 1) // 2 - 1) >= 10**CELL_DIGITS:
        raise BudgetExceededError(f"integer cell longer than {CELL_DIGITS} digits")
    running = 1.0
    for j in range(2, k + 1):
        running *= riemann_zeta(j)
    rows = []
    for p in ps:
        num, den = _unit_terms(p, 2, k)
        running *= num / den
        rows.append((p, Fraction(num, den), running))
    return Table("tamagawa", ("p", "factor", "partial_product"), rows, {"k": k})
