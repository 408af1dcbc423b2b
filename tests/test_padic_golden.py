"""Golden digest of the p-adic layer's outputs.

The exact densities, local zeta factors and local identities for small
primes and ranks, both modes of the Gl_k/Sl_k counts, the singular-set
densities, the primality test and the short-vector counts are rendered
with repr (which shows values and types) and hashed.  A refusal is
recorded by its error type, so the digest pins which inputs are refused
but not the wording of the message.
"""

import hashlib

from latvol.errors import LatvolError
from latvol.hnf import count_with_short_vector
from latvol.padic import (
    gl_count_modp,
    gl_density,
    is_prime,
    local_tamagawa_check,
    local_zeta,
    singular_density,
    sl_count_modp,
    sl_density,
)

GOLDEN_SHA256 = "13791266dab1dc19afc222da7b0c06eca8b73ed9fdc7410736027d9a3506d2f5"
GOLDEN_LINES = 535

PRIMES = (2, 3, 5, 7, 97)
SINGULAR_GRID = ((2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 2, 1))
SHORT_CASES = (
    (2, 5, 1),
    (2, 5, 4),
    (2, 7, 2),
    (2, 10, 3),
    (2, "7/2", "3/2"),
    (3, 2, 1),
    (3, 3, 2),
    (3, "5/2", 1),
)


def _call(f, *args):
    try:
        return repr(f(*args))
    except LatvolError as e:
        return type(e).__name__


def _lines():
    for p in PRIMES:
        for k in range(1, 9):
            yield _call(gl_density, k, p)
            yield _call(sl_density, k, p)
            for s in range(k, k + 6):
                yield _call(local_zeta, k, p, s)
            yield _call(local_tamagawa_check, k, p)
            for method in ("formula", "enumeration"):
                yield _call(gl_count_modp, k, p, method)
                yield _call(sl_count_modp, k, p, method)
    for k, p, n in SINGULAR_GRID:
        yield _call(singular_density, k, p, n)
    yield repr([n for n in range(-2, 2000) if is_prime(n)])
    for args in SHORT_CASES:
        yield _call(count_with_short_vector, *args)


def test_padic_outputs_match_golden_digest():
    lines = list(_lines())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == GOLDEN_LINES
    assert digest == GOLDEN_SHA256
