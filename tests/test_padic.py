from fractions import Fraction
from math import gcd

import pytest

from latvol.dirichlet import riemann_zeta
from latvol.errors import K_CAP, BudgetExceededError, PreconditionError
from latvol.padic import (
    gl_count_modp,
    gl_density,
    index_local_factors,
    is_prime,
    local_tamagawa_check,
    local_zeta,
    primes_up_to,
    singular_density,
    sl_count_modp,
    sl_density,
    tamagawa_factors_table,
    tamagawa_partial,
)
from latvol.report import render


def test_prime_utilities():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(100)) == 25
    with pytest.raises(BudgetExceededError):
        primes_up_to(10**7)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: gl_density(k, 2),
        lambda k: sl_density(k, 2),
        lambda k: gl_count_modp(k, 2),
        lambda k: gl_count_modp(k, 2, method="enumeration"),
        lambda k: sl_count_modp(k, 2),
        lambda k: sl_count_modp(k, 2, method="enumeration"),
        lambda k: local_zeta(k, 2, k),
        lambda k: local_tamagawa_check(k, 2),
        lambda k: singular_density(k, 2, 1),
        lambda k: tamagawa_partial(k, 3),
        lambda k: tamagawa_factors_table(k, 3),
    ],
)
def test_entry_points_share_the_k_cap(call):
    with pytest.raises(BudgetExceededError):
        call(K_CAP + 1)
    with pytest.raises(BudgetExceededError):
        call(10**6)


def test_caps_on_s_and_p():
    assert local_zeta(K_CAP, 2, K_CAP) * gl_density(K_CAP, 2) == 1
    with pytest.raises(BudgetExceededError):
        local_zeta(2, 3, K_CAP + 1)
    # primality is decided by trial division, which stops at 10^12
    assert is_prime(999_999_999_989)
    with pytest.raises(BudgetExceededError):
        is_prime(10**12 + 39)
    with pytest.raises(BudgetExceededError):
        gl_density(2, 10**18 + 3)


def test_gl_density_formula():
    assert gl_density(2, 2) == Fraction(3, 8)
    assert gl_density(2, 3) == Fraction(16, 27)
    assert gl_density(1, 5) == Fraction(4, 5)
    # prod over j of (1 - p^-j), written out for k = 3
    assert gl_density(3, 2) == Fraction(1, 2) * Fraction(3, 4) * Fraction(7, 8)


def test_gl_count_formula_vs_enumeration():
    for p in (2, 3):
        f = gl_count_modp(2, p, method="formula")
        e = gl_count_modp(2, p, method="enumeration")
        assert f == e
        assert Fraction(f, p**4) == gl_density(2, p)
    assert gl_count_modp(2, 2) == 6
    assert gl_count_modp(2, 3) == 48


def test_sl_count_formula_vs_enumeration():
    for p in (2, 3):
        assert sl_count_modp(2, p, method="formula") == sl_count_modp(
            2, p, method="enumeration"
        )
    assert sl_count_modp(3, 2, method="formula") == 168
    assert sl_count_modp(3, 2, method="enumeration") == 168


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        gl_count_modp(3, 7, method="enumeration")  # 7^9 states


def test_sl_density_formula():
    assert sl_density(2, 2) == Fraction(3, 4)
    assert sl_density(3, 2) == Fraction(21, 32)
    assert sl_density(2, 5) == Fraction(24, 25)
    # sl_density checks k and p; tamagawa_factors_table takes its primes
    # from the sieve and builds the same value from integer terms
    for k, p in ((2, 4), (0, 2)):
        with pytest.raises(PreconditionError):
            sl_density(k, p)


def test_local_zeta_values():
    assert local_zeta(2, 2, 2) == Fraction(8, 3)
    # k = 1: single factor (1 - p^-s)^-1
    assert local_zeta(1, 3, 2) == Fraction(9, 8)
    with pytest.raises(PreconditionError):
        local_zeta(2, 2, 1)  # pole at s = k - 1
    with pytest.raises(PreconditionError):
        local_zeta(2, 2, True)


def test_local_tamagawa_identity_spot():
    for k, p in ((2, 2), (2, 3), (3, 2), (4, 5), (5, 97), (6, 13)):
        assert local_tamagawa_check(k, p) == 1


def test_singular_density_values():
    assert singular_density(2, 2, 1) == Fraction(5, 8)
    assert singular_density(2, 2, 2) == Fraction(11, 32)
    assert singular_density(2, 3, 1) == Fraction(11, 27)
    for n in (1, 2):
        assert singular_density(2, 2, n) <= 2 * Fraction(1, 2**n)
    with pytest.raises(BudgetExceededError):
        singular_density(2, 5, 4)


def test_index_local_factors():
    assert index_local_factors([[49, 18], [0, 1]]) == {7: 49}
    assert index_local_factors([[2, 0], [0, 6]]) == {2: 4, 3: 3}
    assert index_local_factors([[1, 0], [0, 1]]) == {}
    with pytest.raises(PreconditionError):
        index_local_factors([[1, 2], [2, 4]])
    with pytest.raises(BudgetExceededError):
        index_local_factors(10**13)


def test_tamagawa_table_refuses_unprintable_factor_up_front():
    # the last factor's denominator is p^5049 at k = 100: 7^5049 has 4,267
    # digits and prints, 11^5049 has 5,258 and is refused before the loop
    table = tamagawa_factors_table(100, 10)
    assert [row[0] for row in table.rows] == [2, 3, 5, 7]
    render(table, "csv")
    with pytest.raises(BudgetExceededError, match="longer than 4300 digits"):
        tamagawa_factors_table(100, 11)


def test_tamagawa_partial_matches_direct_product():
    from latvol.dirichlet import riemann_zeta

    want = riemann_zeta(2.0)
    for p in (2, 3, 5, 7):
        want *= float(sl_density(2, p))
    got = tamagawa_partial(2, 10)
    assert abs(got - want) < 1e-13
    with pytest.raises(PreconditionError):
        tamagawa_partial(1, 10)
    with pytest.raises(PreconditionError):
        tamagawa_partial(2, 1)


def test_tamagawa_partial_is_the_rounded_exact_product():
    # the float of the exact product over p <= P, computed through Fraction
    for k, P in ((2, 2000), (3, 5000), (6, 500)):
        want = 1.0
        for j in range(2, k + 1):
            exact = Fraction(1)
            for p in primes_up_to(P):
                exact *= Fraction(p**j - 1, p**j)
            want *= riemann_zeta(j) * float(exact)
        assert tamagawa_partial(k, P) == want, (k, P)


def test_tamagawa_factors_table():
    t = tamagawa_factors_table(2, 10)
    assert t.schema == "tamagawa"
    assert [row[0] for row in t.rows] == [2, 3, 5, 7]
    assert t.rows[0][1] == Fraction(3, 4)
    assert abs(t.rows[-1][2] - tamagawa_partial(2, 10)) < 1e-13


def test_tamagawa_factors_are_exact():
    # every factor is the defining product, in lowest terms over
    # p^(k(k+1)/2 - 1); the running column is the plain float loop
    P = 2000
    for k in range(2, 7):
        t = tamagawa_factors_table(k, P)
        assert [row[0] for row in t.rows] == primes_up_to(P)
        running = 1.0
        for j in range(2, k + 1):
            running *= riemann_zeta(j)
        for p, factor, partial in t.rows:
            want = Fraction(1)
            for j in range(2, k + 1):
                want *= 1 - Fraction(1, p**j)
            assert factor == want, (k, p)
            assert factor.denominator == p ** (k * (k + 1) // 2 - 1), (k, p)
            assert gcd(factor.numerator, factor.denominator) == 1
            running *= float(sl_density(k, p))
            assert partial == running, (k, p)
