import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import helpers as H
from latvol import dirichlet, kernels
from latvol.dirichlet import (
    DirichletSeries,
    abelian_limit,
    convolve,
    product_error_scan,
    product_error_table,
    riemann_zeta,
    sigma_summatory,
    subgroup_zeta,
    volume_constant,
)
from latvol.errors import PreconditionError

mpmath.mp.dps = 40


def test_series_construction_and_validation():
    f = DirichletSeries.ones(10)
    assert list(f.coefficients) == [Fraction(1)] * 10
    g = DirichletSeries.shifted(5)
    assert list(g.coefficients) == [1, 2, 3, 4, 5]
    with pytest.raises(PreconditionError):
        DirichletSeries([1, -1])


def test_convolution_gives_divisor_sigma():
    N = 200
    f = convolve(DirichletSeries.ones(N), DirichletSeries.shifted(N), N)
    sig = H.sigma_table(N)
    assert [int(c) for c in f.coefficients] == sig[1:]


def test_summatory_exact():
    sig = H.sigma_table(300)
    assert sigma_summatory(10) == 87
    for t in (1, 2, 17, 100, 299):
        assert sigma_summatory(t) == sum(sig[1 : t + 1])


def test_riemann_zeta_against_mpmath():
    for s in (1.001, 1.1, 1.5, 2.0, 3.0, 4.0, 7.5, 12.0, 16.0, 30.0, 50.0):
        want = float(mpmath.zeta(s))
        assert abs(riemann_zeta(s) - want) < 1e-12, s
    assert riemann_zeta(2.0) == pytest.approx(math.pi**2 / 6, abs=1e-14)
    with pytest.raises(PreconditionError):
        riemann_zeta(1.0)
    with pytest.raises(PreconditionError):
        riemann_zeta(0.5)


def test_subgroup_zeta_values():
    want = float(mpmath.zeta(3) * mpmath.zeta(2))
    assert abs(subgroup_zeta(2, 3.0) - want) < 1e-12
    want = float(mpmath.zeta(4) * mpmath.zeta(3) * mpmath.zeta(2))
    assert abs(subgroup_zeta(3, 4.0) - want) < 1e-12
    with pytest.raises(PreconditionError):
        subgroup_zeta(2, 2.0)  # pole


def test_volume_constant_values():
    assert volume_constant(1) == 1.0
    assert abs(volume_constant(2) - float(mpmath.zeta(2)) / 2) < 1e-12
    assert abs(volume_constant(3) - float(mpmath.zeta(2) * mpmath.zeta(3)) / 3) < 1e-12


def test_product_error_table_pinned():
    t = product_error_table([1, 10])
    assert t.rows[0][1] == pytest.approx(0.1775329665758868, abs=1e-12)
    assert t.rows[1][1] == pytest.approx(4.7532966575886775, abs=1e-12)
    assert t.rows[1][2] == pytest.approx(0.14392654613720945, abs=1e-12)


def test_product_error_scan_matches_table():
    sup, arg = product_error_scan(1000)
    assert arg == 2
    assert sup == pytest.approx(0.20970765992968712, abs=1e-12)
    # scan agrees with per-T table values
    t = product_error_table([2])
    assert sup == pytest.approx(t.rows[0][2], abs=1e-12)


def _scan_one_shot(cs, z2):
    """(sup, argmax) over the whole cumsum at once, as a reference."""
    T = len(cs) - 1
    t = np.arange(1, T + 1, dtype=np.float64)
    e = cs[1:].astype(np.float64) - z2 * t * t / 2.0
    norm = np.abs(e) / (t * (1.0 + np.log(t)))
    i = int(np.argmax(norm))
    return float(norm[i]), i + 1


def test_product_error_scan_at_chunk_edges():
    c = kernels._CHUNK
    z2 = riemann_zeta(2)
    cs = kernels.sigma_cumsum(2 * c + 1)
    for T in (1, 2, 3, 10, c - 1, c, c + 1, 2 * c - 1, 2 * c + 1):
        assert product_error_scan(T) == _scan_one_shot(cs[: T + 1], z2), T


@pytest.mark.parametrize("chunk", (1, 2, 3, 7))
def test_product_error_scan_merges_chunks(monkeypatch, chunk):
    # on the true sums the sup sits at T = 2, in the first chunk; random
    # cumsums put it anywhere, and an overflowing zeta(2) makes every
    # T >= 14 tie at inf, so the first of the tied T must win
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for T in (1, 2, 5, 40, 41, 100):
        cs = np.concatenate(([0], rng.integers(0, 10**6, T)))
        monkeypatch.setattr(kernels, "sigma_cumsum", lambda n: cs)
        assert product_error_scan(T) == _scan_one_shot(cs, riemann_zeta(2)), T
    monkeypatch.setattr(dirichlet, "riemann_zeta", lambda s: 1e306)
    cs = np.zeros(41, dtype=np.int64)
    with np.errstate(over="ignore"):
        assert product_error_scan(40) == _scan_one_shot(cs, 1e306) == (math.inf, 14)


def test_product_error_scan_peak_is_cumsum_plus_chunks():
    n = 10**6
    assert H.peak_bytes(lambda: product_error_scan(n)) <= 8 * (n + 1) + 4 * 2**20


def test_abelian_limit_table():
    t = abelian_limit(2, [3.0, 2.5, 2.1])
    assert t.params == {"k": 2}
    zeta2 = math.pi**2 / 6
    scaled = [row[1] for row in t.rows]
    assert abs(scaled[-1] - zeta2) < abs(scaled[0] - zeta2)
    with pytest.raises(PreconditionError):
        abelian_limit(2, [2.5, 2.5])
    with pytest.raises(PreconditionError):
        abelian_limit(2, [1.5])
