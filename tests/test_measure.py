from fractions import Fraction

import pytest

import helpers as H
from latvol.errors import BudgetExceededError, PreconditionError
from latvol.measure import (
    cone_point_count,
    disc_lattice_count,
    normalization_constant,
    slope_directions,
    spike_demo,
    spike_line_counts,
    volume_ratio_experiment,
)


def test_disc_counts():
    count, n_r = disc_lattice_count(Fraction(1, 2))
    assert count == H.disc_points(4) == 13 and n_r == Fraction(13, 4)
    count, n_r = disc_lattice_count(Fraction(2, 7), radius=Fraction(3, 2))
    assert count == H.disc_points(27) and n_r == Fraction(4, 49) * count
    # N_r approaches pi as r shrinks
    _, n_r = disc_lattice_count(Fraction(1, 1000))
    assert abs(float(n_r) - 3.14159265) < 1e-2


def test_cone_point_count_pinned():
    assert [cone_point_count(2, D) for D in (1, 2, 3, 4)] == [1, 4, 8, 15]


def test_cone_point_count_budget():
    with pytest.raises(BudgetExceededError):
        cone_point_count(2, 65)


def test_volume_ratio_experiment():
    t = volume_ratio_experiment(2, [10, 100])
    assert t.params == {"k": 2}
    assert t.rows[0][0] == 10 and t.rows[0][1] == 87
    assert abs(t.rows[0][2] - 82.2467033424113) < 1e-10
    assert abs(t.rows[1][3] - 1.0090374) < 1e-6
    with pytest.raises(PreconditionError):
        volume_ratio_experiment(9, [10])


def test_normalization_constant():
    for k in range(1, 7):
        assert normalization_constant(k) == Fraction(1, k)
    with pytest.raises(PreconditionError):
        normalization_constant(0)


def test_slope_directions():
    assert slope_directions(5) == [(1, 0), (0, 1), (1, -1), (1, 1), (1, -2)]
    dirs = slope_directions(50)
    assert len(dirs) == 50 and len(set(dirs)) == 50
    from math import gcd

    assert all(gcd(p, q) == 1 for p, q in dirs)


def test_spike_line_counts_equal_per_line():
    for r in (Fraction(1, 10), Fraction(1, 100)):
        for m in (1, 3, 25):
            rows = spike_line_counts(m, r)
            assert len(rows) == m
            assert all(base == spike for _, base, spike in rows)
    rows = spike_line_counts(1, Fraction(1, 10))
    assert rows[0] == (1, 21, 21)


def test_spike_demo_table():
    t = spike_demo(3, [Fraction(1, 10), Fraction(1, 100)])
    assert t.columns == (
        "r",
        "base_line_sum",
        "base_count",
        "base_N_r",
        "spike_count",
        "spike_N_r",
    )
    first = t.rows[0]
    # the m lines share only the origin: union = sum - (m - 1)
    assert first == (Fraction(1, 10), 57, 55, Fraction(11, 20), 55, Fraction(11, 20))
    assert t.rows[1][1] == 543 and t.rows[1][2] == 541
    for row in t.rows:
        assert row[4] == row[2] and row[5] == row[3]


def test_spike_demo_requires_decreasing_scales():
    with pytest.raises(PreconditionError):
        spike_demo(3, [Fraction(1, 10), Fraction(1, 10)])
    with pytest.raises(PreconditionError):
        spike_demo(3, [Fraction(1, 10), Fraction(1, 5)])


def test_spike_demo_budget():
    with pytest.raises(BudgetExceededError):
        spike_line_counts(501, Fraction(1, 10))

