"""Refusals that the other tests do not reach: each call raises its type."""

import json
import time
from fractions import Fraction

import pytest

from latvol import cli
from latvol.dirichlet import (
    DirichletSeries,
    convolve,
    product_error_scan,
    product_error_table,
    sigma_summatory,
    volume_constant,
)
from latvol.errors import BudgetExceededError, PreconditionError
from latvol.fundomain import compare_distance, size_sq
from latvol.hnf import count_with_short_vector, enumerate_hnf, hnf_of
from latvol.kernels import sigma_cumsum
from latvol.lattice import LatticeBasis, minbasis_sq
from latvol.measure import disc_lattice_count, slope_directions
from latvol.padic import gl_count_modp, sl_count_modp, tamagawa_partial
from latvol.report import format_cell


REFUSALS = {
    "short k=4": lambda: count_with_short_vector(4, 2, 1),
    "short float T": lambda: count_with_short_vector(2, 2.5, 1),
    "short T=0": lambda: count_with_short_vector(2, 0, 1),
    "short S<1": lambda: count_with_short_vector(2, 5, Fraction(1, 2)),
    "enumerate_hnf k=0": lambda: list(enumerate_hnf(0, 1)),
    "hnf_of non-square": lambda: hnf_of([[1, 2, 3], [4, 5, 6]]),
    "sigma_cumsum(-1)": lambda: sigma_cumsum(-1),
    "sigma_summatory(-1)": lambda: sigma_summatory(-1),
    "product_error_table([0])": lambda: product_error_table([0]),
    "product_error_scan(0)": lambda: product_error_scan(0),
    "volume_constant(0)": lambda: volume_constant(0),
    "convolve short prefix": lambda: convolve(
        DirichletSeries.ones(3), DirichletSeries.ones(2), 3
    ),
    "empty series": lambda: DirichletSeries(()),
    "disc r=0": lambda: disc_lattice_count(0),
    "slope_directions(-1)": lambda: slope_directions(-1),
    "gl method": lambda: gl_count_modp(2, 3, method="guess"),
    "sl method": lambda: sl_count_modp(2, 3, method="guess"),
    "gl k=0": lambda: gl_count_modp(0, 3),
    "sl k=0": lambda: sl_count_modp(0, 3),
    "tamagawa_partial(100, 10^4)": lambda: tamagawa_partial(100, 10**4),
    "format_cell complex": lambda: format_cell(1j),
    "size_sq 4x4": lambda: size_sq([[1 if i == j else 0 for j in range(4)] for i in range(4)]),
    "compare_distance 2x2 A, 3x3 gamma": lambda: compare_distance(
        [[2, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]]
    ),
    "compare_distance 3x3 A, 2x2 gamma": lambda: compare_distance(
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1]], [[1, 0], [0, 1]]
    ),
}


# refused for their size (exit 4); the other entries break a precondition
OVER_BUDGET = {"tamagawa_partial(100, 10^4)"}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal(name):
    with pytest.raises(BudgetExceededError if name in OVER_BUDGET else PreconditionError):
        REFUSALS[name]()


# each cap through the CLI: an argument just inside it finishes, one just
# past it refuses with its exit code within a second
CLI_EDGES = {
    "count k=3 T=10^8": (["count", "--k=3", "--max-index=100000000"], 4),
    "constant k=100": (["constant", "--k=100"], 0),
    "constant k=101": (["constant", "--k=101"], 4),
    "abelian k=100": (["abelian", "--k=100", "--m-max=1"], 0),
    "abelian k=101": (["abelian", "--k=101"], 4),
    "abelian m_max=0": (["abelian", "--k=2", "--m-max=0"], 3),
    "abelian m_max=15": (["abelian", "--k=2", "--m-max=15"], 0),
    "abelian m_max=16": (["abelian", "--k=2", "--m-max=16"], 3),
    "abelian m_max=10^9": (["abelian", "--k=2", "--m-max=1000000000"], 3),
}


@pytest.mark.parametrize("name", CLI_EDGES)
def test_cli_edge(name, capsys):
    argv, want = CLI_EDGES[name]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == want, err
    if want:
        assert elapsed < 1 and out == ""
        assert json.loads(err)["error"]["exit_code"] == want
    else:
        assert err == "" and out


def test_minbasis_at_rank_one_is_the_squared_length():
    assert minbasis_sq(LatticeBasis([(Fraction(3, 2), 2)])) == Fraction(25, 4)
