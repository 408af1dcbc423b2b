"""Desk-scale verification of lattice counting and volume identities.

Counts finite-index sublattices of Z^k through triangular normal forms,
reduces bases into a nearest-to-identity fundamental domain, evaluates
the associated Dirichlet series and local densities exactly, and checks
that the pieces multiply to the expected volume constants.
"""

from .dirichlet import (
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
from .errors import (
    BudgetExceededError,
    InvariantError,
    LatvolError,
    PreconditionError,
)
from .fundomain import (
    ReduceResult,
    compare_distance,
    in_cone_F,
    reduce_to_F,
    size_sq,
)
from .hnf import (
    HnfMatrix,
    count_by_index,
    count_sublattices,
    count_with_short_vector,
    enumerate_hnf,
    hnf_of,
)
from .lattice import (
    GreedyBasis,
    LatticeBasis,
    covol_sq,
    greedy_basis,
    lattice_coefficients,
    minbasis_sq,
    minimal_lift,
    quotient,
    shortest_vector,
)
from .measure import (
    cone_point_count,
    disc_lattice_count,
    normalization_constant,
    spike_demo,
    spike_line_counts,
    volume_ratio_experiment,
)
from .padic import (
    gl_count_modp,
    gl_density,
    index_local_factors,
    local_tamagawa_check,
    local_zeta,
    primes_up_to,
    singular_density,
    sl_count_modp,
    sl_density,
    tamagawa_factors_table,
    tamagawa_partial,
)
from .report import Table, to_csv, to_json

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DirichletSeries",
    "GreedyBasis",
    "HnfMatrix",
    "InvariantError",
    "LatticeBasis",
    "LatvolError",
    "PreconditionError",
    "ReduceResult",
    "Table",
    "abelian_limit",
    "compare_distance",
    "cone_point_count",
    "convolve",
    "count_by_index",
    "count_sublattices",
    "count_with_short_vector",
    "covol_sq",
    "disc_lattice_count",
    "enumerate_hnf",
    "gl_count_modp",
    "gl_density",
    "greedy_basis",
    "hnf_of",
    "in_cone_F",
    "index_local_factors",
    "lattice_coefficients",
    "local_tamagawa_check",
    "local_zeta",
    "minbasis_sq",
    "minimal_lift",
    "normalization_constant",
    "primes_up_to",
    "product_error_scan",
    "product_error_table",
    "quotient",
    "reduce_to_F",
    "riemann_zeta",
    "shortest_vector",
    "sigma_summatory",
    "singular_density",
    "size_sq",
    "sl_count_modp",
    "sl_density",
    "spike_demo",
    "spike_line_counts",
    "subgroup_zeta",
    "tamagawa_factors_table",
    "tamagawa_partial",
    "to_csv",
    "to_json",
    "volume_constant",
    "volume_ratio_experiment",
]
