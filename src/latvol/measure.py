"""Cross-checks and experiments on the volume side.

The cone-count cross-check (sublattice recursion vs reduction into the
fundamental cone), the volume-ratio experiment, the normalization
constant, the closed-disc count N_r = r^2 #(disc cap r Z^2), and the
spike construction: segments of rational slope rescaled so that a set of
Lebesgue measure zero keeps, line for line, the exact lattice-point
counts of the base segments.
"""

from fractions import Fraction
from math import gcd

from . import kernels
from .dirichlet import volume_constant
from .errors import K_CAP, BudgetExceededError, InvariantError, PreconditionError
from .fundomain import reduce_to_F
from .hnf import count_sublattices, enumerate_hnf
from .linalg import det_int, floor_sqrt_frac
from .report import Table


def _decreasing_fractions(r_list):
    rs = [Fraction(r) for r in r_list]
    if not rs or any(r <= 0 for r in rs):
        raise PreconditionError("scales must be positive")
    if any(rs[i] <= rs[i + 1] for i in range(len(rs) - 1)):
        raise PreconditionError("scales must be strictly decreasing")
    return rs


def disc_lattice_count(r, radius=1):
    """(count, N_r) for the closed disc, via the quadratic-form kernel."""
    r = Fraction(r)
    radius = Fraction(radius)
    if r <= 0 or radius <= 0:
        raise PreconditionError("radius and scale must be positive")
    q = (radius / r) ** 2
    count = kernels.disc_count(q.numerator // q.denominator)
    return count, r * r * count


def cone_point_count(k, D):
    """Count determinant-D sublattices two ways and insist they agree.

    Method (a): the counting recursion.  Method (b): reduce every
    enumerated triangular basis into the fundamental cone and count the
    distinct representatives.  A mismatch is an InvariantError.
    """
    if k != 2:
        raise PreconditionError("the two-method cone count is implemented for k = 2")
    if not 1 <= D <= 64:
        raise BudgetExceededError("cone count capped at D <= 64")
    by_recursion = count_sublattices(2, D)
    reps = set()
    for h in enumerate_hnf(2, D):
        reps.add(reduce_to_F(h.entries).rep)
    if by_recursion != len(reps):
        raise InvariantError(
            f"cone count mismatch at D = {D}: recursion {by_recursion}, "
            f"reduction {len(reps)}"
        )
    return by_recursion


def volume_ratio_experiment(k, T_list):
    """Table of sublattice counts against the predicted volume term."""
    if k not in (1, 2, 3):
        raise PreconditionError("the ratio experiment covers k <= 3")
    c = volume_constant(k)
    rows = []
    for T in T_list:
        T = int(T)
        if T < 1:
            raise PreconditionError("T must be >= 1")
        n = count_sublattices(k, T)
        ref = c * T**k
        rows.append((T, n, ref, n / ref))
    return Table("volume_ratio", ("T", "count", "reference", "ratio"), rows, {"k": k})


def normalization_constant(k):
    """The per-lattice normalization 1/k, certified by a determinant.

    The integer vectors e_i - e_{k-1} (i < k-1) together with the
    all-ones vector span a sublattice of index k; the determinant of
    that basis is computed exactly and must have absolute value k.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if k > K_CAP:
        raise BudgetExceededError(f"normalization capped at k <= {K_CAP}")
    rows = []
    for i in range(k - 1):
        row = [0] * k
        row[i] = 1
        row[k - 1] = -1
        rows.append(tuple(row))
    rows.append(tuple([1] * k))
    if abs(det_int(tuple(rows))) != k:
        raise InvariantError("index-k basis has the wrong determinant")
    return Fraction(1, k)


def slope_directions(m):
    """First m primitive directions (q, p), ordered by |p| + q, then slope.

    Height 1 gives the horizontal (1, 0) then the vertical (0, 1);
    within a height, finite slopes ascend and the vertical comes last.
    """
    if m < 0:
        raise PreconditionError("m must be nonnegative")
    dirs = []
    h = 1
    while len(dirs) < m:
        batch = []
        for q in range(h + 1):
            ap = h - q
            for p in [0] if ap == 0 else [-ap, ap]:
                if q == 0 and p != 1:
                    continue
                if p == 0 and q != 1:
                    continue
                if gcd(q, abs(p)) != 1:
                    continue
                batch.append((q, p))
        batch.sort(key=lambda d: (d[0] == 0, Fraction(d[1], d[0]) if d[0] else 0))
        dirs.extend(batch)
        h += 1
    return dirs[:m]


def spike_line_counts(m, r):
    """Per-line counts (index, base_count, spike_count) at scale r.

    Line i of the base family is the unit-disc chord of the i-th
    primitive direction; its spike replacement lies on the line of slope
    i, rescaled by the ratio of shortest lattice vector lengths, which
    forces equal counts at every scale.
    """
    if m > 500:
        raise BudgetExceededError("spike demo capped at m <= 500")
    r = Fraction(r)
    if r <= 0:
        raise PreconditionError("scale must be positive")
    rows = []
    for idx, (q, p) in enumerate(slope_directions(m), start=1):
        l2 = q * q + p * p
        base_t = floor_sqrt_frac(1 / (r * r * l2))
        lam2 = 1 + idx * idx
        rho2 = Fraction(lam2, l2)
        spike_t = floor_sqrt_frac(rho2 / (r * r * lam2))
        rows.append((idx, 2 * base_t + 1, 2 * spike_t + 1))
    return rows


def spike_demo(m, r_list):
    """Counts for the base chords versus their measure-zero spike copies.

    All segments pass through the origin, so the union count is the
    per-line sum minus m - 1 repeats; base and spike unions agree
    exactly at every scale even though the spike set can be made as
    Lebesgue-thin as desired.
    """
    rows = []
    for r in _decreasing_fractions(r_list):
        per = spike_line_counts(m, r)
        base_sum = sum(b for _, b, _ in per)
        spike_sum = sum(s for _, _, s in per)
        dedupe = max(0, m - 1)
        base_union = base_sum - dedupe
        spike_union = spike_sum - dedupe
        rows.append(
            (r, base_sum, base_union, r * r * base_union, spike_union, r * r * spike_union)
        )
    return Table(
        "spike_demo",
        ("r", "base_line_sum", "base_count", "base_N_r", "spike_count", "spike_N_r"),
        rows,
        {"m": m},
    )
