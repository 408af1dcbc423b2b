"""The in-process workloads, `count` and `reduce`, and their output checks.

Every check compares a library result with an independent identity,
asymptotic or bound computed here, in plain integer or rational
arithmetic, never with the code under test.  A check raises `Wrong`.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, log, pi

ZETA2 = pi * pi / 6
ZETA3 = 1.2020569031595942854  # Apery's constant
ZETA4 = pi**4 / 90

K3_BUDGET = 10**7
# Fixed seed of the k = 3 reduction panel; see reduce_tasks.
K3_PANEL_SEED = 2004
K3_PANEL_SIZE = 15


class Wrong(Exception):
    """A task's output contradicts its check."""


@dataclass
class Task:
    """One closed-loop step: `run(ctx)` is timed, `check(out, ref)` is not.

    `ref` is the untraced library, for the few checks that compare two
    independent library methods of the same quantity.

    `defect` marks a probe of a documented, still-open defect: it counts
    as failed like any other task, but does not make the run incorrect.
    """

    name: str
    run: object
    check: object
    kind: str = ""
    defect: bool = False
    extra: dict = field(default_factory=dict)


def expect(cond, msg):
    if not cond:
        raise Wrong(msg)


# ---- independent arithmetic ---------------------------------------------


def sigma_sum(T):
    """sum_{n <= T} sigma(n) = sum_{m <= T} tri(floor(T/m)), in O(sqrt T) blocks."""
    total = 0
    m = 1
    while m <= T:
        q = T // m
        last = T // q
        total += (last - m + 1) * (q * (q + 1) // 2)
        m = last + 1
    return total


def sigma_sieve(N):
    s = [0] * (N + 1)
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            s[m] += d
    return s


def disc_row_sum(Q):
    """#{(i, j) : i^2 + j^2 <= Q} by one isqrt per row."""
    M = isqrt(Q)
    return sum(2 * isqrt(Q - i * i) + 1 for i in range(-M, M + 1))


def det(rows):
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    a, b, c = rows
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def dot(u, v):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))


def gram_det(vectors):
    return det([[dot(u, v) for v in vectors] for u in vectors])


def no_farther(rep, A, d):
    """|rep d^(-1/k) - I|^2 <= |A d^(-1/k) - I|^2, decided exactly.

    With a = |M|_F^2, b = tr M and x = d^(-1/k), the claim is
    (a_r - a_A) x <= 2 (b_r - b_A).
    """
    k = len(A)
    da = sum(e * e for r in rep for e in r) - sum(e * e for r in A for e in r)
    db = sum(rep[i][i] for i in range(k)) - sum(A[i][i] for i in range(k))
    if da <= 0 and db >= 0:
        return True
    if da > 0 and db <= 0:
        return False
    if da <= 0:  # both negative: |da| x >= 2 |db|
        return (-da) ** k >= 2**k * (-db) ** k * d
    return da**k <= 2**k * db**k * d


def jitter(rng, x, share=0.02):
    return int(round(x * rng.uniform(1 - share, 1 + share)))


# ---- count ----------------------------------------------------------------


def count_tasks(seed):
    """The counting side: hnf's DP, the numpy kernels, dirichlet and padic.

    Each size is jittered by the seed within +-2%, so the work per pass
    stays nearly constant from seed to seed.  The 13 tasks have distinct
    costs, so a percentile over all passes is an order statistic of one
    task; 13 is odd and the sizes are spread so that the median falls
    inside the samples of the 7th-cheapest task and p90 inside those of
    the 12th, not on the boundary between two tasks of different cost.
    Both are Python-bound (tamagawa_partial at k = 2, about 2x from its
    neighbours, and the k = 4 count), so the host-speed calibration in
    run.py tracks them; numpy-bound work tracks it less well.
    """
    rng = random.Random(seed)
    T2 = jitter(rng, 10**6)
    T3 = jitter(rng, 10**5)
    T3s = rng.randint(150, 250)
    T4 = jitter(rng, 10**5)
    Ns = jitter(rng, 3 * 10**5)
    Np = jitter(rng, 10**6)
    m_big = jitter(rng, isqrt(15 * 10**11))
    m_small = jitter(rng, isqrt(10**9))
    Nc = jitter(rng, 10**4)
    P2 = jitter(rng, 8 * 10**4)
    P3 = jitter(rng, 10**5)
    probes = sorted(rng.sample(range(1, Ns + 1), 20)) + [Ns]
    scan_points = sorted(rng.sample(range(1, Np + 1), 30))

    def check_count2(n, ref):
        expect(n == sigma_sum(T2), f"count k=2 at T={T2}: {n} != sum sigma")
        expect(n == ref.dirichlet.sigma_summatory(T2), "count k=2 != sigma_summatory")

    def check_count3(n, ref):
        c3 = ref.dirichlet.volume_constant(3)
        expect(abs(c3 - ZETA2 * ZETA3 / 3) < 1e-12, "volume_constant(3) != zeta(2) zeta(3) / 3")
        expect(abs(n / (c3 * T3**3) - 1) < 1e-2, f"k=3 ratio {n / (c3 * T3**3)} outside 1 +- 1e-2")

    def check_count3_small(n, ref):
        by_index = sum(ref.hnf.count_by_index(3, i) for i in range(1, T3s + 1))
        expect(n == by_index, "k=3 count != sum of count_by_index")

    def check_count4(n, ref):
        vol = ZETA2 * ZETA3 * ZETA4 / 4 * T4**4
        expect(n <= T4**4 and abs(n / vol - 1) < 1e-2, f"k=4 ratio {n / vol}")

    def check_sigma(cs, ref):
        expect(len(cs) == Ns + 1 and int(cs[0]) == 0, "sigma_cumsum has the wrong shape")
        for t in probes:
            expect(int(cs[t]) == sigma_sum(t), f"sigma_cumsum[{t}] != sum sigma")
        expect(
            int(cs[Ns]) == ref.hnf.count_sublattices(2, Ns) == ref.dirichlet.sigma_summatory(Ns),
            "sigma_cumsum, count k=2 and sigma_summatory disagree",
        )

    def check_scan(out, ref):
        sup, arg = out
        expect(0 < sup < 1 and 1 <= arg <= Np, f"scan gave {out}")

        def norm(t):
            return abs(float(sigma_sum(t)) - ZETA2 * t * t / 2.0) / (t * (1.0 + log(t)))

        expect(abs(norm(arg) - sup) <= 1e-9 * sup, "scan sup is not the value at argmax")
        for t in scan_points:
            expect(norm(t) <= sup * (1 + 1e-9), f"normalized error at {t} exceeds the sup")

    def check_disc_big(out, ref):
        count, n_r = out
        Q = m_big * m_big
        R = isqrt(Q)
        # unit squares at the lattice points sit between radii R -+ 1/sqrt 2
        expect(abs(count - pi * Q) <= pi * (1.4143 * R + 0.5) + 1, "disc count off the Gauss bound")
        expect(n_r == Fraction(count, Q), "N_r != r^2 count")

    def check_disc_small(out, ref):
        count, n_r = out
        Q = m_small * m_small
        expect(count == disc_row_sum(Q), f"disc count at Q={Q} != row sum")
        expect(n_r == Fraction(count, Q), "N_r != r^2 count")

    def check_convolve(f, ref):
        sig = sigma_sieve(Nc)
        expect(len(f) == Nc and list(f.coefficients) == sig[1:], "convolution != sigma")

    def check_tamagawa(v, ref):
        expect(1 < v < 1 + 1e-4, f"partial product {v} outside (1, 1 + 1e-4)")

    def check_local(values, ref):
        expect(len(values) == 75 and all(v == 1 for v in values), "a local product is not 1")

    def local_checks(lib, ks):
        return [lib.padic.local_tamagawa_check(k, p) for k in ks for p in lib.padic.primes_up_to(100)]

    def convolve(lib):
        DS = lib.dirichlet.DirichletSeries
        return lib.dirichlet.convolve(DS.ones(Nc), DS.shifted(Nc), Nc)

    tasks = [
        Task(f"count_sublattices k=2 T={T2}", lambda c: c.lib.hnf.count_sublattices(2, T2), check_count2, "hnf", extra={"T": T2}),
        Task(f"count_sublattices k=3 T={T3}", lambda c: c.lib.hnf.count_sublattices(3, T3), check_count3, "hnf"),
        Task(f"count_sublattices k=3 T={T3s}", lambda c: c.lib.hnf.count_sublattices(3, T3s), check_count3_small, "hnf"),
        Task(f"count_sublattices k=4 T={T4}", lambda c: c.lib.hnf.count_sublattices(4, T4), check_count4, "hnf"),
        Task(f"sigma_cumsum n={Ns}", lambda c: c.lib.kernels.sigma_cumsum(Ns), check_sigma, "kernels"),
        Task(f"product_error_scan T={Np}", lambda c: c.lib.dirichlet.product_error_scan(Np), check_scan, "dirichlet"),
        Task(f"disc_lattice_count Q={m_big}^2", lambda c: c.lib.measure.disc_lattice_count(Fraction(1, m_big)), check_disc_big, "measure"),
        Task(f"disc_lattice_count Q={m_small}^2", lambda c: c.lib.measure.disc_lattice_count(Fraction(1, m_small)), check_disc_small, "measure"),
        Task(f"convolve N={Nc}", lambda c: convolve(c.lib), check_convolve, "dirichlet"),
        Task(f"tamagawa_partial k=2 P={P2}", lambda c: c.lib.padic.tamagawa_partial(2, P2), check_tamagawa, "padic"),
        Task(f"tamagawa_partial k=3 P={P3}", lambda c: c.lib.padic.tamagawa_partial(3, P3), check_tamagawa, "padic"),
        Task("local_tamagawa_check k=1..3 x25 primes", lambda c: local_checks(c.lib, (1, 2, 3)), check_local, "padic"),
        Task("local_tamagawa_check k=4..6 x25 primes", lambda c: local_checks(c.lib, (4, 5, 6)), check_local, "padic"),
    ]
    return tasks


def count_warmup(lib):
    lib.hnf.count_sublattices(2, 100)
    lib.hnf.count_sublattices(3, 100)
    lib.kernels.sigma_cumsum(100)
    lib.dirichlet.product_error_scan(100)
    lib.measure.disc_lattice_count(Fraction(1, 10))
    DS = lib.dirichlet.DirichletSeries
    lib.dirichlet.convolve(DS.ones(10), DS.shifted(10), 10)
    lib.padic.tamagawa_partial(2, 100)
    lib.padic.local_tamagawa_check(2, 2)


def count_selftest(tasks):
    """Wrong outputs the count checks must reject: counts off by one."""
    t2 = next(t for t in tasks if "T" in t.extra)
    right = sigma_sum(t2.extra["T"])
    return [(t2, right + 1), (t2, right - 1)]


# ---- reduce -----------------------------------------------------------------


def _random_matrix(rng, k, lo, hi):
    while True:
        A = [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]
        d = det(A)
        if d:
            break
    if d < 0:  # swapping two columns makes the determinant positive
        A = [[r[1], r[0], *r[2:]] for r in A]
    return tuple(tuple(r) for r in A)


def k3_panel():
    """Fifteen fixed 3 x 3 matrices with entries in +-9 and positive det."""
    rng = random.Random(K3_PANEL_SEED)
    return [_random_matrix(rng, 3, -9, 9) for _ in range(K3_PANEL_SIZE)]


def _signed_permutation3(rng):
    """A random 3 x 3 signed permutation matrix with det +1."""
    while True:
        perm = rng.sample(range(3), 3)
        signs = [rng.choice((-1, 1)) for _ in range(3)]
        g = tuple(tuple(signs[j] if perm[j] == i else 0 for j in range(3)) for i in range(3))
        if det(g) == 1:
            return g


def check_reduction(A):
    d = det(A)

    def check(res, ref):
        gamma, rep = res
        expect(det(gamma) == 1, "det gamma != 1")
        expect(matmul(A, gamma) == tuple(tuple(r) for r in rep), "A gamma != rep")
        expect(no_farther(rep, A, d), "representative is farther from I than the input")

    return check


def chain(lib, vectors):
    """Criterion 06's chain on one lattice."""
    lat = lib.lattice
    L = lat.LatticeBasis(vectors)
    v, nv = lat.shortest_vector(L)
    Q = lat.quotient(L, v)
    wbar = Q.vectors[0]
    w = lat.minimal_lift(L, v, wbar)
    g = lat.greedy_basis(L)
    mb = lat.minbasis_sq(L)
    return v, nv, Q.vectors, wbar, w, g.vectors, g.alphas_sq, mb


def check_chain(vectors):
    k = len(vectors)
    covol = gram_det(vectors)

    def check(out, ref):
        v, nv, qvecs, wbar, w, gvecs, alphas, mb = out
        expect(nv == dot(v, v) and nv > 0, "shortest vector norm mismatch")
        expect(covol == nv * gram_det(qvecs), "covolume is not multiplicative across quotient")
        diff = [Fraction(a) - Fraction(b) for a, b in zip(w, wbar)]
        expect(
            all(diff[i] * v[j] == diff[j] * v[i] for i in range(k) for j in range(k)),
            "minimal lift does not project to wbar",
        )
        expect(dot(w, w) <= dot(wbar, wbar) + Fraction(nv, 4), "minimal lift bound violated")
        prod = Fraction(1)
        for a in alphas:
            prod *= a
        expect(alphas[0] == nv and prod == covol, "greedy alphas do not multiply to covol")
        expect(gram_det(gvecs) == covol, "greedy basis has the wrong covolume")
        expect(k * nv <= mb <= Fraction(k + 3, 4) * sum(alphas), "minbasis bound violated")
        expect(mb <= sum(dot(x, x) for x in gvecs), "minbasis above a known basis")

    return check


def reduce_tasks(seed):
    """The reduction side: fundomain, lattice and linalg, hnf as enumerator.

    k = 3 inputs are the fixed panel, each with its columns permuted and
    signed per seed (det +1): the seed changes every input matrix, while
    the column lattice and its basis vectors, and with them the search the
    reduction does, stay the same.  Random 3 x 3 matrices vary 25x in
    cost, so fifteen fresh draws per seed would make the pass time a draw
    too; a general unimodular change of basis still moves the cost by 10%.
    """
    rng = random.Random(seed)
    tasks = []

    def reduce_task(A, budget, label):
        kw = {} if budget is None else {"k3_budget": budget}
        return Task(
            f"reduce_to_F {label} {A}",
            lambda c: c.lib.fundomain.reduce_to_F(A, **kw),
            check_reduction(A),
            f"reduce_k{len(A)}",
            extra={"A": A},
        )

    for _ in range(60):
        tasks.append(reduce_task(_random_matrix(rng, 2, -99, 99), None, "k=2 random"))
    for _ in range(25):
        d = rng.randint(1, 10**4)
        A = ((d, rng.randrange(d)), (0, 1))
        tasks.append(reduce_task(A, None, "k=2 hnf"))
    for P in k3_panel():
        tasks.append(reduce_task(matmul(P, _signed_permutation3(rng)), K3_BUDGET, "k=3"))
    for k, n in ((2, 6), (3, 3)):
        for _ in range(n):
            vecs = _random_matrix(rng, k, -9, 9)
            tasks.append(
                Task(f"chain rank {k} {vecs}", lambda c, v=vecs: chain(c.lib, v), check_chain(vecs), "chain")
            )
    D = rng.randint(62, 64)

    def check_cone(n, ref):
        expect(n == sigma_sum(D), f"cone count at D={D} != sum sigma")

    tasks.append(Task(f"cone_point_count D={D}", lambda c: c.lib.measure.cone_point_count(2, D), check_cone, "cone"))
    short = {}

    def short_task(S):
        def check(n, ref):
            short[S] = n
            expect(0 < n <= sigma_sum(25), f"short-vector count {n} out of range")
            if len(short) == 2:
                expect(short[4] < short[1], "S=4 count is not below S=1")

        return Task(
            f"count_with_short_vector k=2 T=5 S={S}",
            lambda c: c.lib.hnf.count_with_short_vector(2, 5, S),
            check,
            "short",
        )

    tasks += [short_task(1), short_task(4)]
    rng.shuffle(tasks)
    return tasks


def reduce_warmup(lib):
    # no k = 3 call: it has nothing to warm and costs 0.1 s at any size
    lib.fundomain.reduce_to_F(((3, 1), (1, 2)))
    chain(lib, ((2, 1, 0), (0, 3, 1), (1, 0, 2)))
    lib.measure.cone_point_count(2, 2)
    lib.hnf.count_with_short_vector(2, 2, 1)


def reduce_selftest(tasks):
    """Wrong outputs the reduce checks must reject: det gamma = -1, a wrong rep."""
    task = next(t for t in tasks if t.kind == "reduce_k2")
    A = task.extra["A"]
    swap = ((0, 1), (1, 0))
    return [(task, (swap, matmul(A, swap))), (task, (((1, 0), (0, 1)), ((A[0][0] + 1, A[0][1]), A[1])))]
