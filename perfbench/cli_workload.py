"""The `cli` workload: cold `python -m latvol.cli` runs, one child at a time.

Every task is a fresh interpreter, because that is what a desk user
waits for.  A normal task's stdout must be byte-identical to
`report.render` of the same library call made in the benchmark's own
process.  A probe must refuse the way the exit-code contract documents:
exit 3 or 4, empty stdout, and exactly one JSON error line on stderr.
"""

import json
import random
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from workloads import Task, Wrong, expect

# A probe still running after this many seconds is stopped and counts
# as failed; a refusal, budget refusals included, takes a fraction of it.
HANG_LIMIT_S = 1.5
# Safety limit for every other child.
CHILD_LIMIT_S = 60.0
# Address-space cap per child, so a runaway allocation cannot take down
# a shared machine.
CHILD_AS_BYTES = 4 << 30

# Per pass: 75 small commands and 12 quick probes form the light bulk
# that sets p50; 10 medium tables (k = 3, about 2250 rows each) sit at
# ranks 88-97 of 100, so p90 falls inside them and moves with `report`;
# the large table and the two stopped probes are the top.
LIGHT_TASKS = 75
MEDIUM_TASKS = 10
OUTPUT_FILE_TASKS = 3


@dataclass
class ChildResult:
    rc: int
    out: bytes
    err: bytes
    timed_out: bool


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_BYTES, CHILD_AS_BYTES))


def run_child(cmd, env, limit, cwd):
    """Run one child to completion; one that outlives `limit` is killed and reaped."""
    try:
        p = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True, env=env,
                           cwd=cwd, timeout=limit, preexec_fn=_limit_child)
    except subprocess.TimeoutExpired as e:
        return ChildResult(-signal.SIGKILL, e.stdout or b"", e.stderr or b"", True)
    return ChildResult(p.returncode, p.stdout, p.stderr, False)


def _matrix_str(rows):
    return ";".join(",".join(str(e) for e in row) for row in rows)


def _det2(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def _matrix2(rng, bound):
    while True:
        A = ((rng.randint(-bound, bound), rng.randint(-bound, bound)),
             (rng.randint(-bound, bound), rng.randint(-bound, bound)))
        if _det2(A) > 0:
            return A


def _primes(n):
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


# ---- the sixteen subcommands at small sizes ---------------------------------
# Each function returns (argv, expected) where expected(ref) rebuilds the
# table the subcommand prints, from the same library call.


def _b_count(rng):
    k = rng.choice((1, 2, 3))
    ts = sorted(rng.sample(range(10, 3000 if k == 3 else 10**4), rng.randint(1, 3)))
    return (["count", "--k", str(k), "--max-index", ",".join(map(str, ts))],
            lambda r: r.measure.volume_ratio_experiment(k, ts))


def _b_count_by_index(rng):
    k = rng.randint(1, 4)
    ns = rng.sample(range(1, 10**4), 3)
    return (["count-by-index", "--k", str(k), "--n", ",".join(map(str, ns))],
            lambda r: r.report.Table("count_by_index", ("n", "count"),
                                     [(n, r.hnf.count_by_index(k, n)) for n in ns], {"k": k}))


def _b_zeta(rng):
    ss = [str(Fraction(rng.randint(11, 80), rng.randint(1, 10))) for _ in range(3)]
    ss = [s for s in ss if Fraction(s) > 1] or ["2"]
    return (["zeta", "--s", ",".join(ss)],
            lambda r: r.report.Table("zeta", ("s", "value"),
                                     [(float(Fraction(s)), r.dirichlet.riemann_zeta(float(Fraction(s)))) for s in ss]))


def _b_constant(rng):
    k = rng.randint(1, 8)
    return (["constant", "--k", str(k)],
            lambda r: r.report.Table("constant", ("k", "value"), [(k, r.dirichlet.volume_constant(k))]))


def _b_reduce(rng):
    A = _matrix2(rng, 40)

    def expected(r):
        res = r.fundomain.reduce_to_F(A)
        return r.report.Table("reduce", ("input", "rep", "gamma", "in_cone"), [
            (_matrix_str(A), _matrix_str(res.rep), _matrix_str(res.gamma), res.rep == A)])

    return ["reduce", f"--matrix={_matrix_str(A)}"], expected


def _b_in_cone(rng):
    A = _matrix2(rng, 12)
    return (["in-cone", f"--matrix={_matrix_str(A)}"],
            lambda r: r.report.Table("in_cone", ("matrix", "in_cone"),
                                     [(_matrix_str(A), r.fundomain.in_cone_F(A))]))


def _b_size(rng):
    A = _matrix2(rng, 40)
    return (["size", f"--matrix={_matrix_str(A)}"],
            lambda r: r.report.Table("size", ("matrix", "size_sq"),
                                     [(_matrix_str(A), r.fundomain.size_sq(A))]))


def _b_local_check(rng):
    k, p = rng.randint(1, 6), rng.choice(_primes(100))
    return (["local-check", "--k", str(k), "--p", str(p)],
            lambda r: r.report.Table("local_check", ("k", "p", "value"),
                                     [(k, p, r.padic.local_tamagawa_check(k, p))]))


def _b_local_zeta(rng):
    k, p = rng.randint(1, 5), rng.choice(_primes(50))
    s = rng.randint(k, k + 4)
    return (["local-zeta", "--k", str(k), "--p", str(p), "--s", str(s)],
            lambda r: r.report.Table("local_zeta", ("k", "p", "s", "value"),
                                     [(k, p, s, r.padic.local_zeta(k, p, s))]))


def _b_singular(rng):
    k, p, n = rng.choice(((2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (2, 5, 1), (3, 2, 1)))
    return (["singular", "--k", str(k), "--p", str(p), "--n", str(n)],
            lambda r: r.report.Table("singular", ("k", "p", "n", "density", "bound"),
                                     [(k, p, n, r.padic.singular_density(k, p, n), Fraction(k, p**n))]))


def _b_tamagawa(rng):
    k, P = rng.choice((2, 3)), rng.randint(2, 500)
    return (["tamagawa", "--k", str(k), "--p-max", str(P)],
            lambda r: r.padic.tamagawa_factors_table(k, P))


def _b_dirichlet_product(rng):
    if rng.random() < 0.3:
        return ["dirichlet-product"], lambda r: r.dirichlet.product_error_table([10, 100, 1000, 10000, 100000])
    ts = sorted(rng.sample(range(1, 10**5), 3))
    return (["dirichlet-product", "--t-list", ",".join(map(str, ts))],
            lambda r: r.dirichlet.product_error_table(ts))


def _b_abelian(rng):
    k, m = rng.choice((2, 3)), rng.randint(1, 6)
    return (["abelian", "--k", str(k), "--m-max", str(m)],
            lambda r: r.dirichlet.abelian_limit(k, [k + 10.0**-j for j in range(1, m + 1)]))


def _b_cone_count(rng):
    if rng.random() < 0.3:
        ds = [1, 2, 3, 4]
        argv = ["cone-count"]
    else:
        ds = sorted(rng.sample(range(1, 13), 2))
        argv = ["cone-count", "--k", "2", "--d-list", ",".join(map(str, ds))]
    return argv, lambda r: r.report.Table("cone_count", ("D", "count"),
                                          [(d, r.measure.cone_point_count(2, d)) for d in ds], {"k": 2})


def _b_spike_demo(rng):
    m = rng.randint(1, 40)
    rs = ["1/10", f"1/{rng.randint(11, 60)}"]
    return (["spike-demo", "--m", str(m), "--r-list", ",".join(rs)],
            lambda r: r.measure.spike_demo(m, [Fraction(x) for x in rs]))


def _b_normalization(rng):
    k = rng.randint(1, 50)
    return (["normalization", "--k", str(k)],
            lambda r: r.report.Table("normalization", ("k", "value"), [(k, r.measure.normalization_constant(k))]))


def _medium_tamagawa(rng):
    P = rng.randint(19600, 20400)
    return (["tamagawa", "--k", "3", "--p-max", str(P)],
            lambda r: r.padic.tamagawa_factors_table(3, P))


SUBCOMMANDS = (
    _b_count, _b_count_by_index, _b_zeta, _b_constant, _b_reduce, _b_in_cone,
    _b_size, _b_local_check, _b_local_zeta, _b_singular, _b_tamagawa,
    _b_dirichlet_product, _b_abelian, _b_cone_count, _b_spike_demo,
    _b_normalization,
)

# ---- probes -------------------------------------------------------------------
# (argv, allowed exit codes).  Probes that refuse correctly today:


def _good_probes(rng):
    composite = rng.choice((4, 6, 8, 9, 10, 12, 15))
    return [
        (["count", "--k", "4", "--max-index", str(rng.randint(5, 50))], {3}),
        (["local-check", "--k", "2", "--p", str(composite)], {3}),
        (["cone-count", "--d-list", str(rng.randint(65, 99))], {4}),
        (["spike-demo", "--m", str(rng.randint(501, 900))], {4}),
        (["singular", "--k", "3", "--p", "5", "--n", "1"], {4}),
        (["reduce", "--matrix=1,2;2,4"], {3}),
        (["reduce", "--matrix=2,0,0;0,1,0;0,0,1"], {3}),
        (["in-cone", "--matrix=3,1,0;0,2,1;1,0,2", "--k3-budget", "1"], {4}),
    ]


# The known defects of the exit-code contract; each fails today.
def _defect_probes(rng, missing_dir):
    return [
        (["zeta", "--s", f"1e{rng.randint(400, 500)}"], {3, 4}),
        (["constant", "--k", "2", "--output", str(missing_dir / "table.csv")], {3, 4}),
        (["abelian", "--k", "0"], {3}),
        (["reduce", "--matrix=3,1,0;0,2,1;1,0,2", "--k3-budget=-5"], {3}),
        (["count", "--k", "2", "--max-index", str(10**22 + rng.randint(0, 10**6))], {3, 4}),
        (["reduce", f"--matrix={10**8 + rng.randint(0, 10**4)},0;0,1"], {3, 4}),
    ]


def check_output(expected, out_file=None):
    def check(res, ref):
        expect(not res.timed_out, "timed out")
        expect(res.rc == 0, f"exit {res.rc}: {res.err[-200:]!r}")
        expect(res.err == b"", "unexpected stderr")
        if out_file is None:
            expect(res.out == expected, "stdout differs from report.render")
        else:
            written = out_file.read_bytes() if out_file.exists() else None
            expect(res.out == b"" and written == expected, "output file differs from report.render")

    return check


def check_refusal(allowed):
    def check(res, ref):
        expect(not res.timed_out, "did not finish")
        expect(res.rc in allowed, f"exit {res.rc}, documented {sorted(allowed)}")
        expect(res.out == b"", "refusal wrote to stdout")
        lines = res.err.split(b"\n")
        expect(len(lines) == 2 and lines[1] == b"", "stderr is not one line")
        try:
            rec = json.loads(lines[0])
        except ValueError:
            raise Wrong("stderr is not a JSON record") from None
        err = rec.get("error") if isinstance(rec, dict) else None
        expect(
            isinstance(err, dict)
            and set(err) == {"type", "exit_code", "message"}
            and err["exit_code"] == res.rc,
            "malformed error record",
        )

    return check


def cli_tasks(seed, ref, work_dir):
    """100 tasks: 75 small commands over all 16 subcommands, 10 medium
    and one large table, 8 probes that refuse correctly and 6 known-defect
    probes."""
    rng = random.Random(seed)
    specs = []
    for i in range(LIGHT_TASKS):
        argv, expected = SUBCOMMANDS[i % len(SUBCOMMANDS)](rng)
        fmt = rng.choice((None, "csv", "json"))
        specs.append((argv + ([] if fmt is None else ["--format", fmt]), expected, fmt or "csv"))
    for i in range(MEDIUM_TASKS):  # half CSV, half JSON, so every seed has the same mix
        argv, expected = _medium_tamagawa(rng)
        fmt = ("csv", "json")[i % 2]
        specs.append((argv + ["--format", fmt], expected, fmt))
    specs.append((["tamagawa", "--k", "2", "--p-max", "100000"],
                  lambda r: r.padic.tamagawa_factors_table(2, 100000), "csv"))

    tasks = []
    for i, (argv, expected, fmt) in enumerate(specs):
        want = ref.report.render(expected(ref), fmt).encode("utf-8")
        out_file = None
        if i < OUTPUT_FILE_TASKS:
            out_file = work_dir / f"cli-output-{i}.{fmt}"
            argv = argv + ["--output", str(out_file)]
        tasks.append(Task("latvol " + " ".join(argv), _runner(argv, out_file),
                          check_output(want, out_file), "normal", extra={"expected": want}))
    for argv, allowed in _good_probes(rng):
        tasks.append(Task("latvol " + " ".join(argv), _runner(argv, None, HANG_LIMIT_S),
                          check_refusal(allowed), "probe"))
    for argv, allowed in _defect_probes(rng, work_dir / "missing"):
        tasks.append(Task("latvol " + " ".join(argv), _runner(argv, None, HANG_LIMIT_S),
                          check_refusal(allowed), "defect", defect=True))
    rng.shuffle(tasks)
    return tasks


def _runner(argv, out_file, limit=CHILD_LIMIT_S):
    def run(ctx):
        if out_file is not None and out_file.exists():
            out_file.unlink()
        if ctx.tracer is None:
            cmd = [sys.executable, "-m", "latvol.cli", *argv]
            return run_child(cmd, ctx.env, limit, ctx.root)
        side = ctx.work_dir / "spans.json"
        if side.exists():
            side.unlink()
        env = dict(ctx.env, PERFBENCH_SPANS=str(side))
        cmd = [sys.executable, str(Path(ctx.root) / "perfbench" / "cli_entry.py"), *argv]
        res = run_child(cmd, env, limit, ctx.root)
        if side.exists():
            ctx.tracer.merge(json.loads(side.read_text()), ctx.tracer.task)
            side.unlink()
        return res

    return run


def cli_selftest(tasks):
    """Wrong outputs the cli checks must reject: one changed stdout byte,
    a probe that exits 1 with a traceback, a probe that hangs."""
    normal = next(t for t in tasks if t.kind == "normal" and "--output" not in t.name)
    want = normal.extra["expected"]
    flipped = bytes([want[0] ^ 1]) + want[1:]
    probe = next(t for t in tasks if t.kind == "probe")
    return [
        (normal, ChildResult(0, flipped, b"", False)),
        (probe, ChildResult(1, b"", b"Traceback (most recent call last):\n", False)),
        (probe, ChildResult(-9, b"", b"", True)),
    ]
