"""latvol benchmark: seeded workloads, end-to-end metrics, a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count|reduce|cli --seed N --seconds S --trace 0|1

Each workload is a closed loop, one task at a time, over a fixed task
list made from the seed.  The run repeats that list ("a pass") until the
next pass would end after --seconds, with at least one pass, and checks
every output.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of tracer.py.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The library
comes from ./src of the checkout; nothing is installed.
"""

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from fractions import Fraction
from importlib.util import find_spec
from pathlib import Path
from typing import NamedTuple

import cli_workload
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("count", "reduce", "cli")
SETUP_PROBES = 7
IMPORTTIME_PROBES = 3
# The host's speed swings by up to 1.8x within seconds and stays in one
# state for minutes, which no run length averages out.  Every time metric
# is therefore given at reference speed: each task's latency is scaled by
# CAL_REF_S over the time a fixed pure-Python loop took around it, sampled
# about once a second.  Raw times are printed next to them.
CAL_REF_S = 0.020
CAL_EVERY_S = 1.0


def calibrate():
    """(wall, cpu) seconds of a fixed pure-Python loop that uses no latvol code."""
    t0, c0 = time.perf_counter(), time.process_time()
    acc, frac = 0, Fraction(0)
    for i in range(1, 60000):
        acc += (i * i) % 97
        if i % 50 == 0:
            frac += Fraction(1, i)
    for i in range(40000):
        acc += len(tuple(range(i % 7)))
    return time.perf_counter() - t0, time.process_time() - c0


# ---- set-up probe: runs in a fresh interpreter ---------------------------------


def setup_probe(workload):
    """Print the seconds for `import latvol` (latvol.cli on cli) plus the
    warm-up, then a calibration time taken in the same process."""
    t0 = time.perf_counter()
    if workload == "cli":
        import latvol.cli

        latvol.cli.build_parser().parse_args(["constant", "--k", "2"])
    else:
        import latvol

        lib = types.SimpleNamespace(**{m: getattr(latvol, m) for m in tracing.LAYERS if m != "cli"})
        (workloads.count_warmup if workload == "count" else workloads.reduce_warmup)(lib)
    setup = time.perf_counter() - t0
    calibrate()  # the first call in a fresh process runs cold
    cal = statistics.median(calibrate()[0] for _ in range(3))
    print(repr(setup), repr(cal))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload):
    """(at reference speed, raw) medians of the set-up probes, in seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", workload]
    ref, raw = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, check=True, timeout=120)
        setup, cal = map(float, out.stdout.decode().split())
        raw.append(setup)
        ref.append(setup * CAL_REF_S / cal)
    return statistics.median(ref), statistics.median(raw)


def measure_importtime():
    """(import latvol + latvol.cli, import numpy) cumulative seconds, medians."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import latvol.cli"]
    cli_s, np_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        err = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, check=True, timeout=120).stderr
        cum = {}
        for line in err.decode().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            cum.setdefault(name, int(parts[1]) / 1e6)
        cli_s.append(cum.get("latvol", 0.0) + cum.get("latvol.cli", 0.0))
        np_s.append(cum.get("numpy", 0.0))
    return statistics.median(cli_s), statistics.median(np_s)


# ---- passes -----------------------------------------------------------------------


class Context:
    """What a task's run(ctx) may use: the library, and the tracer if any."""

    def __init__(self, lib, work_dir, tracer=None):
        self.lib = lib
        self.tracer = tracer
        self.root = ROOT
        self.env = child_env()
        self.work_dir = work_dir


class Pass(NamedTuple):
    wall: float  # seconds, the sum of the task latencies
    cpu: float  # user+sys seconds of the tasks
    results: list  # (status, value, seconds) per task
    slow: list  # per task: calibration time around it over CAL_REF_S
    cal: list  # calibration samples, seconds

    @property
    def lat_ref(self):
        """Task latencies at reference speed, seconds."""
        return [r[2] / v for r, v in zip(self.results, self.slow)]

    @property
    def wall_ref(self):
        return sum(self.lat_ref)


def run_pass(tasks, ctx, in_process, task_base):
    """One pass.  A calibration sample opens and closes each window of
    about CAL_EVERY_S; a task's slowness is the mean of its window's two
    samples over CAL_REF_S.  Samples are not in the timings."""
    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    r0 = resource.getrusage(usage)
    results, samples = [], []
    cal_cpu = 0.0

    def sample(i):
        nonlocal cal_cpu
        wall, cpu = calibrate()
        samples.append((i, wall))
        cal_cpu += cpu
        return time.perf_counter()

    t_sample = sample(0)
    for i, task in enumerate(tasks):
        if time.perf_counter() - t_sample > CAL_EVERY_S:
            t_sample = sample(i)
        if ctx.tracer is not None:
            ctx.tracer.task = task_base + i
        t0 = time.perf_counter()
        try:
            out = ("ok", task.run(ctx))
        except Exception as e:  # an unexpected raise is a failed task
            out = ("raised", e)
        results.append(out + (time.perf_counter() - t0,))
    sample(len(tasks))
    r1 = resource.getrusage(usage)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime) - (cal_cpu if in_process else 0.0)
    slow = []
    for (start, c0), (end, c1) in zip(samples, samples[1:]):
        slow += [(c0 + c1) / 2 / CAL_REF_S] * (end - start)
    return Pass(sum(r[2] for r in results), cpu, results, slow, [c for _, c in samples])


def judge(task, status, value, ref):
    """(passed, reason) for one task output."""
    if status == "raised":
        return False, f"raised {type(value).__name__}: {value}"
    try:
        task.check(value, ref)
    except workloads.Wrong as e:
        return False, str(e)
    return True, ""


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.notes = {}

    def add(self, tasks, results, ref):
        for task, (status, value, _) in zip(tasks, results):
            ok, why = judge(task, status, value, ref)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.unexpected += not task.defect
                self.notes.setdefault(task.name, ("known defect: " if task.defect else "") + why)


def self_test(cases, ref):
    """Every deliberately wrong output must be judged a failure."""
    missed = [t.name for t, wrong in cases if judge(t, "ok", wrong, ref)[0]]
    if missed:
        sys.exit(f"checker self-test: a wrong output passed for {missed}")
    return len(cases)


# ---- environment --------------------------------------------------------------------


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, tasks, passes, lat):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": find_spec("numba") is not None,
        "latvol_backend_env": os.environ.get("LATVOL_BACKEND"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "tasks_per_pass": len(tasks),
        "passes": passes,
        "percentile_samples": len(lat),
        "samples_beyond_p90": sum(x > percentiles(lat)[1] for x in lat) if lat else 0,
    }


def percentiles(lat):
    if len(lat) < 2:
        return lat[0], lat[0]
    return statistics.median(lat), statistics.quantiles(lat, n=10, method="inclusive")[8]


# ---- main ---------------------------------------------------------------------------


def build(workload, seed, ref, work_dir):
    if workload == "count":
        tasks = workloads.count_tasks(seed)
        return tasks, workloads.count_warmup, workloads.count_selftest(tasks)
    if workload == "reduce":
        tasks = workloads.reduce_tasks(seed)
        return tasks, workloads.reduce_warmup, workloads.reduce_selftest(tasks)
    tasks = cli_workload.cli_tasks(seed, ref, work_dir)
    return tasks, None, cli_workload.cli_selftest(tasks)


def cli_warmup(ctx):
    """One untimed child, so the first timed task does not pay for a cold page cache."""
    cli_workload.run_child([sys.executable, "-m", "latvol.cli", "constant", "--k", "2"],
                           ctx.env, cli_workload.CHILD_LIMIT_S, ROOT)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "latvol" / "__init__.py").is_file():
        sys.exit(f"no latvol sources under {SRC.relative_to(ROOT)}/; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return
    if args.workload is None:
        ap.error("--workload is required")

    import latvol  # noqa: F401  (loads every layer module)
    import latvol.cli  # noqa: F401

    ref = types.SimpleNamespace(**{m: sys.modules[f"latvol.{m}"] for m in tracing.LAYERS})
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        run(args, ref, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, ref, work_dir):
    in_process = args.workload != "cli"
    tasks, warmup, selftest_cases = build(args.workload, args.seed, ref, work_dir)
    checks_tested = self_test(selftest_cases, ref)

    setup_ref, setup_raw = measure_setup(args.workload) if not args.trace else (None, None)
    ctx = Context(ref, work_dir)
    if in_process:
        warmup(ref)
    else:
        cli_warmup(ctx)

    tally = Tally()
    passes, traced = [], []
    tr = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        traced_now = bool(args.trace) and (len(passes) + len(traced)) % 2 == 1
        if traced_now:
            pctx = Context(tracing.install(tr) if in_process else ref, work_dir, tr)
        else:
            pctx = ctx
        try:
            p = run_pass(tasks, pctx, in_process, (len(passes) + len(traced)) * len(tasks))
        finally:
            if traced_now and in_process:
                tracing.uninstall(tr)
        tally.add(tasks, p.results, ref)
        (traced if traced_now else passes).append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall for q in passes + traced)
        done = not args.trace or traced
        if done and elapsed + typical > args.seconds:
            break

    if in_process:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    cal = statistics.median(c for p in passes + traced for c in p.cal)
    lat = [r[2] * 1000 for p in passes for r in p.results]
    lat_ref = [t * 1000 for p in passes for t in p.lat_ref]
    error_rate = tally.failed / tally.attempted

    print(f"latvol benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(passes) + len(traced)} passes of {len(tasks)} tasks, "
          f"checker self-test {checks_tested} cases")
    print("  pass walls (s): " + " ".join(f"{p.wall:.3f}" for p in passes)
          + "".join(f" traced {p.wall:.3f}" for p in traced))
    print(f"  host speed: calibration loop {cal * 1000:.2f} ms (median), "
          f"{CAL_REF_S * 1000:.0f} ms at reference speed")
    for name, why in list(tally.notes.items())[:20]:
        print(f"  failed: {name[:100]}: {why[:160]}")
    if args.trace:
        metrics = traced_metrics(tr, traced, passes, args, ref)
    else:
        p50, p90 = percentiles(lat_ref)
        metrics = {
            "wall_s": (statistics.median(p.wall_ref for p in passes), "s"),
            "cpu_s": (statistics.median(p.cpu * p.wall_ref / p.wall for p in passes), "s"),
            "setup_s": (setup_ref, "s"),
            "peak_rss_mb": (rss_kib / 1024, "MiB"),
            "task_p50_ms": (p50, "ms"),
            "task_p90_ms": (p90, "ms"),
        }
        raw50, raw90 = percentiles(lat)
        print(f"  raw, not at reference speed: wall_s {statistics.median(p.wall for p in passes):.4f}, "
              f"setup_s {setup_raw:.4f}, task_p50_ms {raw50:.4f}, task_p90_ms {raw90:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    print(f"  {'error_rate':28s} {error_rate:16.6f} ratio  ({tally.failed} of {tally.attempted})")
    env = environment(args, tasks, len(passes) + len(traced), lat_ref)
    env["calibration_median_s"] = cal
    env["calibration_samples"] = sum(len(p.cal) for p in passes)
    print(json.dumps({"environment": env}))
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


def traced_metrics(tr, traced, passes, args, ref):
    """Per-layer metrics, per traced pass, plus overhead and unattributed time.

    Self times are raw seconds; the overhead compares passes at reference
    speed, so a change of host speed between the passes cancels.
    """
    n = len(traced)
    cli_s, np_s = measure_importtime()
    out = {}
    for name, (value, unit) in tr.layer_metrics().items():
        out[name] = (value if unit == "ratio" else value / n, unit)
    out["kernels.peak_alloc_mb"] = (tracing.kernel_peak_bytes(tr, ref.kernels) / 2**20, "MiB")
    out["cli.import_s"] = (cli_s, "s")
    out["cli.import_numpy_s"] = (np_s, "s")
    out["unattributed_s"] = ((sum(p.wall for p in traced) - tr.root_s) / n, "s")
    out["trace_overhead"] = (
        statistics.median(p.wall_ref for p in traced) / statistics.median(p.wall_ref for p in passes),
        "ratio",
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id\tparent\ttask\tlayer\tname\tstart\tend\terror\n")
        fh.writelines("%d\t%d\t%d\t%s\t%s\t%.9f\t%.9f\t%d\n" % span for span in tr.spans)
    print(f"  spans: {len(tr.spans)} written to {path.relative_to(ROOT)}")
    return out


if __name__ == "__main__":
    main()
