"""Spans at latvol's layer boundaries, recorded from outside the package.

Each latvol module is one layer.  `install` rebinds every cross-module
reference to a public latvol function (``from .linalg import det_int``
in lattice, ``from . import kernels`` in measure, ...) to a wrapper that
opens a span, so nothing under ``src/`` changes.  A handful of functions
are also rebound inside their own module (`SELF_TAPS`), because the
counters the benchmark reports live on calls that never cross a module
boundary, e.g. ``shortest_vector -> short_coefficient_vectors``.

A span records (id, parent, task, layer, name, start, end, error).  The
self time of a span is its duration minus the time covered by its child
spans; a layer's self time is the sum over its spans.  Spans stay in
memory until the run ends.
"""

import functools
import inspect
import sys
import time
import tracemalloc
import types
from collections import Counter, defaultdict
from math import isqrt

LAYERS = (
    "cli",
    "report",
    "measure",
    "fundomain",
    "lattice",
    "hnf",
    "dirichlet",
    "padic",
    "kernels",
    "linalg",
)

# (layer, function) pairs rebound inside their own module as well
SELF_TAPS = (
    ("lattice", "short_coefficient_vectors"),
    ("padic", "primes_up_to"),
    ("dirichlet", "riemann_zeta"),
    ("hnf", "enumerate_hnf"),
)

HNF_COUNT_PATH = ("count_sublattices", "count_exact_reference", "count_by_index")
K_TAGGED = ("reduce_to_F", "in_cone_F", "size_sq", "compare_distance")


def divisor_floor_sum(n):
    """sum_{d <= n} floor(n / d): the slice updates a divisor sieve to n makes."""
    r = isqrt(n)
    return 2 * sum(n // d for d in range(1, r + 1)) - r * r


def disc_rows(Q):
    """Rows a disc-count kernel evaluates for i^2 + j^2 <= Q."""
    return 2 * isqrt(Q) + 1 if Q >= 0 else 0


def _matrix_order(args):
    try:
        a = args[0]
        return len(getattr(a, "entries", a))
    except (IndexError, TypeError):
        return 0


class Tracer:
    """Span stack, span log and per-layer aggregates for one process."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = -1
        self.next_id = 0
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = defaultdict(float)  # (layer, name) -> seconds
        self.root_s = 0.0
        self.counters = Counter()
        self.kernel_args = {}  # kernel name -> largest argument seen
        self.undo = []

    def enter(self, layer, name):
        self.next_id += 1
        frame = [self.next_id, layer, name, 0.0, 0.0]
        self.stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def exit(self, frame, error):
        t1 = time.perf_counter()
        self.stack.pop()
        sid, layer, name, t0, child = frame
        dur = t1 - t0
        self.self_s[layer, name] += dur - child
        if error:
            self.errors[layer] += 1
        if self.stack:
            parent = self.stack[-1]
            parent[4] += dur
            pid = parent[0]
        else:
            self.root_s += dur
            pid = 0
        self.spans.append((sid, pid, self.task, layer, name, t0, t1, error))

    def in_span(self, name):
        return any(frame[2] == name for frame in self.stack)

    # ---- aggregation ---------------------------------------------------

    def state(self):
        """JSON-able aggregates, so child processes can hand them back."""
        return {
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "self_s": [[l, n, s] for (l, n), s in self.self_s.items()],
            "root_s": self.root_s,
            "counters": dict(self.counters),
            "kernel_args": self.kernel_args,
            "spans": self.spans,
        }

    def merge(self, state, task):
        self.calls.update(state["calls"])
        self.errors.update(state["errors"])
        for layer, name, s in state["self_s"]:
            self.self_s[layer, name] += s
        self.root_s += state["root_s"]
        self.counters.update(state["counters"])
        for name, arg in state["kernel_args"].items():
            self.kernel_args[name] = max(self.kernel_args.get(name, 0), arg)
        for span in state.get("spans", []):
            self.spans.append((*span[:2], task, *span[3:]))

    def layer_metrics(self):
        """Every per-layer metric the traced run reports, by name."""
        out = {}
        layer_self = defaultdict(float)
        for (layer, _), s in self.self_s.items():
            layer_self[layer] += s
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.errors"] = (self.errors[layer], "count")
            out[f"{layer}.self_s"] = (layer_self[layer], "s")

        def self_of(layer, pred):
            return sum(s for (l, n), s in self.self_s.items() if l == layer and pred(n))

        c = self.counters
        out["kernels.sigma_ops"] = (c["kernels.sigma_ops"], "count")
        out["kernels.disc_ops"] = (c["kernels.disc_ops"], "count")
        out["hnf.count_self_s"] = (self_of("hnf", lambda n: n in HNF_COUNT_PATH), "s")
        out["hnf.enum_self_s"] = (
            self_of("hnf", lambda n: n not in HNF_COUNT_PATH),
            "s",
        )
        out["hnf.matrices_enumerated"] = (c["hnf.matrices_enumerated"], "count")
        short_enum = c["hnf.short_enumerated"]
        out["hnf.short_hit_ratio"] = (
            c["hnf.short_hits"] / short_enum if short_enum else 0.0,
            "ratio",
        )
        out["lattice.fp_vectors"] = (c["lattice.fp_vectors"], "count")
        out["fundomain.k2_self_s"] = (self_of("fundomain", lambda n: n.endswith("[k2]")), "s")
        out["fundomain.k3_self_s"] = (self_of("fundomain", lambda n: n.endswith("[k3]")), "s")
        out["dirichlet.zeta_calls"] = (c["dirichlet.zeta_calls"], "count")
        out["padic.primes_sieved"] = (c["padic.primes_sieved"], "count")
        out["report.bytes_out"] = (c["report.bytes_out"], "bytes")
        return out


# ---- wrappers ---------------------------------------------------------------


COUNTED = (
    "short_coefficient_vectors",
    "primes_up_to",
    "riemann_zeta",
    "sigma_cumsum",
    "disc_count",
    "count_with_short_vector",
    "render",
)


def _after(tracer, name, args, out):
    """Counters measured where the work happens, from arguments and results."""
    c = tracer.counters
    if name == "short_coefficient_vectors":
        c["lattice.fp_vectors"] += len(out)
    elif name == "primes_up_to":
        c["padic.primes_sieved"] += len(out)
    elif name == "riemann_zeta":
        c["dirichlet.zeta_calls"] += 1
    elif name == "sigma_cumsum":
        c["kernels.sigma_ops"] += divisor_floor_sum(int(args[0]))
    elif name == "disc_count":
        c["kernels.disc_ops"] += disc_rows(int(args[0]))
    elif name == "count_with_short_vector":
        c["hnf.short_hits"] += out
    elif name == "render":
        c["report.bytes_out"] += len(out.encode("utf-8"))


def _wrap(tracer, fn, layer):
    name = fn.__name__

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            tracer.calls[layer] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(layer, name)
                try:
                    item = next(it)
                except StopIteration:
                    tracer.exit(frame, False)
                    return
                except BaseException:
                    tracer.exit(frame, True)
                    raise
                tracer.exit(frame, False)
                tracer.counters[f"{layer}.matrices_enumerated"] += 1
                if tracer.in_span("count_with_short_vector"):
                    tracer.counters[f"{layer}.short_enumerated"] += 1
                yield item

        return traced_gen

    is_kernel = layer == "kernels"
    tagged = name in K_TAGGED
    counted = name in COUNTED
    calls = tracer.calls
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls[layer] += 1
        if is_kernel:
            tracer.kernel_args[name] = max(tracer.kernel_args.get(name, 0), int(args[0]))
        frame = enter(layer, f"{name}[k{_matrix_order(args)}]" if tagged else name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            exit_(frame, True)
            raise
        exit_(frame, False)
        if counted:
            _after(tracer, name, args, out)
        return out

    return traced


def _public_functions(module):
    return {
        n: v
        for n, v in vars(module).items()
        if not n.startswith("_")
        and callable(v)
        and not inspect.isclass(v)
        and getattr(v, "__module__", None) == module.__name__
    }


def install(tracer):
    """Wrap every cross-module reference in the imported latvol package.

    Returns a namespace of module proxies (one per layer) through which
    the benchmark's own entry points call the library, so their calls
    are spans too.
    """
    mods = {layer: sys.modules[f"latvol.{layer}"] for layer in LAYERS}
    layer_of = {m.__name__: layer for layer, m in mods.items()}
    wrappers = {}

    def wrapper(fn):
        if id(fn) not in wrappers:
            wrappers[id(fn)] = _wrap(tracer, fn, layer_of[fn.__module__])
        return wrappers[id(fn)]

    def rebind(module, name, value):
        tracer.undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    proxies = {}
    for layer, m in mods.items():
        proxy = types.ModuleType(m.__name__, m.__doc__)
        proxy.__dict__.update(vars(m))
        for n, fn in _public_functions(m).items():
            setattr(proxy, n, wrapper(fn))
        proxies[m.__name__] = proxy

    for m in mods.values():
        for n, v in list(vars(m).items()):
            if isinstance(v, types.ModuleType) and v.__name__ in proxies:
                rebind(m, n, proxies[v.__name__])
            elif (
                callable(v)
                and not inspect.isclass(v)
                and getattr(v, "__module__", None) in layer_of
                and v.__module__ != m.__name__
            ):
                rebind(m, n, wrapper(v))
    for layer, n in SELF_TAPS:
        rebind(mods[layer], n, wrapper(getattr(mods[layer], n)))
    return types.SimpleNamespace(**{layer: proxies[m.__name__] for layer, m in mods.items()})


def uninstall(tracer):
    """Put back every reference `install` rebound."""
    while tracer.undo:
        module, name, value = tracer.undo.pop()
        setattr(module, name, value)


def kernel_peak_bytes(tracer, kernels):
    """Peak traced allocation of the largest call of each kernel seen.

    tracemalloc slows every Python-level allocation, which would inflate
    the kernels' self time threefold, so the calls are replayed under it
    after the traced passes instead of being traced in place.
    """
    peak = 0
    for name, arg in sorted(tracer.kernel_args.items()):
        tracemalloc.start()
        try:
            getattr(kernels, name)(arg)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak
