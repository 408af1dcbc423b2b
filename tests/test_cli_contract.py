"""Property test of the CLI's exit-code contract.

Every well-formed command line either succeeds (exit 0, nothing on
stderr) or refuses with exit 3 (precondition) or 4 (budget): nothing on
stdout and exactly one JSON record on stderr naming the same exit code.
Arguments are drawn for all sixteen subcommands with small caps, so no
draw can allocate more than a few megabytes; budget refusals come from
the library's own caps.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers as H
from latvol import cli

ints = st.integers
small_rank = ints(-1, 6)
small_prime_like = ints(-3, 60)


def _csv(values):
    return ",".join(str(v) for v in values)


def _fractions(lo, hi, max_den=1000):
    return st.builds(lambda p, q: f"{p}/{q}", ints(lo, hi), ints(1, max_den))


def _render(rows, positive):
    # swapping the first two columns flips the sign of the determinant
    if positive and len(rows) > 1 and H.det(rows) < 0:
        rows = [[r[1], r[0], *r[2:]] for r in rows]
    return ";".join(_csv(r) for r in rows)


def _descending(texts):
    values = sorted(set(map(Fraction, texts)), reverse=True)
    return [f"{v.numerator}/{v.denominator}" for v in values]


def _matrix(k, lo, hi):
    row = st.lists(ints(lo, hi), min_size=k, max_size=k)
    return st.builds(_render, st.lists(row, min_size=k, max_size=k), st.booleans())


# 3 x 3 inputs: random small entries, and Hermite-like forms whose first
# column is long, which can exhaust a budget
_matrix3 = st.one_of(
    _matrix(3, -9, 9),
    st.builds(
        lambda n, a, b: f"{n},{a},{b};0,1,0;0,0,1", ints(1, 2000), ints(0, 50), ints(0, 50)
    ),
)

_budget = ints(-2, 10**5) | st.sampled_from([1, 10, 1000, 10**5])
_reduction_args = st.builds(
    lambda name, m: [name, f"--matrix={m[0]}"]
    + ([] if m[1] is None else [f"--k3-budget={m[1]}"]),
    st.sampled_from(["reduce", "in-cone", "size"]),
    st.one_of(
        st.tuples(_matrix(1, -20, 20), st.none()),
        st.tuples(_matrix(2, -1000, 1000), st.none() | _budget),
        st.tuples(_matrix3, st.none() | _budget),
        st.tuples(_matrix(4, -3, 3), st.none() | ints(0, 100)),
    ),
)

_commands = st.one_of(
    st.builds(
        lambda k, ts: ["count", f"--k={k}", f"--max-index={_csv(ts)}"],
        ints(-1, 4),
        st.lists(ints(-2, 10**4), min_size=1, max_size=3),
    ),
    st.builds(
        lambda k, ns: ["count-by-index", f"--k={k}", f"--n={_csv(ns)}"],
        ints(-1, 5),
        st.lists(ints(-2, 2000), min_size=1, max_size=3),
    ),
    st.builds(
        lambda ss: ["zeta", f"--s={','.join(ss)}"],
        st.lists(
            _fractions(-50, 5000, 100) | st.sampled_from(["1", "1e400", "-1e400", "1e12"]),
            min_size=1,
            max_size=3,
        ),
    ),
    st.builds(lambda k: ["constant", f"--k={k}"], ints(-2, 60)),
    _reduction_args,
    st.builds(
        lambda k, p: ["local-check", f"--k={k}", f"--p={p}"], ints(-1, 8), small_prime_like
    ),
    st.builds(
        lambda k, p, s: ["local-zeta", f"--k={k}", f"--p={p}", f"--s={s}"],
        small_rank,
        small_prime_like,
        ints(-3, 20),
    ),
    st.builds(
        lambda k, p, n: ["singular", f"--k={k}", f"--p={p}", f"--n={n}"],
        ints(-1, 3),
        ints(-1, 7),
        ints(-1, 3),
    ),
    st.builds(
        lambda k, p: ["tamagawa", f"--k={k}", f"--p-max={p}"], ints(0, 5), ints(-1, 3000)
    ),
    st.builds(
        lambda ts: ["dirichlet-product"] + ([] if ts is None else [f"--t-list={_csv(ts)}"]),
        st.none() | st.lists(ints(-2, 10**9), min_size=1, max_size=4),
    ),
    st.builds(
        lambda k, m: ["abelian", f"--k={k}", f"--m-max={m}"], small_rank, ints(-1, 20)
    ),
    st.builds(
        lambda k, ds: ["cone-count", f"--k={k}", f"--d-list={_csv(ds)}"],
        st.just(2) | ints(1, 3),
        st.lists(ints(-2, 70), min_size=1, max_size=2),
    ),
    st.builds(
        lambda m, rs: ["spike-demo", f"--m={m}", f"--r-list={','.join(rs)}"],
        ints(-2, 600),
        st.lists(_fractions(-2, 5), min_size=1, max_size=3)
        | st.lists(_fractions(1, 5), min_size=1, max_size=3).map(_descending),
    ),
    st.builds(lambda k: ["normalization", f"--k={k}"], ints(-2, 110)),
)

_argv = st.tuples(_commands, st.sampled_from(["csv", "json"]), st.booleans())


@settings(
    max_examples=400,
    deadline=timedelta(seconds=5),
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_argv)
def test_cli_exit_code_contract(drawn):
    argv, fmt, to_file = drawn
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out.txt"
        argv = argv + [f"--format={fmt}"] + ([f"--output={target}"] if to_file else [])
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 3, 4), (argv, code, err)
        if code == 0:
            assert err == "", argv
            assert (out == "") == to_file, argv
            if to_file:
                assert target.read_text() != "", argv
        else:
            assert out == "", argv
            assert err.endswith("\n") and err.count("\n") == 1, argv
            assert json.loads(err)["error"]["exit_code"] == code, argv
