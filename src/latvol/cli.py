"""Command-line front end: one subcommand per experiment, CSV/JSON out."""

import argparse
import json
import sys
from fractions import Fraction

from . import dirichlet, fundomain, hnf, measure, padic, report
from .errors import K_CAP, InvariantError, LatvolError, PreconditionError


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from e


def _matrix(text):
    try:
        rows = tuple(
            tuple(int(x.strip()) for x in row.split(",")) for row in text.split(";")
        )
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            f"bad matrix {text!r}; expected 'a,b;c,d'"
        ) from e
    if not rows or any(len(r) != len(rows) for r in rows):
        raise argparse.ArgumentTypeError("matrix must be square")
    return rows


def _int_list(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from e


def _fraction_list(text):
    return [_fraction(x) for x in text.split(",")]


def _matrix_str(rows):
    return ";".join(",".join(str(e) for e in row) for row in rows)


def _cmd_count(args):
    return measure.volume_ratio_experiment(args.k, args.max_index)


def _cmd_count_by_index(args):
    rows = [(n, hnf.count_by_index(args.k, n)) for n in args.n]
    return report.Table("count_by_index", ("n", "count"), rows, {"k": args.k})


def _cmd_zeta(args):
    # riemann_zeta refuses an s too large for a float before float(s) sees it
    rows = []
    for s in args.s:
        value = dirichlet.riemann_zeta(s)
        rows.append((float(s), value))
    return report.Table("zeta", ("s", "value"), rows)


def _cmd_constant(args):
    return report.Table(
        "constant", ("k", "value"), [(args.k, dirichlet.volume_constant(args.k))]
    )


def _cmd_reduce(args):
    res = fundomain.reduce_to_F(args.matrix, k3_budget=args.k3_budget)
    row = (
        _matrix_str(args.matrix),
        _matrix_str(res.rep),
        _matrix_str(res.gamma),
        res.rep == args.matrix,
    )
    return report.Table("reduce", ("input", "rep", "gamma", "in_cone"), [row])


def _cmd_in_cone(args):
    flag = fundomain.in_cone_F(args.matrix, k3_budget=args.k3_budget)
    return report.Table(
        "in_cone", ("matrix", "in_cone"), [(_matrix_str(args.matrix), flag)]
    )


def _cmd_size(args):
    value = fundomain.size_sq(args.matrix, k3_budget=args.k3_budget)
    return report.Table("size", ("matrix", "size_sq"), [(_matrix_str(args.matrix), value)])


def _cmd_local_check(args):
    value = padic.local_tamagawa_check(args.k, args.p)
    return report.Table("local_check", ("k", "p", "value"), [(args.k, args.p, value)])


def _cmd_local_zeta(args):
    value = padic.local_zeta(args.k, args.p, args.s)
    return report.Table(
        "local_zeta", ("k", "p", "s", "value"), [(args.k, args.p, args.s, value)]
    )


def _cmd_singular(args):
    value = padic.singular_density(args.k, args.p, args.n)
    bound = Fraction(args.k, args.p**args.n)
    return report.Table(
        "singular",
        ("k", "p", "n", "density", "bound"),
        [(args.k, args.p, args.n, value, bound)],
    )


def _cmd_tamagawa(args):
    return padic.tamagawa_factors_table(args.k, args.p_max)


def _cmd_dirichlet_product(args):
    return dirichlet.product_error_table(args.t_list)


def _cmd_abelian(args):
    # s = k + 10^-m falls with m until it rounds to k, so m_max is checked by
    # its own s before the list exists; abelian_limit refuses a bad k first
    k, m_max = args.k, args.m_max
    s_list = []
    if 1 <= k <= K_CAP:
        if m_max < 1:
            raise PreconditionError("m_max must be >= 1")
        if k + 10.0**-m_max == k:
            raise PreconditionError("s must stay in the convergence region s > k")
        s_list = [k + 10.0**-m for m in range(1, m_max + 1)]
    return dirichlet.abelian_limit(k, s_list)


def _cmd_cone_count(args):
    rows = [(d, measure.cone_point_count(args.k, d)) for d in args.d_list]
    return report.Table("cone_count", ("D", "count"), rows, {"k": args.k})


def _cmd_spike_demo(args):
    return measure.spike_demo(args.m, args.r_list)


def _cmd_normalization(args):
    value = measure.normalization_constant(args.k)
    return report.Table("normalization", ("k", "value"), [(args.k, value)])


def _write_file(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise PreconditionError(f"cannot write {path!r}: {e.strerror or e}") from None


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = argparse.ArgumentParser(prog="latvol")
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, handler, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        sp.set_defaults(handler=handler)
        return sp

    sp = cmd("count", _cmd_count, help="sublattice counts against the volume term")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--max-index", type=_int_list, required=True)

    sp = cmd("count-by-index", _cmd_count_by_index, help="counts at exact index n")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=_int_list, required=True)

    sp = cmd("zeta", _cmd_zeta, help="Riemann zeta values")
    sp.add_argument("--s", type=_fraction_list, required=True)

    sp = cmd("constant", _cmd_constant, help="zeta(2)...zeta(k)/k")
    sp.add_argument("--k", type=int, required=True)

    for name, handler, blurb in (
        ("reduce", _cmd_reduce, "nearest-to-identity reduction"),
        ("in-cone", _cmd_in_cone, "test whether a matrix is its own reduced form"),
        ("size", _cmd_size, "squared Frobenius norm of the reduced form"),
    ):
        sp = cmd(name, handler, help=blurb)
        sp.add_argument("--matrix", type=_matrix, required=True)
        sp.add_argument("--k3-budget", type=int, default=None)

    sp = cmd("local-check", _cmd_local_check, help="exact local product identity")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = cmd("local-zeta", _cmd_local_zeta, help="local index zeta factor")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = cmd("singular", _cmd_singular, help="density of det = 0 mod p^n")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = cmd("tamagawa", _cmd_tamagawa, help="partial product converging to 1")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--p-max", type=int, required=True)

    sp = cmd("dirichlet-product", _cmd_dirichlet_product, help="sigma summatory error")
    sp.add_argument(
        "--t-list", type=_int_list, default=[10, 100, 1000, 10000, 100000]
    )

    sp = cmd("abelian", _cmd_abelian, help="(s-k) zeta(Z^k, s) near the pole")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--m-max", type=int, default=6)

    sp = cmd("cone-count", _cmd_cone_count, help="two-method cone point count")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--d-list", type=_int_list, default=[1, 2, 3, 4])

    sp = cmd("spike-demo", _cmd_spike_demo, help="measure-zero spikes keep counts")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--r-list", type=_fraction_list, default=[Fraction(1, 10), Fraction(1, 100)])

    sp = cmd("normalization", _cmd_normalization, help="per-lattice constant 1/k")
    sp.add_argument("--k", type=int, required=True)

    return p


def _fail(error, exit_code):
    """Write the one-line JSON error record to stderr; return the exit code."""
    record = {
        "error": {
            "type": type(error).__name__,
            "exit_code": exit_code,
            "message": str(error),
        }
    }
    sys.stderr.write(json.dumps(record) + "\n")
    return exit_code


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        table = args.handler(args)
        text = report.render(table, args.format)
        if args.output:
            _write_file(args.output, text)
    except LatvolError as e:
        return _fail(e, e.exit_code)
    except Exception as e:
        # last resort: an unexpected error is an internal failure, reported
        # in the same one-line record instead of a traceback
        return _fail(e, InvariantError.exit_code)
    if not args.output:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
