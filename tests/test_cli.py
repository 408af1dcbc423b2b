import hashlib
import json
import time
from fractions import Fraction

import pytest

import helpers as H
from latvol import cli
from latvol.errors import K_CAP, InvariantError

SUBCOMMANDS = [
    "count",
    "count-by-index",
    "zeta",
    "constant",
    "reduce",
    "in-cone",
    "size",
    "local-check",
    "local-zeta",
    "singular",
    "tamagawa",
    "dirichlet-product",
    "abelian",
    "cone-count",
    "spike-demo",
    "normalization",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_all_subcommands_registered():
    parser = cli.build_parser()
    actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    assert sorted(actions[0].choices) == sorted(SUBCOMMANDS)


def test_count_example(capsys):
    code, out, err = run(capsys, "count", "--k", "2", "--max-index", "10")
    assert code == 0 and err == ""
    header, rows = H.parse_csv(out)
    assert header == ["T", "count", "reference", "ratio"]
    assert rows[0][0] == "10" and rows[0][1] == "87"


def test_local_check_output(capsys):
    code, out, _ = run(capsys, "local-check", "--k", "2", "--p", "2")
    assert code == 0
    assert out == "k,p,value\n2,2,1/1\n"


def test_reduce_warning_example(capsys):
    code, out, _ = run(capsys, "reduce", "--matrix", "49,18;0,1")
    assert code == 0
    _, rows = H.parse_csv(out)
    assert rows[0][1] == "5,-3;3,8"
    assert rows[0][3] == "false"


def test_json_output_parses(capsys):
    code, out, _ = run(
        capsys, "tamagawa", "--k", "2", "--p-max", "10", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "tamagawa"
    assert doc["params"] == {"k": 2}
    assert doc["columns"] == ["p", "factor", "partial_product"]
    assert [r[0] for r in doc["rows"]] == [2, 3, 5, 7]
    assert doc["rows"][0][1] == "3/4"


def test_csv_round_trip_exact(capsys):
    code, out, _ = run(capsys, "singular", "--k", "2", "--p", "2", "--n", "2")
    assert code == 0
    _, rows = H.parse_csv(out)
    assert Fraction(rows[0][3]) == Fraction(11, 32)
    assert Fraction(rows[0][4]) == Fraction(1, 2)


def test_determinism(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "abelian", "--k", "2", "--m-max", "4")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run(
        capsys, "zeta", "--s", "2,3", "--output", str(target)
    )
    assert code == 0 and out == ""
    header, rows = H.parse_csv(target.read_text())
    assert header == ["s", "value"]
    assert abs(float(rows[0][1]) - 1.6449340668482264) < 1e-12


def test_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "reduce", "--matrix", "1,x;0,1")
    assert code == 2
    code, _, _ = run(capsys, "count", "--k", "2")  # missing required flag
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_precondition_exit_3(capsys):
    # 1e400 is an exact rational whose float conversion overflows, and
    # 1 + 10^-32 an s above the pole that float() rounds to 1.0
    for s, message in (
        ("1/2", "zeta is evaluated for s > 1 only"),
        ("1e400", "|s| is too large for a float"),
        ("1.00000000000000000000000000000001", "s is too close to the pole at 1 for a float"),
    ):
        code, out, err = run(capsys, "zeta", "--s", s)
        assert code == 3 and out == "", s
        doc = json.loads(err)
        assert doc["error"]["type"] == "PreconditionError"
        assert doc["error"]["exit_code"] == 3
        assert doc["error"]["message"] == message


def test_unwritable_output_exit_3(tmp_path, capsys):
    for target in (tmp_path / "missing" / "t.csv", tmp_path):
        code, out, err = run(capsys, "constant", "--k", "2", "--output", str(target))
        assert code == 3 and out == "", target
        assert err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"]["type"] == "PreconditionError"
        assert doc["error"]["exit_code"] == 3
    assert not (tmp_path / "missing").exists()


def test_count_does_not_import_numpy():
    # numpy is imported only by the kernels that build arrays
    script = (
        "import sys\n"
        "from latvol import cli\n"
        "code = cli.main(['count', '--k', '2', '--max-index', '100'])\n"
        "sys.stderr.write(f'{code} {\"numpy\" in sys.modules}')\n"
    )
    res = H.run_python("-c", script)
    assert res.stderr == "0 False"


def test_cold_runs_do_not_import_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize on every cold run
    for argv in (("constant", "--k", "2"), ("tamagawa", "--k", "3", "--p-max", "50")):
        res = H.run_python("-X", "importtime", "-m", "latvol.cli", *argv)
        assert res.returncode == 0, res.stderr
        loaded = {line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()}
        assert {"latvol.report", "latvol.padic", "fractions"} <= loaded
        assert not loaded & {"dataclasses", "inspect"}, argv


def test_tamagawa_golden_bytes(capsys):
    # SHA-256 of stdout, pinned before the table was built from integer terms
    golden = [
        ("--k 3 --p-max 20000", "968e2df33b8332c68084f4daf12a79208e9ee41e77c22ee97dc0194e00852297"),
        (
            "--k 3 --p-max 20000 --format json",
            "44e5ce4960f54f5a2216b1c177dc8f64d553d5aea1112c9cb57d99a3b419c280",
        ),
        ("--k 2 --p-max 100000", "b25d61270d87fb7fd9b69eb56fafc7f58d06ad5e229bfade9ec46684240476d5"),
    ]
    for argv, digest in golden:
        code, out, err = run(capsys, "tamagawa", *argv.split())
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_zero_rank_and_negative_budget_exit_3(capsys):
    for argv in (
        ("abelian", "--k", "0"),
        ("reduce", "--matrix=1,0,0;0,1,0;0,0,2", "--k3-budget=-5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert json.loads(err)["error"]["type"] == "PreconditionError"


def test_budget_exit_4(capsys):
    for argv in (
        ("cone-count", "--d-list", "100"),
        # about 2 * 10^11 hyperbola blocks: refused before the first one
        ("count", "--k", "2", "--max-index", str(10**22)),
        ("normalization", "--k", str(K_CAP + 1)),
        # count-by-index factors n by capped trial division, and caps k
        ("count-by-index", "--k", "2", "--n", str(10**30)),
        ("count-by-index", "--k", "2000", "--n", "2"),
        # the k = 2 disc search charges each row before it scans it
        ("reduce", "--matrix", f"{10**12},0;0,1"),
        ("reduce", "--matrix", f"{10**320},0;0,1"),
        # k = 3 counts short vectors as they are listed, not after
        ("reduce", "--matrix", "1000,0,0;0,1,0;0,0,1", "--k3-budget", "1000"),
        # the k = 3 radius is set in integers, so a det beyond any float
        # meets the budget like any other
        ("reduce", "--matrix", f"{10**320},0,0;0,1,0;0,0,1", "--k3-budget", "1000"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == "", argv
        assert json.loads(err)["error"]["type"] == "BudgetExceededError"


@pytest.mark.parametrize(
    "argv",
    [
        # without the shared k cap and the capped trial division behind
        # is_prime, each of these four runs for more than 10 s
        ("local-check", "--k", "20000", "--p", "2"),
        ("local-zeta", "--k", "30000", "--p", "2", "--s", "30001"),
        ("tamagawa", "--k", "3000", "--p-max", "3"),
        ("local-check", "--k", "2", "--p", str(10**18 + 3)),
        # s is capped like k, and the enumeration refuses a large n before
        # it forms p^(n k^2)
        ("local-zeta", "--k", "2", "--p", "3", "--s", str(K_CAP + 1)),
        ("singular", "--k", str(10**5), "--p", "2", "--n", "1"),
        ("singular", "--k", "2", "--p", "2", "--n", str(10**9)),
    ],
)
def test_padic_caps_exit_4_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0, argv
    assert code == 4 and out == "", argv
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "BudgetExceededError"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        # 97^5050 and 97^5049 have over 10,000 digits
        ("local-zeta", "--k", "100", "--p", "97", "--s", "100"),
        ("tamagawa", "--k", "100", "--p-max", "100"),
    ],
)
def test_unprintable_cell_exit_4(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 4 and out == "", argv
    record = json.loads(err)["error"]
    assert record["type"] == "BudgetExceededError"
    assert "4300 digits" in record["message"]


def test_unprintable_tamagawa_table_refused_quickly(capsys):
    # the 1,229 factors at k = 100 take about 15 s to build, and the last
    # one cannot print, so the table is refused before the first is built
    records = []
    for fmt in ("csv", "json"):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "tamagawa", "--k", "100", "--p-max", "10000", "--format", fmt
        )
        assert time.perf_counter() - start < 1.0, fmt
        assert code == 4 and out == "", fmt
        records.append(err)
    assert records[0] == records[1] and records[0].count("\n") == 1
    assert json.loads(records[0])["error"] == {
        "type": "BudgetExceededError",
        "exit_code": 4,
        "message": "integer cell longer than 4300 digits",
    }


def test_invariant_exit_5(capsys, monkeypatch):
    def boom(k, p):
        raise InvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli.padic, "local_tamagawa_check", boom)
    code, _, err = run(capsys, "local-check", "--k", "2", "--p", "2")
    assert code == 5
    assert json.loads(err)["error"]["exit_code"] == 5


def test_unexpected_error_exit_5(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "_cmd_constant", boom)
    code, out, err = run(capsys, "constant", "--k", "2")
    assert code == 5 and out == ""
    assert err.count("\n") == 1
    doc = json.loads(err)
    assert doc["error"] == {
        "type": "RuntimeError",
        "exit_code": 5,
        "message": "forced for the exit-code contract",
    }


def test_spike_demo_default_scales(capsys):
    code, out, _ = run(capsys, "spike-demo", "--m", "3")
    assert code == 0
    _, rows = H.parse_csv(out)
    assert rows[0][0] == "1/10" and rows[1][0] == "1/100"
    assert rows[0][4] == rows[0][2]
