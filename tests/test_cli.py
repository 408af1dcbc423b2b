import json
from fractions import Fraction

from latvol import cli
from latvol.errors import InvariantError
from latvol.report import parse_csv

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
    header, rows = parse_csv(out)
    assert header == ["T", "count", "reference", "ratio"]
    assert rows[0][0] == "10" and rows[0][1] == "87"


def test_local_check_output(capsys):
    code, out, _ = run(capsys, "local-check", "--k", "2", "--p", "2")
    assert code == 0
    assert out == "k,p,value\n2,2,1/1\n"


def test_reduce_warning_example(capsys):
    code, out, _ = run(capsys, "reduce", "--matrix", "49,18;0,1")
    assert code == 0
    _, rows = parse_csv(out)
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
    _, rows = parse_csv(out)
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
    header, rows = parse_csv(target.read_text())
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
    code, out, err = run(capsys, "zeta", "--s", "1/2")
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "PreconditionError"
    assert doc["error"]["exit_code"] == 3


def test_zero_rank_and_negative_budget_exit_3(capsys):
    for argv in (
        ("abelian", "--k", "0"),
        ("reduce", "--matrix=1,0,0;0,1,0;0,0,2", "--k3-budget=-5"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert json.loads(err)["error"]["type"] == "PreconditionError"


def test_budget_exit_4(capsys):
    code, _, err = run(capsys, "cone-count", "--d-list", "100")
    assert code == 4
    assert json.loads(err)["error"]["type"] == "BudgetExceededError"


def test_invariant_exit_5(capsys, monkeypatch):
    def boom(k, p):
        raise InvariantError("forced for the exit-code contract")

    monkeypatch.setattr(cli.padic, "local_tamagawa_check", boom)
    code, _, err = run(capsys, "local-check", "--k", "2", "--p", "2")
    assert code == 5
    assert json.loads(err)["error"]["exit_code"] == 5


def test_spike_demo_default_scales(capsys):
    code, out, _ = run(capsys, "spike-demo", "--m", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][0] == "1/10" and rows[1][0] == "1/100"
    assert rows[0][4] == rows[0][2]
