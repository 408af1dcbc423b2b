"""Byte-exact CLI output of every subcommand.

Each golden file holds one record per command line: argv, exit code,
stdout and stderr.

`cli_reduction_golden.json` was captured before the reduction search
moved to integer keys, and covers `reduce`, `in-cone`, `size` and
`cone-count` on k = 2 and k = 3 matrices, including the tie-heavy
diagonal fixed points diag(1, 1, n), the warning example 49,18;0,1, a
budget refusal (exit 4) and a missing budget (exit 3).

`cli_golden.json` covers the other twelve subcommands in both `csv` and
`json`, among them the zeta values at s >= 16 (`zeta`, `constant --k 16`,
`tamagawa --k 16`, `abelian --k 20`), plus a precondition refusal (exit 3)
and a budget refusal (exit 4).  Parse errors (exit 2) and `--help` are
left out: argparse's text differs between Python versions.
"""

import json
from pathlib import Path

from latvol import cli

HERE = Path(__file__).parent
GOLDENS = {"cli_reduction_golden.json": 131, "cli_golden.json": 39}


def test_commands_match_golden_output(capsys):
    for name, size in GOLDENS.items():
        cases = json.loads((HERE / name).read_text())
        assert len(cases) == size, name
        for case in cases:
            code = cli.main(list(case["argv"]))
            captured = capsys.readouterr()
            got = {"exit": code, "stdout": captured.out, "stderr": captured.err}
            want = {key: case[key] for key in got}
            assert got == want, case["argv"]
