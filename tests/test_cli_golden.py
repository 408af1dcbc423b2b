"""Byte-exact CLI output of the reduction commands.

`cli_reduction_golden.json` holds one record per command line: argv, exit
code, stdout and stderr.  It was captured before the reduction search
moved to integer keys, and covers `reduce`, `in-cone`, `size` and
`cone-count` on k = 2 and k = 3 matrices, including the tie-heavy
diagonal fixed points diag(1, 1, n), the warning example 49,18;0,1, a
budget refusal (exit 4) and a missing budget (exit 3).
"""

import json
from pathlib import Path

from latvol import cli

GOLDEN = Path(__file__).with_name("cli_reduction_golden.json")


def test_reduction_commands_match_golden_output(capsys):
    cases = json.loads(GOLDEN.read_text())
    assert len(cases) == 131
    for case in cases:
        code = cli.main(list(case["argv"]))
        captured = capsys.readouterr()
        got = {"exit": code, "stdout": captured.out, "stderr": captured.err}
        want = {key: case[key] for key in got}
        assert got == want, case["argv"]
