"""Traced stand-in for `python -m latvol.cli`, used by the traced `cli` run.

Usage: PERFBENCH_SPANS=<file> python perfbench/cli_entry.py <latvol arguments>

Installs the layer wrappers, runs `latvol.cli.main` inside one `cli`
span and writes the spans and per-layer aggregates to the file named by
PERFBENCH_SPANS.  Stdout, stderr and the exit code are the CLI's own.
"""

import json
import os
import sys

import tracer as tracing


def main():
    import latvol.cli

    tr = tracing.Tracer()
    tracing.install(tr)
    tr.calls["cli"] += 1
    frame = tr.enter("cli", "main")
    try:
        rc = latvol.cli.main(sys.argv[1:])
    except BaseException:
        tr.exit(frame, True)
        raise
    else:
        tr.exit(frame, False)
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tr.state(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
