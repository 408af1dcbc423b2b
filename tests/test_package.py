import os

import helpers as H
import latvol


def test_public_names_resolve():
    assert len(latvol.__all__) == len(set(latvol.__all__))
    missing = [name for name in latvol.__all__ if not hasattr(latvol, name)]
    assert missing == []


def test_import_loads_every_module():
    # `import latvol` loads every module of the package except the CLI
    # entry point and binds each as an attribute; callers (the benchmark
    # harness among them) look layers up in sys.modules right after it
    pkg = os.path.dirname(latvol.__file__)
    skip = ("__init__.py", "cli.py")
    names = sorted(f[:-3] for f in os.listdir(pkg) if f.endswith(".py") and f not in skip)
    assert {"hnf", "padic", "report"} <= set(names)
    script = (
        "import sys\n"
        "import latvol\n"
        f"names = {names!r}\n"
        "print([n for n in names if f'latvol.{n}' not in sys.modules\n"
        "       or not hasattr(latvol, n)])\n"
    )
    res = H.run_python("-c", script)
    assert res.stdout == "[]\n", res.stderr
