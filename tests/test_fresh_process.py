"""Fresh-process runs: the CLI runs end to end with small arguments, as
`python -m qpart.cli`, and importing the package loads no scipy (and,
without `qpart.checks`, no mpmath) and builds no enumeration table or
coefficient table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["gap-table", "--method", "all", "--n-max", "2"],
    ["painleve", "--branch", "x", "--n-max", "4"],
])
def test_cli_exits_0(args):
    proc = run_python("-m", "qpart.cli", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_import_loads_no_scipy():
    proc = run_python("-c", "import sys, qpart, qpart.cli, qpart.checks; "
                      "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_mpmath():
    # the OPUC engine runs in decimal; only qpart.checks reads mpmath
    proc = run_python("-c", "import sys, qpart; "
                      "print(sorted(m for m in sys.modules if m.startswith('mpmath')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_builds_no_enumeration_table():
    proc = run_python("-c", "import qpart, qpart.cli, qpart.checks; "
                      "from qpart import kernels, measures; "
                      "print(measures._enum_stats.cache_info().currsize, "
                      "measures._squared_table.cache_info().currsize, "
                      "kernels._j_gen.cache_info().currsize, "
                      "kernels._bessel.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 0 0 0"


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
