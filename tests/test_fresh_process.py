"""Fresh-process runs: the CLI runs end to end with small arguments, as
`python -m qpart.cli`, only its `verify` command loads mpmath, and
importing the package loads no scipy (and, without `qpart.checks`, no
mpmath) and builds no enumeration table or coefficient table and keeps no
per-point state."""

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


def test_only_verify_loads_mpmath():
    # each command runs through runpy in one process, in this order; after
    # each, its exit code and whether any mpmath module is loaded so far
    commands = [["gap-table", "--method", "all", "--n-max", "2"], ["limit-shape"],
                ["painleve", "--branch", "x", "--n-max", "4"],
                ["painleve", "--branch", "y", "--n-max", "4"], ["verify", "--suite", "special"]]
    script = (
        "import contextlib, io, runpy, sys\n"
        f"for argv in {commands!r}:\n"
        "    sys.argv = ['qpart', *argv]\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            runpy.run_module('qpart.cli', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        print(argv[0], exc.code, any(m.startswith('mpmath') for m in sys.modules))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["gap-table 0 False", "limit-shape 0 False",
                                        "painleve 0 False", "painleve 0 False", "verify 0 True"]


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


def test_import_keeps_no_per_point_state():
    # the engine's store of runs, op_sequence results and symbol estimates
    # and the kernel's kept partial sums all start empty, so import does no work
    proc = run_python("-c", "import qpart, qpart.cli, qpart.checks; "
                      "from qpart import kernels, oppainleve as op; "
                      "print(len(op._longest), op.op_sequence.cache_info().currsize, "
                      "op._symbol_digits.cache_info().currsize, len(kernels._KEPT), "
                      "kernels._KEPT.nbytes)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 0 0 0 0"


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)
