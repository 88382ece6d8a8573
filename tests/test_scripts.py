"""Each script in scripts/ runs end to end with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("gap_convergence.py", ["--n-max", "2"]),
    ("limit_shape_profile.py", ["--points", "5", "--q", "0.9"]),
    ("recurrence_table.py", ["--n-max", "4"]),
])
def test_script_exits_0(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
