"""Demos 01-04 run to completion as scripts.

They exercise the public names end to end, so renaming or removing one
fails here rather than only when a reader runs the demo. Demo 05 (about
half a minute) stays out; the paths it adds, identity-factor ``init_tera``
and ``fit_recovery``, are covered by acceptance criterion 9.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
