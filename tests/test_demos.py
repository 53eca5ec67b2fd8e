"""Smoke test: every script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    # demos write their files under tempfile's directory and must remove them
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{path}" if path else src,
           "TMPDIR": str(tmp_path)}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300, encoding="utf-8")
    assert done.returncode == 0, done.stderr
    assert not any(tmp_path.iterdir()), "the demo left files behind"
