"""The demos run as scripts against the package's source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def test_queue_analytics_demo():
    done = run_demo("queue_analytics.py")
    assert done.returncode == 0, done.stderr
    line = next(x for x in done.stdout.splitlines() if "(Little's identity)" in x)
    little, w = map(float, re.findall(r"= (\S+)", line))
    assert little == pytest.approx(w, rel=0.02)
