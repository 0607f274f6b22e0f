"""Smoke test: every demo script runs to completion on the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gesturemetrics

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_three_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # the directory that holds the imported package: src/ in a checkout, or
    # site-packages when the tests run against an installed copy
    src = os.path.dirname(os.path.dirname(gesturemetrics.__file__))
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    assert not any(tmpdir.iterdir())
