"""The demo scripts run clean against the package in src/.

Each demo runs in a fresh interpreter whose working directory and TMPDIR
are empty scratch directories; it must exit 0 and leave both empty.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_and_leaves_no_files(demo, tmp_path):
    work, tmp = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))
    proc = subprocess.run([sys.executable, str(demo)], cwd=work, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert list(work.iterdir()) == [] and list(tmp.iterdir()) == []
