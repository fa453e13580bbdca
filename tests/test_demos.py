"""Smoke test: every script in ``demos/`` runs to completion and prints."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import iocodes

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SOURCE = str(Path(iocodes.__file__).resolve().parent.parent)


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # run a copy, so that files a demo writes next to itself land in tmp_path
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
