"""Every demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ttckit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # in a scratch working directory, since demo 02 writes its strip image there
    src = str(Path(ttckit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_every_demo_is_found():
    assert len(DEMOS) == 6
