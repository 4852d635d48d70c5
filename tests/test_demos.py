"""Every script under demos/ runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hydrec

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(demo, tmp_path):
    src = str(Path(hydrec.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        "TMPDIR": str(tmp_path),  # demos/04 writes its artifacts under a temporary directory
    }
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
