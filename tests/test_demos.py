"""Every demo runs to exit 0 in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import seaqt

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo):
    src = str(Path(seaqt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
