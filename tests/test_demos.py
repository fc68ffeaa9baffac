"""Each script in demos/ runs to completion in a fresh interpreter.

The demos call the public API the way a reader would, so a signature change
that breaks one shows here.  Each runs in its own temporary directory, since
some write their results to the working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import criticalgabor

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("demo_*.py"))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ)
    src = str(Path(criticalgabor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
