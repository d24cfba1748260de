"""The demo scripts run to completion against the library as it stands."""

import os
import subprocess
import sys

import pytest

import opalg

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "demos")


@pytest.mark.parametrize("script", ["rewriting_tour.py", "basis_check.py",
                                    "classification_run.py"])
def test_demo_exits_cleanly(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(opalg.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(DEMOS, script)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
