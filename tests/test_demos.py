"""The demo scripts print exactly their recorded output.

Each script under ``demos/`` runs in a fresh interpreter; its stdout must
equal ``tests/demo_output/<script>.out`` byte for byte.  A change that
alters what a demo prints re-records that file on purpose.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
EXPECTED = os.path.join(ROOT, "tests", "demo_output")


@pytest.mark.parametrize(
    "name", sorted(f[:-3] for f in os.listdir(DEMOS) if f.endswith(".py"))
)
def test_demo_prints_its_recorded_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name + ".py")],
        cwd=ROOT, env=env, capture_output=True,
    )
    assert done.returncode == 0, done.stderr.decode()
    with open(os.path.join(EXPECTED, name + ".out"), "rb") as fh:
        assert done.stdout == fh.read()
