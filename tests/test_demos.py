"""Smoke test: every walkthrough in demos/ runs to completion.

The demos drive the public API end to end (the bridge transport included),
so a change that breaks one shows here.  Each runs in its own interpreter
with its scratch files under the test's temporary directory.
"""

import os
import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
