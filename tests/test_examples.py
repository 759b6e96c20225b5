"""Every script in ``examples/`` runs to completion against the current API.

The examples are the library's front door and nothing else imports them,
so an API change would otherwise break them silently.  Each one runs in a
subprocess with ``PYTHONPATH=src``, from a temporary directory and with
``TMPDIR`` pointing there, so nothing lands in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip(), f"{script.name} printed nothing"
