"""The README's library quick start runs as written."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_quick_start_runs_and_prints_the_pinned_run():
    # The one ```python block of the README, in a fresh interpreter with src
    # on the import path. Seed 7 for the data and 123 for the run give
    # tau = 279 and the accountant's epsilon and delta_total for n = 400.
    with open(os.path.join(ROOT, "README.md")) as fh:
        (code,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    assert words[0] == "279"
    assert words[-2:] == ["0.5716922188849839", "2.00002777588773e-06"]
