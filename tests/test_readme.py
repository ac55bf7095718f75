"""The README's library quick start runs as written; its config keys are run's."""

import os
import re
import subprocess
import sys

import pytest

from dpmirror import cli
from dpmirror.harness import RUN_KEYS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return fh.read()


def test_quick_start_runs_and_prints_the_pinned_run():
    # The one ```python block of the README, in a fresh interpreter with src
    # on the import path. Seed 7 for the data and 123 for the run give
    # tau = 279 and the accountant's epsilon and delta_total for n = 400.
    (code,) = re.findall(r"```python\n(.*?)```", readme(), re.S)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    assert words[0] == "279"
    assert words[-2:] == ["0.5716922188849839", "2.00002777588773e-06"]


def test_config_section_names_every_run_key():
    # The example block's `key = value` lines plus the keys named on the
    # "Optional keys" line are exactly the keys `run` accepts.
    section = readme().split("### Config files", 1)[1].split("\n### ", 1)[0]
    (block,) = re.findall(r"```\n(.*?)```", section, re.S)
    example = re.findall(r"^(\w+) =", block, re.M)
    optional = section.split("\nOptional keys:", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"`([a-z_]+)`", optional)
    assert len(example) + len(named) == len(RUN_KEYS)
    assert set(example) | set(named) == set(RUN_KEYS)


def test_run_help_prints_every_meaning(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", "--help"])
    assert exit_info.value.code == 0
    # argparse rewraps help text, so compare with all whitespace removed.
    text = "".join(capsys.readouterr().out.split())
    for key, (_, _, meaning) in RUN_KEYS.items():
        assert "--" + key.replace("_", "-") in text
        assert "".join(meaning.split()) in text
