"""The README's library quick start runs as written; its config keys are run's,
and its config echo rule is what `run` echoes."""

import os
import re
import subprocess
import sys

import pytest

from dpmirror import cli
from dpmirror.errors import ConfigurationError
from dpmirror.harness import RUN_KEYS, build_spec, spec_echo

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
    for key, spec in RUN_KEYS.items():
        assert "--" + key.replace("_", "-") in text
        assert "".join(spec.meaning.split()) in text


def documented_echo_keys():
    # "The config echo holds every `run` key that has a value once the run is
    # resolved, except <keys>, plus <keys>."
    rule = readme().split("The config echo holds every `run` key", 1)[1].split(".", 1)[0]
    left_out, added = rule.split(" except ", 1)[1].split(", plus ", 1)
    return set(RUN_KEYS) - set(re.findall(r"`(\w+)`", left_out)) \
        | set(re.findall(r"`(\w+)`", added))


@pytest.mark.parametrize("w_true", [None, "0.6,0.8"], ids=["w_true-default", "w_true-given"])
@pytest.mark.parametrize("sigma_override", [None, "0.5"], ids=["sigma-unset", "sigma-set"])
@pytest.mark.parametrize("generator", ["linear_margin", "uniform_ball"])
@pytest.mark.parametrize("feasible", [{"set": "l2_ball"},
                                      {"set": "box", "lower": "-1,-2", "upper": "3,0.5"}],
                         ids=["ball", "box"])
def test_echo_is_the_documented_keys_with_the_specs_values(feasible, generator,
                                                           sigma_override, w_true):
    given = {"generator": generator, "sigma_override": sigma_override, "w_true": w_true}
    overrides = {"n_values": "16,64", "epsilon_values": "max,0.01", "seed": "3",
                 **feasible, **{key: text for key, text in given.items() if text is not None}}
    if generator == "uniform_ball" and w_true is not None:
        with pytest.raises(ConfigurationError, match="config field w_true is not read"):
            build_spec(overrides)
        return
    spec = build_spec(overrides)
    echo = spec_echo(spec)
    unset = {"sigma_override"} if sigma_override is None else set()
    unset |= {"w_true"} if generator == "uniform_ball" else set()
    unset |= {"lower", "upper"} if feasible["set"] == "l2_ball" else set()
    assert set(echo) == documented_echo_keys() - unset
    population, oracle, fs = spec.population, spec.oracle, spec.feasible_set
    resolved = {"loss": oracle.kind, "lipschitz_L": oracle.lipschitz_L, "set": fs.kind,
                "diameter": fs.diameter(), "lower": fs.lower, "upper": fs.upper}
    for key, value in echo.items():
        held = resolved[key] if key in resolved else getattr(
            spec if hasattr(spec, key) else population, key)
        if hasattr(held, "tolist"):
            held = held.tolist()
        assert value == held and type(value) is type(held), key
    assert echo["noise_rate"] == (0.1 if generator == "linear_margin" else 0.0)
    if "w_true" in echo:
        assert echo["w_true"] == ([1.0, 0.0] if w_true is None else [0.6, 0.8])


def test_exit_code_sentences_name_exactly_clis_codes():
    # The README's and cli's "Exit codes: 0 success, 2 ..." sentences name
    # every cli.EXIT_* code and no other, so a removed code cannot linger.
    defined = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    for text, code in ((readme(), r"`(\d+)`"), (cli.__doc__, r"\b(\d+) ")):
        (sentence,) = re.findall(r"Exit codes:(.*?)\.\n", text, re.S)
        assert {int(value) for value in re.findall(code, sentence)} == defined
