"""The traced benchmark wraps dpmirror names; they must all still exist, and
a traced pass must count the work it ran. The seeded modules call no numpy
ufunc whose bits depend on numpy's CPU dispatch."""

import ast
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_spans_install_on_this_tree():
    # perfbench/spans.py replaces the functions it times by name (among them
    # optimizer.mirror_step, optimizer.sample_index, harness.private_sgd and
    # the draw_dataset aliases); a name deleted from dpmirror makes install
    # raise. It runs in a fresh interpreter so the wrappers stay out of this
    # test process.
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
        cwd=ROOT, env=benchmark_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def benchmark_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))


def test_traced_verify_pass_counts_every_trial(tmp_path):
    # spans.py wraps harness.simulate_tau and reads .trials off each result,
    # and wraps the audit to count its trials. A tiny traced verify pass
    # must exit as planned, pass every output check, and count 4 n values x
    # 1000 tau trials and 3 audits x 1e6 trials.
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", "verify", "--seed", "3", "--sizes", "tiny", "--trace"],
        cwd=tmp_path, env=benchmark_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exits"] == {"tau-sim": 0, "audit-calibrated-00": 0,
                               "audit-calibrated-01": 0, "audit-deflated": 4}
    failed = [check for check in result["checks"] if not check[1]]
    assert result["checks"] and not failed, failed
    counts = result["trace"]["counts"]
    assert counts["sampler.tau_trials"] == 4000
    assert counts["privacy.audit_trials"] == 3_000_000


def test_benchmark_configs_use_only_run_keys():
    # The benchmark writes config files for `dpmirror run`; a key missing
    # from RUN_KEYS would make its runs exit 2.
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    from dpmirror.harness import RUN_KEYS

    for workload in ("grid", "grid-box"):
        plan = workloads.make_plan(workload, workloads.DEFAULT_SEED)
        for text in plan.configs.values():
            keys = {line.split("=", 1)[0].strip() for line in text.splitlines()}
            assert keys <= set(RUN_KEYS), keys - set(RUN_KEYS)


@pytest.mark.parametrize("workload", ["grid", "grid-box"])
def test_traced_grid_passes_run_clean(workload, tmp_path, monkeypatch):
    # spans.py wraps harness.baseline_minimizer and reads .budget_steps off
    # its result, and wraps estimate_risk, draw_dataset and the draws. A
    # tiny traced pass of each `run` workload, from config files written
    # by the benchmark itself, must exit 0 and pass every output check.
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    monkeypatch.chdir(tmp_path)
    workloads.write_configs(workloads.make_plan(workload, 3, "tiny"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", workload, "--seed", "3", "--sizes", "tiny", "--trace"],
        cwd=tmp_path, env=benchmark_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exits"] and set(result["exits"].values()) == {0}, result["exits"]
    failed = [check for check in result["checks"] if not check[1]]
    assert result["checks"] and not failed, failed
    runs = len(result["exits"])
    assert result["trace"]["counts"]["optimizer.baseline_steps"] == 10_000 * runs


def test_cli_import_loads_neither_scipy_nor_numpy_polynomial():
    # The benchmark times start-up through `import dpmirror.cli`; the
    # population risk's quadrature nodes come from losses._mapped_rule's own
    # Newton iteration, not numpy.polynomial, and scipy is only a test
    # dependency.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, dpmirror.cli; "
         "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith(('scipy.', "
         "'numpy.polynomial'))))"],
        env=benchmark_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# The modules whose arithmetic reaches seeded outputs (run, tau-sim, audit).
SEEDED_MODULES = ("geometry", "harness", "losses", "optimizer", "privacy", "sampler")
# numpy ufuncs whose float64 bits change with numpy's CPU dispatch (its
# AVX-512 loops on or off); sqrt, sin, cos, hypot and float_power do not.
DISPATCHED = re.compile(r"power|exp|exp2|expm1|log\w*|arc\w+|cbrt|tanh")
# Exponents numpy takes by a fast path instead of power: 2 is square, 0.5
# sqrt, -1 a division, 0 and 1 exact.
FAST_EXPONENTS = (-1, 0, 0.5, 1, 2)
# (module, source text) -> why that use stays. Empty: nothing is exempt.
EXEMPT = {}


def dispatched_uses(source):
    """Source text of every np.<dispatched ufunc>, and of every ** whose
    exponent is not a literal of FAST_EXPONENTS, in the given Python source."""
    def literal(node):
        try:
            return ast.literal_eval(node)
        except ValueError:
            return None

    return [ast.get_source_segment(source, node) for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy") and DISPATCHED.fullmatch(node.attr))
            or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and literal(node.right) not in FAST_EXPONENTS)]


@pytest.mark.parametrize("module", SEEDED_MODULES)
def test_seeded_modules_use_no_dispatched_ufunc(module):
    # Seeded bytes must be the same on every CPU numpy dispatches to (see
    # losses' module docstring); CI reruns the byte tests with numpy's
    # AVX-512 loops off.
    with open(os.path.join(ROOT, "src", "dpmirror", f"{module}.py")) as fh:
        uses = dispatched_uses(fh.read())
    assert [use for use in uses if (module, use) not in EXEMPT] == []
    assert [use for mod, use in EXEMPT if mod == module and use not in uses] == []


def test_dispatched_uses_are_found():
    source = ("import numpy as np\n"
              "x = np.exp(y) + np.arcsin(y) + np.log1p(y) + y ** d + y ** 3 + y ** -2\n"
              "z = y ** 2 + y ** 0.5 + y ** -1 + np.float_power(y, d) + np.sqrt(y)\n")
    assert sorted(dispatched_uses(source)) == sorted(
        ["np.exp", "np.arcsin", "np.log1p", "y ** d", "y ** 3", "y ** -2"])


# Classes and tests whose bytes are pinned; a rename that drops one of these
# from the -k expression below fails test_dispatch_reruns_select_every_byte_test.
BYTE_CLASSES = {"TestBatchGolden", "TestNoisyBytes", "TestCornerBytes", "TestFixedSlopeBytes",
                "TestCertificateBytes", "TestRiskRowsBytes", "TestGoldenOutputs"}


def byte_tests():
    """(file, class, test) of every test method of a *Bytes or *Golden class
    and every test named *digest* or *golden* in tests/, by reading the
    source."""
    found = set()
    tests_dir = os.path.join(ROOT, "tests")
    for name in sorted(os.listdir(tests_dir)):
        if not (name.startswith("test_") and name.endswith(".py")):
            continue
        with open(os.path.join(tests_dir, name)) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            owner = node.name if isinstance(node, ast.ClassDef) else None
            members = node.body if owner else [node]
            pinned = owner is not None and ("Bytes" in owner or "Golden" in owner)
            for member in members:
                if isinstance(member, ast.FunctionDef) and member.name.startswith("test") and (
                        pinned or "digest" in member.name or "golden" in member.name):
                    found.add((f"tests/{name}", owner, member.name))
    return found


def test_dispatch_reruns_select_every_byte_test():
    # CI reruns the byte tests under other OpenBLAS kernels and with numpy's
    # AVX-512 loops off, selected by one -k expression; every pinned test
    # must be among them.
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml")) as fh:
        workflow = fh.read()
    step = workflow.split("- name: Byte-identity tests", 1)[1].split("- name:", 1)[0]
    (expression,) = set(re.findall(r'-k "([^"]+)"', step))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "-k", expression, "tests"],
        cwd=ROOT, env=benchmark_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    selected = set()
    for line in proc.stdout.splitlines():
        parts = line.split("[", 1)[0].split("::")
        if len(parts) >= 2:
            selected.add((parts[0], parts[1] if len(parts) == 3 else None, parts[-1]))
    wanted = byte_tests()
    assert BYTE_CLASSES <= {owner for _, owner, _ in wanted}
    assert sorted(wanted - selected) == []
