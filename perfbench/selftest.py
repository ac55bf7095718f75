"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with the "tiny" sizes
and checks that each run prints a correct result line whose metrics are
exactly the ones BENCHMARK.json names, each a number with its unit; that
the output checks ran; and that the traced counts agree across layers.
Then it feeds doctored outputs to the output checks, which must reject
them, and runs the benchmark in a directory without dpmirror sources,
where it must fail without printing a result. Exits 1 if anything fails.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, workloads.OUTPUT_ROOT, "selftest")

# Checks each workload's passes must include (by name suffix).
EXPECTED_CHECKS = {
    "grid": (".bound_satisfied", ".no_overrun", ".mean_tau", ".exit"),
    "grid-box": (".bound_satisfied", ".no_overrun", ".mean_tau", ".exit"),
    "verify": (".mean_tau", ".exceed_2n", "audit-deflated.exit"),
}

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")
    return condition


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--sizes", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(bench, workload, trace):
    tag = f"{workload} trace={trace}"
    proc = run_bench(workload, trace)
    if not expect(proc.returncode == 0, f"{tag}: exit {proc.returncode}\n{proc.stderr}"):
        return None
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
           f"{tag}: not correct: {last['failed']} of {last['attempted']} failed")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    expect(set(last["metrics"]) == set(wanted),
           f"{tag}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(last['metrics']) ^ set(wanted))}")
    for name, m in last["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and m["unit"] == wanted.get(name),
               f"{tag}: {name} = {m}")
    with open(os.path.join(ROOT, workloads.OUTPUT_ROOT, "results",
                           f"{workload}-s3-t{trace}.json")) as fh:
        record = json.load(fh)
    for p in record["passes"]:
        names = [c[0] for c in p["checks"]]
        for suffix in EXPECTED_CHECKS[workload]:
            expect(any(n.endswith(suffix) for n in names),
                   f"{tag}: {p['kind']} pass ran no {suffix} check")
    expect(bool(record["digests"]), f"{tag}: no output digests")
    return last["metrics"]


def check_layers(workload, m):
    value = {name: v["value"] for name, v in m.items()}
    if workload == "verify":
        expect(value["optimizer.private_sgd.calls"] == 0, "verify called the optimizer")
        expect(value["privacy.audit_single_step.calls"] == 3, "verify: audit calls")
        expect(value["sampler.simulate_tau.total_s"] > 0, "verify: no simulate_tau time")
        return
    steps = value["optimizer.steps"]
    expect(steps > 0, f"{workload}: no private steps")
    expect(value["sampler.sample_index.calls"] == steps == value["geometry.mirror_step.calls"],
           f"{workload}: one index draw and one mirror step per private step")
    expect(value["losses.subgradient.in_private_sgd.calls"]
           == round(value["optimizer.fresh_frac"] * steps),
           f"{workload}: one subgradient per fresh step")
    expect(value["optimizer.private_sgd.calls"] == 3 * 2 * (2 if workload == "grid" else 1),
           f"{workload}: private_sgd calls = cells x repeats")


def doctored(plan, label, filename, edit):
    """A copy of the plan whose command `label` reads an edited output file."""
    commands = []
    for cmd in plan.commands:
        if cmd.label == label:
            target = os.path.join(SCRATCH, label)
            shutil.rmtree(target, ignore_errors=True)
            shutil.copytree(cmd.output, target)
            path = os.path.join(target, filename)
            with open(path) as fh:
                data = json.load(fh)
            edit(data)
            with open(path, "w") as fh:
                json.dump(data, fh)
            cmd = dataclasses.replace(cmd, output=target)
        commands.append(cmd)
    return dataclasses.replace(plan, commands=tuple(commands))


def failed_checks(plan, exits):
    checks, _ = workloads.check_outputs(plan, exits)
    return {name for name, ok, _ in checks if not ok}


def check_rejections():
    os.chdir(ROOT)
    grid = workloads.make_plan("grid", 3, "tiny")
    ok_exits = {c.label: c.expected_exit for c in grid.commands}
    expect(not failed_checks(grid, ok_exits), "grid: true outputs fail their checks")

    def break_cells(summary):
        summary["cells"][0]["bound_satisfied"] = False
        summary["cells"][1]["mean_tau"] += 50.0
        summary["cells"][2]["overrun_runs"] = 1

    bad = failed_checks(doctored(grid, "grid-d2", "summary.json", break_cells), ok_exits)
    for name in ("grid-d2.n100.bound_satisfied", "grid-d2.n400.mean_tau",
                 "grid-d2.n1600.no_overrun"):
        expect(name in bad, f"check {name} accepted a doctored output")
    bad = failed_checks(grid, dict(ok_exits, **{"grid-d10": 5}))
    expect("grid-d10.exit" in bad, "an overrun exit code passed")

    verify = workloads.make_plan("verify", 3, "tiny")
    ok_exits = {c.label: c.expected_exit for c in verify.commands}
    expect(not failed_checks(verify, ok_exits), "verify: true outputs fail their checks")

    def break_tau(summary):
        summary["results"][1]["frac_exceed_2n"] = 0.002
        summary["results"][2]["mean_tau"] *= 1.05

    bad = failed_checks(doctored(verify, "tau-sim", "tau_summary.json", break_tau), ok_exits)
    for name in ("tau-sim.n64.exceed_2n", "tau-sim.n256.mean_tau"):
        expect(name in bad, f"check {name} accepted a doctored output")
    bad = failed_checks(verify, dict(ok_exits, **{"audit-deflated": 0}))
    expect("audit-deflated.exit" in bad, "an unflagged deflated audit passed")

    expect(workloads.exceed_limit(64, 10_000) == 0, "exceed limit at n=64 should be 0")
    expect(1 <= workloads.exceed_limit(16, 10_000) <= 5, "exceed limit at n=16")
    mean, _ = workloads.tau_mean_var(16)
    expect(abs(mean - sum(16 / (16 - k) for k in range(9))) < 1e-12, "exact mean tau")


def check_bare_directory(bench):
    """Only BENCHMARK.json and the benchmark's own files: must fail, no result."""
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("grid", 0, cwd=bare)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect(not lines or not lines[-1].startswith("{"), "bare directory: printed a result")
    shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in workloads.WORKLOADS:
        check_run(bench, workload, 0)
        layers = check_run(bench, workload, 1)
        if layers:
            check_layers(workload, layers)
        print(f"{workload}: checked", flush=True)
    check_rejections()
    check_bare_directory(bench)
    print(f"selftest: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
