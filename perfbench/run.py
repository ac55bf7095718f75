"""dpmirror benchmark runner.

One run of one workload:

    python3 perfbench/run.py --workload grid --seed 7 --seconds 30 --trace 0

runs the workload's commands (see workloads.py) in fresh single-threaded
interpreters, one pass after another (a closed loop with one client),
until --seconds have passed (at least two passes). Every pass
runs the same seeded commands, so every pass must write byte-identical
outputs. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced passes with --trace 1.
Times are at the reference speed of pace.py, which takes the host's speed
swings out of them; the raw times are recorded beside them.
The full record (environment, every pass, every check, output digests)
goes to .perfbench/results/<workload>-s<seed>-t<trace>.json.

The whole suite (every workload at --runs seeds, plus one traced run each):

    python3 perfbench/run.py --workload all --runs 10 --out BENCH.json

Compare two result or suite files with perfbench/compare.py.
"""

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import compare
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS_DIR = os.path.join(workloads.OUTPUT_ROOT, "results")

SETUP_PROBES = 11       # set-up-only processes per run, for setup_s
# Start-up time of a reference worker (interpreter, the benchmark's modules
# and numpy, no dpmirror) that defines the reference speed for set-up: about
# its median on the machine pace.py names.
REFERENCE_SETUP_S = 0.15
MIN_PLAIN_PASSES = 2    # so output digests are compared within every run
RUN_BUDGET_S = 160.0    # a run starts no pass it cannot finish within this

# End-to-end metrics, measured on untraced passes: name -> unit.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}
# Rates each workload also records and prints, besides the raw times.
RATES = {"grid": ("steps_per_s",), "grid-box": ("steps_per_s",),
         "verify": ("tau_trials_per_s", "audit_trials_per_s")}
# Layer metrics in these units are times, rescaled to the reference speed.
TIME_UNITS = {"s", "us", "ns"}
# Worker modes that run a pass and print its result.
PASS_MODES = ("plain", "traced")


def median(values):
    return statistics.median(values) if values else 0.0


def environment(ready, sizes):
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": "unknown", "commit": "unknown", "dirty": None, "sizes": sizes}
    env.update(ready)
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        pass
    # Stop git at the checkout root: a checkout that is not a repository
    # must not report the commit of some enclosing one.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            env["commit"] = head.stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    env=git_env, capture_output=True, text=True,
                                    timeout=10)
            env["dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, sizes, deadline, mode, spans_path=None):
    """Start one worker; return (setup_s, ready info, pass result or None).

    setup_s runs from the spawn to the arrival of the worker's `ready` line:
    interpreter start, `import dpmirror` and config parsing, or for mode
    "reference" the same without dpmirror.
    """
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--sizes", sizes]
    if mode == "setup":
        argv.append("--setup-only")
    elif mode == "reference":
        argv.append("--reference")
    elif mode == "traced":
        argv += ["--trace", "--spans", spans_path]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    fd, buf, ready_at, code = proc.stdout.fileno(), b"", None, None
    try:
        while time.perf_counter() < deadline:
            if not select.select([fd], [], [], deadline - time.perf_counter())[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
                break
            buf += chunk
            if ready_at is None and b"\n" in buf:
                ready_at = time.perf_counter()
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = buf.decode().splitlines()
    if code != 0 or ready_at is None or not lines[0].startswith("ready "):
        print(f"worker ({mode}) exited with code {code}", file=sys.stderr)
        return None, {}, None
    ready = json.loads(lines[0][len("ready "):])
    result = json.loads(lines[-1]) if mode in PASS_MODES and len(lines) > 1 else None
    if mode in PASS_MODES and result is None:
        print(f"worker ({mode}) printed no result", file=sys.stderr)
    return ready_at - started, ready, result


def schedule(trace):
    """Pass kinds in order: untraced only, or untraced, traced, traced, ..."""
    if not trace:
        while True:
            yield "plain"
    yield "plain"
    while True:
        yield "traced"
        yield "traced"
        yield "plain"


def run_workload(workload, seed, seconds, trace, sizes):
    plan = workloads.make_plan(workload, seed, sizes)
    workloads.write_configs(plan)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{workload}-s{seed}-t{int(trace)}"
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S

    # Each set-up is rescaled by a reference worker's start-up right after
    # it: start-up slows less than the pace.py loop when the host is slow.
    setups, ready = [], {}
    for _ in range(SETUP_PROBES):
        setup_s, ready, _ = spawn(workload, seed, sizes, deadline, "setup")
        reference_s, _, _ = spawn(workload, seed, sizes, deadline, "reference")
        if setup_s is None or reference_s is None:
            return None
        setups.append((setup_s * REFERENCE_SETUP_S / reference_s, setup_s, reference_s))

    passes, longest = [], 0.0
    for kind in schedule(trace):
        plain = sum(p["kind"] == "plain" for p in passes)
        traced = len(passes) - plain
        enough = plain >= (1 if trace else MIN_PLAIN_PASSES) and traced >= (2 if trace else 0)
        elapsed = time.perf_counter() - started
        # Start another pass only if at least half of it fits in --seconds.
        if enough and (elapsed + longest / 2 > seconds or elapsed + longest > RUN_BUDGET_S):
            break
        spans_path = os.path.join(RESULTS_DIR, f"{tag}-pass{len(passes)}.spans.jsonl")
        began = time.perf_counter()
        setup_s, _, result = spawn(workload, seed, sizes, deadline, kind, spans_path)
        longest = max(longest, time.perf_counter() - began)
        passes.append({"kind": kind, "setup_s": setup_s, "result": result})
        if result is None:
            break
    return summarize(plan, trace, seconds, setups, passes, environment(ready, plan.sizes))


def summarize(plan, trace, seconds, setups, passes, env):
    """The run record, or None if no pass of the measured kind completed."""
    done = [p for p in passes if p["result"] is not None]
    plain = [p["result"] for p in done if p["kind"] == "plain"]
    traced = [p["result"] for p in done if p["kind"] == "traced"]
    if not (traced if trace else plain):
        return None
    attempted = len(passes)
    failed = len(passes) - len(done)
    failures = []
    for p in done:
        res = p["result"]
        attempted += len(res["checks"]) + res["items"].get("runs", 0)
        failed += res["items"].get("runs_overrun", 0)
        for name, ok, detail in res["checks"]:
            if not ok:
                failed += 1
                failures.append(f"{name}: {detail}")
    first = done[0]["result"]["digests"] if done else None
    for p in done[1:]:
        attempted += 1
        if p["result"]["digests"] != first:
            failed += 1
            failures.append(f"{p['kind']} pass: output digests differ from the first pass")
    if len(traced) > 1:
        counts = spans.exact_counts(traced[0]["trace"])
        for res in traced[1:]:
            attempted += 1
            if spans.exact_counts(res["trace"]) != counts:
                failed += 1
                failures.append("traced pass: call counts differ from the first traced pass")

    def per_pass(fn):
        return [fn(r) for r in plain]

    rate_of = {
        "steps_per_s": lambda r: r["items"].get("steps", 0) / r["wall_s"],
        "tau_trials_per_s": lambda r: _rate(r, "tau_trials", "tau-sim"),
        "audit_trials_per_s": lambda r: _rate(r, "audit_trials", "audit"),
    }
    rates = {name: (median(per_pass(rate_of[name])), "1/s") for name in RATES[plan.workload]}
    rates["ops_failed_frac"] = (failed / attempted, "ratio")
    rates["wall_raw_s"] = (median(per_pass(lambda r: r["wall_raw_s"])), "s")
    rates["setup_raw_s"] = (median([raw for _, raw, _ in setups]), "s")
    if trace:
        # Counts repeat exactly (checked above), so they come from one pass.
        layers = [_at_reference(spans.layer_metrics(r["trace"]), r) for r in traced]
        metrics = {name: (value if unit == "count" else median([m[name][0] for m in layers]),
                          unit)
                   for name, (value, unit) in layers[0].items()}
        plain_wall = median([r["wall_s"] for r in plain])
        traced_wall = median([r["wall_s"] for r in traced])
        metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0 if plain_wall else 0.0,
                                          "ratio")
    else:
        metrics = {
            "wall_s": median(per_pass(lambda r: r["wall_s"])),
            "setup_s": median([ref for ref, _, _ in setups]),
            "peak_rss_mb": median(per_pass(lambda r: r["peak_rss_mb"])),
            "ops_ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    return {
        "workload": plan.workload, "seed": plan.seed, "trace": int(trace),
        "seconds": seconds, "env": env,
        "correct": failed == 0, "attempted": attempted,
        "failed": failed, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "digests": first,
        "rates": {k: {"value": v, "unit": u} for k, (v, u) in rates.items()},
        "setup_s": [ref for ref, _, _ in setups],
        "setup_raw_s": [raw for _, raw, _ in setups],
        "setup_reference_s": [reference for _, _, reference in setups],
        "passes": [dict(p["result"] or {}, kind=p["kind"], setup_s=p["setup_s"])
                   for p in passes],
    }


def _at_reference(layers, result):
    """A traced pass's layer times, rescaled by its commands' reference speed."""
    scale = sum(result["command_s"].values()) / sum(result["command_raw_s"].values())
    return {name: (value * scale if unit in TIME_UNITS else value, unit)
            for name, (value, unit) in layers.items()}


def _rate(result, item, kind):
    busy = result["kind_s"].get(kind, 0.0)
    return result["items"].get(item, 0) / busy if busy else 0.0


def report(record):
    """Human-readable lines; the last line printed after them is the JSON."""
    print(f"dpmirror benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={len(record['passes'])} "
          f"setups={len(record['setup_s'])} commit={record['env']['commit'][:12]}")
    rows = dict(record["metrics"])
    if not record["trace"]:
        rows.update(record["rates"])
    for name, m in rows.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  checks: {record['attempted']} operations, {record['failed']} failed")
    for line in record["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)


def run_suite(args):
    """Every workload at --runs consecutive seeds, plus one traced run each."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    suite = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
             "sizes": args.sizes, "env": None, "workloads": {}}
    for workload in workloads.WORKLOADS:
        entry = suite["workloads"].setdefault(workload, {"runs": [], "traced": []})
        jobs = [(args.seed + i, 0) for i in range(args.runs)] + [(args.seed, 1)]
        for seed, trace in jobs:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--sizes", args.sizes]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_BUDGET_S + 60)
            path = os.path.join(ROOT, RESULTS_DIR, f"{workload}-s{seed}-t{trace}.json")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                                 f"exit {proc.returncode}")
            with open(path) as fh:
                record = json.load(fh)
            suite["env"] = suite["env"] or record["env"]
            record.pop("passes")
            entry["traced" if trace else "runs"].append(record)
            print(f"{workload} seed={seed} trace={trace} correct={record['correct']} "
                  f"failed={record['failed']}/{record['attempted']}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(suite, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}\n")
    compare.table(suite["workloads"], bench)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload (all)")
    parser.add_argument("--out", default=os.path.join(workloads.OUTPUT_ROOT, "BENCH.json"),
                        help="suite file to write (all)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "dpmirror", "__init__.py")):
        print(f"no dpmirror sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        run_suite(args)
        return 0

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.sizes)
    if record is None:
        print("no pass completed; no result", file=sys.stderr)
        return 1
    path = os.path.join(RESULTS_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    report(record)
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
