"""One benchmark pass in a fresh single-threaded interpreter.

Started by run.py from the checkout root with `src` on PYTHONPATH. It imports
dpmirror, parses the workload's config files, then prints `ready <json>` so
the parent can time set-up. With --setup-only it then exits; with
--reference it prints `ready` before importing dpmirror and exits, so that
its start-up is the reference the parent rescales set-up times by.
Otherwise it runs the workload's commands one after another through
`dpmirror.cli.main(argv)`, each under a pace.Sampler, checks the outputs,
and prints one JSON line with the pass result.

With --trace, dpmirror's public functions are wrapped by spans.Recorder
before the first command, and the spans are written to --spans.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import pace
import spans
import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import numpy
    if args.reference:
        print("ready {}", flush=True)
        return

    from dpmirror import cli
    from dpmirror.harness import build_spec, parse_kv_file

    plan = workloads.make_plan(args.workload, args.seed, args.sizes)
    for path in plan.configs:
        build_spec(dict(parse_kv_file(path), seed=str(args.seed)))
    print("ready " + json.dumps({"numpy": numpy.__version__,
                                 "python": sys.version.split()[0]}), flush=True)
    if args.setup_only:
        return

    shutil.rmtree(os.path.join(plan.workdir, "out"), ignore_errors=True)
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)

    exits, seconds, reference_s = {}, {}, {}
    start, cpu_start = time.perf_counter(), time.process_time()
    for cmd in plan.commands:
        with pace.Sampler() as sampler:
            began = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    exits[cmd.label] = cli.main(list(cmd.argv))
            except Exception:
                traceback.print_exc()
                exits[cmd.label] = "exception"
            seconds[cmd.label] = time.perf_counter() - began
        reference_s[cmd.label] = sampler.reference_s()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        checks, items = workloads.check_outputs(plan, exits)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        checks, items = [("outputs.readable", False, repr(exc))], {}
    # Command times at the reference speed (pace.py); `wall_raw_s` also
    # holds the reference samples taken between commands.
    ref_s = {label: pace.at_reference(seconds[label], reference_s[label]) for label in seconds}
    kind_seconds = {}
    for cmd in plan.commands:
        kind_seconds[cmd.kind] = kind_seconds.get(cmd.kind, 0.0) + ref_s[cmd.label]

    result = {"wall_s": sum(ref_s.values()), "wall_raw_s": wall, "cpu_s": cpu,
              "peak_rss_mb": peak_rss_mb, "exits": exits, "command_s": ref_s,
              "command_raw_s": seconds, "reference_s": reference_s,
              "kind_s": kind_seconds, "items": items,
              "checks": checks, "digests": workloads.digests(plan)}
    if recorder is not None:
        result["trace"] = recorder.summary()
        if args.spans:
            recorder.write_spans(args.spans)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
