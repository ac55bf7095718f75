"""Span recorder for the traced benchmark run, and the per-layer metrics.

`install` replaces dpmirror's public functions with timing wrappers where
their callers look them up (e.g. `harness.private_sgd`, `optimizer.mirror_step`,
`LossOracle.subgradient`); nothing in dpmirror itself changes. Each call
becomes a span with a name, start, end and parent span. Spans are kept in
memory and written out when the traced process ends: per (parent, name)
totals for every span, and individual span records for all but the
per-step names, which run hundreds of thousands of times per pass.

A span's self time is its duration minus the time covered by its child
spans.
"""

import inspect
import json
import time

PER_STEP = frozenset({"sampler.sample_index", "geometry.mirror_step",
                      "geometry.project", "losses.subgradient"})


class Recorder:
    def __init__(self):
        self._stack = [["root", 0.0, 0]]   # [name, child seconds, span id]
        self._next_id = 1
        self.totals = {}                   # (parent, name) -> [calls, total_s, self_s]
        self.spans = []                    # (id, parent id, name, start, end)
        self.counts = {}

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name, fn, count=None):
        stack, totals, spans = self._stack, self.totals, self.spans
        keep = name not in PER_STEP
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, 0]
            if keep:
                frame[2] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.add(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                row = totals.get((parent[0], name))
                if row is None:
                    row = totals[(parent[0], name)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if keep:
                    spans.append((frame[2], parent[2], name, start, end))
            if count is not None:
                count(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """JSON-ready per-(parent, name) totals and counters."""
        return {"totals": [[p, n, *row] for (p, n), row in sorted(self.totals.items())],
                "counts": dict(sorted(self.counts.items()))}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent_id, "name": name,
                                     "start": start, "end": end}) + "\n")


def _count_run(rec, args, kwargs, trace):
    rec.add("optimizer.steps", trace.tau)
    rec.add("optimizer.fresh_steps", len(trace.fresh_step_times))


def _count_baseline(rec, args, kwargs, result):
    rec.add("optimizer.baseline_steps", result.budget_steps)


def _count_tau(rec, args, kwargs, stats):
    rec.add("sampler.tau_trials", stats.trials)


def install(rec):
    """Wrap every traced dpmirror function in place; call once per process."""
    from dpmirror import cli, geometry, harness, losses, optimizer

    audit_params = inspect.signature(cli.audit_single_step)

    def count_audit(rec, args, kwargs, result):
        rec.add("privacy.audit_trials",
                audit_params.bind(*args, **kwargs).arguments["trials"])

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "run_and_write", "harness.run_and_write", None),
        (cli, "run_tau_sim", "harness.run_tau_sim", None),
        (cli, "audit_single_step", "privacy.audit_single_step", count_audit),
        (cli, "write_audit_csv", "harness.write.audit_csv", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "write_cells_csv", "harness.write.cells_csv", None),
        (harness, "write_summary_json", "harness.write.summary_json", None),
        (harness, "end_to_end", "privacy.end_to_end", None),
        (harness, "private_sgd", "optimizer.private_sgd", _count_run),
        (harness, "baseline_minimizer", "optimizer.baseline_minimizer", _count_baseline),
        (harness, "estimate_regret", "optimizer.estimate_regret", None),
        (harness, "estimate_risk", "optimizer.estimate_risk", None),
        (harness, "draw_dataset", "losses.draw_dataset", None),
        (harness, "simulate_tau", "sampler.simulate_tau", _count_tau),
        (optimizer, "sample_index", "sampler.sample_index", None),
        (optimizer, "mirror_step", "geometry.mirror_step", None),
        (optimizer, "draw_dataset", "losses.draw_dataset", None),
        (optimizer, "draw_arrays", "losses.draw_arrays", None),
        (losses, "draw_arrays", "losses.draw_arrays", None),
        (geometry.FeasibleSet, "project", "geometry.project", None),
        (losses.LossOracle, "subgradient", "losses.subgradient", None),
        (losses.LossOracle, "batch_values", "losses.batch_values", None),
    ]
    for owner, attr, name, count in targets:
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), count))


# ---- per-layer metrics -----------------------------------------------------

def _per(total, count, scale):
    return total * scale / count if count else 0.0


def layer_metrics(summary):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    by_name, by_pair = {}, {}
    for parent, name, calls, total, self_s in summary["totals"]:
        by_pair[(parent, name)] = (calls, total)
        row = by_name.setdefault(name, [0, 0.0, 0.0])
        row[0] += calls
        row[1] += total
        row[2] += self_s
    counts = summary["counts"]

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return by_name.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return by_name.get(name, (0, 0.0, 0.0))[2]

    steps = counts.get("optimizer.steps", 0)
    metrics = {
        "optimizer.private_sgd.calls": (calls("optimizer.private_sgd"), "count"),
        "optimizer.private_sgd.total_s": (total("optimizer.private_sgd"), "s"),
        "optimizer.private_sgd.self_s": (self_time("optimizer.private_sgd"), "s"),
        "optimizer.private_sgd.us_per_step":
            (_per(total("optimizer.private_sgd"), steps, 1e6), "us"),
        "optimizer.steps": (steps, "count"),
        "optimizer.fresh_frac": (_per(counts.get("optimizer.fresh_steps", 0), steps, 1.0),
                                 "ratio"),
        "optimizer.overrun_runs":
            (counts.get("optimizer.private_sgd.raised.OverrunError", 0), "count"),
        "optimizer.baseline_minimizer.total_s": (total("optimizer.baseline_minimizer"), "s"),
        "optimizer.baseline_minimizer.us_per_step":
            (_per(total("optimizer.baseline_minimizer"),
                  counts.get("optimizer.baseline_steps", 0), 1e6), "us"),
        "optimizer.estimate_regret.total_s": (total("optimizer.estimate_regret"), "s"),
        "optimizer.estimate_risk.total_s": (total("optimizer.estimate_risk"), "s"),
        "geometry.mirror_step.calls": (calls("geometry.mirror_step"), "count"),
        "geometry.mirror_step.total_s": (total("geometry.mirror_step"), "s"),
        "geometry.project.calls": (calls("geometry.project"), "count"),
        "geometry.project.total_s": (total("geometry.project"), "s"),
        "sampler.sample_index.calls": (calls("sampler.sample_index"), "count"),
        "sampler.sample_index.total_s": (total("sampler.sample_index"), "s"),
        "sampler.simulate_tau.total_s": (total("sampler.simulate_tau"), "s"),
        "sampler.simulate_tau.us_per_trial":
            (_per(total("sampler.simulate_tau"), counts.get("sampler.tau_trials", 0), 1e6),
             "us"),
        "losses.subgradient.calls": (calls("losses.subgradient"), "count"),
        "losses.subgradient.total_s": (total("losses.subgradient"), "s"),
    }
    for parent in ("private_sgd", "baseline_minimizer"):
        pair_calls, pair_total = by_pair.get((f"optimizer.{parent}", "losses.subgradient"),
                                             (0, 0.0))
        metrics[f"losses.subgradient.in_{parent}.calls"] = (pair_calls, "count")
        metrics[f"losses.subgradient.in_{parent}.total_s"] = (pair_total, "s")
    metrics.update({
        "losses.draw_dataset.total_s": (total("losses.draw_dataset"), "s"),
        "losses.draw_arrays.total_s": (total("losses.draw_arrays"), "s"),
        "losses.batch_values.total_s": (total("losses.batch_values"), "s"),
        "privacy.audit_single_step.calls": (calls("privacy.audit_single_step"), "count"),
        "privacy.audit_single_step.total_s": (total("privacy.audit_single_step"), "s"),
        "privacy.audit_single_step.ns_per_trial":
            (_per(total("privacy.audit_single_step"),
                  counts.get("privacy.audit_trials", 0), 1e9), "ns"),
        "privacy.end_to_end.calls": (calls("privacy.end_to_end"), "count"),
        "harness.run_experiment.self_s": (self_time("harness.run_experiment"), "s"),
        "harness.run_tau_sim.self_s": (self_time("harness.run_tau_sim"), "s"),
        "harness.write.total_s": (sum(total(n) for n in by_name
                                      if n.startswith("harness.write.")), "s"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_time("cli.main"), "s"),
    })
    return metrics


def exact_counts(summary):
    """Everything in a traced pass that must repeat exactly across passes."""
    counts = {f"{p}>{n}.calls": c for p, n, c, _, _ in summary["totals"]}
    counts.update(summary["counts"])
    return counts
