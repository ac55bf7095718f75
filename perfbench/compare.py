"""Compare two benchmark files, workload by workload and layer by layer.

    python3 perfbench/compare.py BASE.json HEAD.json
    python3 perfbench/compare.py FILE.json          # one file: medians and spreads

Each file is one run's record (.perfbench/results/<workload>-s<seed>-t<trace>.json)
or a suite file from `run.py --workload all`. For every workload in both
files this prints each end-to-end metric's median and quartiles on both
sides with the difference and ratio head/base, marked `WORSE` where head is
worse than base by more than the metric's bound in BENCHMARK.json, then the
same for each per-layer metric, then whether the seeded output digests of
seeds run on both sides agree. Given one file, it prints each metric's
median, quartiles and spread (quartile distance over median) against the
metric's bound.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """{workload: {"runs": [untraced records], "traced": [traced records]}}."""
    with open(path) as fh:
        data = json.load(fh)
    if "workloads" in data:
        return data["workloads"]
    entry = {"runs": [], "traced": []}
    entry["traced" if data["trace"] else "runs"].append(data)
    return {data["workload"]: entry}


def values(records, name, sections):
    found = []
    for rec in records:
        for section in sections:
            if name in rec.get(section, {}):
                found.append(rec[section][name]["value"])
                break
    return found


def stats(vals):
    if not vals:
        return None
    mid = statistics.median(vals)
    if len(vals) < 2:
        return mid, mid, mid
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return mid, q1, q3


def fmt(s):
    if s is None:
        return "-"
    if s[1] == s[2]:
        return f"{s[0]:.6g}"
    return f"{s[0]:.6g} [{s[1]:.6g}, {s[2]:.6g}]"


def names(records, sections):
    seen = {}
    for rec in records:
        for section in sections:
            for name, m in rec.get(section, {}).items():
                seen.setdefault(name, m["unit"])
    return seen


# Untraced runs also record the rates and raw times ("rates"); traced runs
# report only per-layer metrics.
SECTIONS = (("end to end", "runs", ("metrics", "rates")),
            ("per layer (traced)", "traced", ("metrics",)))


def table(data, bench):
    """Median, quartiles and spread of every metric in one file."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload, entry in data.items():
        print(f"== {workload}: {len(entry['runs'])} runs + {len(entry['traced'])} traced")
        for title, key, sections in SECTIONS:
            for name, unit in names(entry[key], sections).items():
                mid, q1, q3 = stats(values(entry[key], name, sections))
                spread = (q3 - q1) / mid if mid else 0.0
                line = f"    {name:48s} {unit:6s} {fmt((mid, q1, q3)):34s} spread {spread:7.2%}"
                if name in bounds:
                    bound = bounds[name]
                    line += f"  bound {bound:.0%}: " + (
                        "ok" if spread < bound / 3 else "WIDE" if spread > bound
                        else "above a third of bound")
                print(line)
        print()


def compare(base, head, bench):
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    for workload in sorted(set(base) & set(head)):
        b, h = base[workload], head[workload]
        print(f"== {workload}: base {len(b['runs'])} runs + {len(b['traced'])} traced, "
              f"head {len(h['runs'])} runs + {len(h['traced'])} traced")
        for title, key, sections in SECTIONS:
            units = names(b[key] + h[key], sections)
            if not units:
                continue
            print(f"  {title}")
            print(f"    {'metric':48s} {'unit':6s} {'base median [q1, q3]':34s} "
                  f"{'head median [q1, q3]':34s} {'head-base':>11s} head/base")
            for name, unit in units.items():
                sb = stats(values(b[key], name, sections))
                sh = stats(values(h[key], name, sections))
                ratio = sh[0] / sb[0] if sb and sh and sb[0] else None
                delta = f"{sh[0] - sb[0]:+.4g}" if sb and sh else "-"
                mark = ""
                m = spec.get(name, {})
                if ratio is not None and "bound" in m:
                    worse = ratio > 1 + m["bound"] if m["better"] == "lower" \
                        else ratio < 1 - m["bound"]
                    mark = "  WORSE" if worse else "  ok"
                print(f"    {name:48s} {unit:6s} {fmt(sb):34s} {fmt(sh):34s} {delta:>11s} "
                      f"{'-' if ratio is None else f'{ratio:.4f}'}{mark}")
        base_digests = {r["seed"]: r.get("digests") for r in b["runs"] + b["traced"]}
        head_digests = {r["seed"]: r.get("digests") for r in h["runs"] + h["traced"]}
        for seed in sorted(set(base_digests) & set(head_digests)):
            db, dh = base_digests[seed], head_digests[seed]
            if db is None or dh is None:
                continue
            moved = sorted(k for k in set(db) | set(dh) if db.get(k) != dh.get(k))
            print(f"  seed {seed}: seeded outputs "
                  + ("identical" if not moved else "differ: " + ", ".join(moved)))
        print()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("head", nargs="?")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.head is None:
        table(load(args.base), bench)
    else:
        compare(load(args.base), load(args.head), bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
