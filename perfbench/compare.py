#!/usr/bin/env python3
"""Collects benchmark runs and compares two sets of them.

    python3 perfbench/compare.py collect --workload W --seeds 1-10 \\
        [--seconds S] [--trace 0|1] \\
        --side PARENT_CHECKOUT parent.jsonl --side . change.jsonl
    python3 perfbench/compare.py spread change.jsonl
    python3 perfbench/compare.py compare parent.jsonl change.jsonl

`collect` runs every seed once in each checkout given by --side (each
with its own perfbench/ and its own build under it) and appends one
record per run to that side's file: {"workload", "seed", "trace",
"result"}. The sides alternate which runs first from seed to seed, so
drift of the machine during the collection lands on both sides alike;
one --side collects a single set. `spread` prints, per workload and
end-to-end metric, the
median, quartiles and the quartile distance as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. `compare` applies the pairs rule: pairs are formed by
seed (runs of the same seed on both sides); a metric improved when the
change wins at least 9/10 of the pairs and the medians differ by more
than the parent's own quartile distance; regressed when the change's median is worse than the parent's
by more than the bound; unresolved when the parent's spread is wider
than the bound and not every change run beats every parent run;
unchanged otherwise. Per-layer metrics have no bound: they read
improved or worsened by the 9/10-pairs rule in either direction, else
unchanged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(benchmark, traced):
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m for m in benchmark[key]}


def quartiles(values):
    """(q1, median, q3) exactly as statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def read_runs(path):
    runs = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            runs.append(json.loads(line))
    return runs


def by_workload(runs):
    grouped = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def values_of(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if metric in r["result"]["metrics"]]


def verdict(parent, change, better, bound):
    """Pairs-rule verdict for one metric on one workload.

    `parent` and `change` map seed -> value; `bound` is None for a
    per-layer metric. Returns (verdict, pairs_won, pairs) from the
    change's point of view."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    won = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    lost = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    gain = sign * (c_med - p_med)
    if seeds and won >= 0.9 * len(seeds) and gain > (p_q3 - p_q1):
        return "improved", won, len(seeds)
    if bound is None:
        if seeds and lost >= 0.9 * len(seeds) and -gain > (p_q3 - p_q1):
            return "worsened", won, len(seeds)
        return "unchanged", won, len(seeds)
    if -gain > bound * abs(p_med):
        return "regressed", won, len(seeds)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound:
        all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
        if not all_better:
            return "unresolved", won, len(seeds)
    return "unchanged", won, len(seeds)


def side_order(sides, index):
    """The sides in the order the index-th seed runs them: as given for
    even indexes, reversed for odd ones."""
    return list(sides) if index % 2 == 0 else list(reversed(sides))


def cmd_collect(args):
    sides = [(Path(root).resolve(), Path(out)) for root, out in args.side]
    target = os.environ.get("CARGO_TARGET_DIR", "")
    if len(sides) > 1 and Path(target).is_absolute():
        print("collect: an absolute CARGO_TARGET_DIR would give every side "
              "the same build; unset it or make it relative",
              file=sys.stderr)
        return 2
    for index, seed in enumerate(parse_seeds(args.seeds)):
        for root, out in side_order(sides, index):
            command = [sys.executable, str(root / "perfbench" / "run.py"),
                       "--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                                 text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{root} seed {seed}: run failed "
                      f"(exit {run.returncode})", file=sys.stderr)
                return 1
            record = {"workload": args.workload, "seed": seed,
                      "trace": args.trace, "result": json.loads(lines[-1])}
            with out.open("a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{out} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in record["result"]["metrics"].items()))
    return 0


def cmd_spread(args):
    benchmark = load_benchmark()
    ok = True
    for workload, runs in sorted(by_workload(read_runs(args.runs)).items()):
        traced = bool(runs[0].get("trace", 0))
        specs = metric_specs(benchmark, traced)
        print(f"{workload} ({len(runs)} runs)")
        for name, spec in specs.items():
            vals = values_of(runs, name)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            share = spread_share(vals)
            bound = spec.get("bound")
            note = ""
            if bound is not None:
                steady = share < bound / 3
                note = f"bound {bound:.3f} {'steady' if steady else 'WIDE'}"
                if name != "setup_s" and not steady:
                    ok = False
            print(f"  {name:40s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {share:.4f} {note}")
    return 0 if ok else 1


def cmd_compare(args):
    benchmark = load_benchmark()
    parent_runs = by_workload(read_runs(args.parent))
    change_runs = by_workload(read_runs(args.change))
    for workload in sorted(set(parent_runs) & set(change_runs)):
        p_runs, c_runs = parent_runs[workload], change_runs[workload]
        traced = bool(p_runs[0].get("trace", 0))
        print(f"{workload}")
        for name, spec in metric_specs(benchmark, traced).items():
            p = {r["seed"]: r["result"]["metrics"][name]["value"]
                 for r in p_runs if name in r["result"]["metrics"]}
            c = {r["seed"]: r["result"]["metrics"][name]["value"]
                 for r in c_runs if name in r["result"]["metrics"]}
            if not p or not c:
                continue
            pq = quartiles(list(p.values()))
            cq = quartiles(list(c.values()))
            bound = spec.get("bound")
            result, won, pairs = verdict(p, c, spec["better"], bound)
            print(f"  {name:40s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                  f"  won {won}/{pairs}  {result}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    collect = sub.add_parser("collect")
    collect.add_argument("--workload", required=True)
    collect.add_argument("--seeds", required=True)
    collect.add_argument("--seconds", type=float,
                         default=load_benchmark()["run_seconds"])
    collect.add_argument("--trace", type=int, choices=(0, 1), default=0)
    collect.add_argument("--side", nargs=2, action="append", required=True,
                         metavar=("CHECKOUT", "OUT"),
                         help="a checkout to run and the file its runs are "
                              "appended to; repeat for each side")
    spread = sub.add_parser("spread")
    spread.add_argument("runs")
    compare = sub.add_parser("compare")
    compare.add_argument("parent")
    compare.add_argument("change")
    args = parser.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread,
            "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
