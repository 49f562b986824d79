#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark, one row per workload x metric.

    python3 perfbench/run.py --workload <w> --seed <n> --out base.jsonl   (repeat, parent commit)
    python3 perfbench/run.py --workload <w> --seed <n> --out new.jsonl    (repeat, the change)
    python3 perfbench/compare.py base.jsonl new.jsonl

Each row gives both sides' median and quartiles over their runs, the pair win
fraction and a verdict, by the rules of the choosing-metrics method:

  improved      the change wins at least 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the base's
                quartile distance
  unresolved    the base's run-to-run spread (quartile distance / median) is
                wider than the metric's bound, and not every run of the change
                is better than every base run
  regressed     the change's median is worse than the base's by more than the
                bound from BENCHMARK.json
  within bound  otherwise

Runs pair up by seed when both sides ran the same seeds, else in file order.
Only untraced (--trace 0) results are compared; error_rate is failed/attempted
summed over each side's runs.  Exits 1 when any row regressed.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["header"]["trace"]:
            continue
        runs.setdefault(record["header"]["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(base, new):
    base_seeds = [r["header"]["seed"] for r in base]
    new_seeds = [r["header"]["seed"] for r in new]
    if sorted(base_seeds) == sorted(new_seeds) and len(set(base_seeds)) == len(base_seeds):
        by_seed = {r["header"]["seed"]: r for r in new}
        return [(r, by_seed[r["header"]["seed"]]) for r in base]
    return list(zip(base, new))


def verdict(metric, base_values, new_values, paired):
    lower_better = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower_better else a > b

    b_q1, b_med, b_q3 = quartiles(base_values)
    _, n_med, _ = quartiles(new_values)
    wins = sum(1 for b, n in paired if better(n, b))
    win_fraction = wins / len(paired) if paired else 0.0
    spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    worse = (n_med - b_med) / b_med if lower_better else (b_med - n_med) / b_med
    all_better = all(better(n, b) for n in new_values for b in base_values)
    if win_fraction >= 0.9 and better(n_med, b_med) and abs(n_med - b_med) > b_q3 - b_q1:
        return "improved", win_fraction
    if spread > metric["bound"] and not all_better:
        return "unresolved", win_fraction
    if worse > metric["bound"]:
        return "regressed", win_fraction
    return "within bound", win_fraction


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare.py BASE.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    base_runs, new_runs = load(argv[1]), load(argv[2])
    header = (f"{'workload':17s} {'metric':12s} {'unit':5s} {'base median [q1, q3]':>36s} "
              f"{'new median [q1, q3]':>36s} {'wins':>5s}  verdict")
    print(header)
    print("-" * len(header))
    regressed = False
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[workload], new_runs[workload]
        paired = pairs(base, new)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_values = [r["result"]["metrics"][name]["value"] for r in base]
            n_values = [r["result"]["metrics"][name]["value"] for r in new]
            value_pairs = [(b["result"]["metrics"][name]["value"],
                            n["result"]["metrics"][name]["value"]) for b, n in paired]
            result, wins = verdict(metric, b_values, n_values, value_pairs)
            regressed |= result == "regressed"
            sides = [f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
                     for q1, med, q3 in (quartiles(b_values), quartiles(n_values))]
            print(f"{workload:17s} {name:12s} {metric['unit']:5s} {sides[0]:>36s} {sides[1]:>36s} "
                  f"{wins:>5.2f}  {result}")
        for side, runs in (("base", base), ("new", new)):
            attempted = sum(r["result"]["attempted"] for r in runs)
            failed = sum(r["result"]["failed"] for r in runs)
            print(f"{workload:17s} error_rate   {side}: {failed}/{attempted} = "
                  f"{failed / attempted:.3f} over {len(runs)} runs")
    for workload in sorted(set(base_runs) ^ set(new_runs)):
        print(f"{workload}: only in {'base' if workload in base_runs else 'new'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
