#!/usr/bin/env python3
"""Diffs bench_ledger results per (workload, metric). Standard library only.

    python3 bench/ledger/compare.py PARENT/results.json CHANGE/results.json
    python3 bench/ledger/compare.py --pairs P1.json C1.json P2.json C2.json ...

Plain mode pairs the two files' reps index by index. --pairs takes
alternating parent/change results.json files (one ledger run each, run in
alternating order) and uses each file's median as one sample.

Each row gets one verdict, following the choosing-metrics rules:
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (or a check failed);
  unresolved  the parent's or the change's quartile spread is wider than the
              bound, and not every change sample beats every parent sample;
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              inter-quartile range; a claim also needs at least 10 pairs;
  unchanged   otherwise.
Metrics without a bound (op_p90_s) are shown as info. Exits 1 when any row
is regressed or unresolved.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
ORACLE_TOL = 1e-4
MIN_PAIRS = 10  # fewer pairs cannot show a gain


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load(path):
    with open(path) as f:
        return json.load(f)


def samples(results, workload, metric, pooled):
    """Per-rep values of one metric, or one median per file when pooled."""
    out = []
    for r in results:
        row = r["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
        if row is None:
            return None
        out.extend([row["median"]] if pooled else row["values"])
    return out


def verdict(p, c, better, bound):
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    worse = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    pairs = list(zip(p, c))
    wins = sum(beats(cv, pv) for pv, cv in pairs)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm) if pm and cm else 0.0
    all_better = all(beats(cv, pv) for cv in c for pv in p)
    if worse > bound:
        v = "regressed"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        v = "improved"
    else:
        v = "unchanged"
    return v, (p1, pm, p3), (c1, cm, c3), worse, f"{wins}/{len(pairs)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+")
    ap.add_argument("--pairs", action="store_true")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()
    if args.pairs:
        if len(args.files) % 2:
            ap.error("--pairs wants parent/change files in alternation")
        parents = [load(f) for f in args.files[0::2]]
        changes = [load(f) for f in args.files[1::2]]
    else:
        if len(args.files) != 2:
            ap.error("give PARENT and CHANGE results.json (or use --pairs)")
        parents, changes = [load(args.files[0])], [load(args.files[1])]
    bench = load(args.benchmark)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}

    bad = 0
    print(f"{'workload':<14} {'metric':<17} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>8} {'bound':>6} {'wins':>6}  verdict")
    for w in parents[0]["workloads"]:
        if not all(w in r["workloads"] for r in parents + changes):
            continue
        if not all(r["workloads"][w].get("correct") for r in changes):
            print(f"{w:<14} {'correct':<17} {'':>34} {'a check failed':>34} "
                  f"{'':>8} {'':>6} {'':>6}  regressed")
            bad += 1
        for metric, row in parents[0]["workloads"][w].get("end_to_end", {}).items():
            p = samples(parents, w, metric, args.pairs)
            c = samples(changes, w, metric, args.pairs)
            if not p or not c:
                continue
            better, bound = bounds.get(metric, (row["better"], None))
            if bound is None:
                # Correctness gates and pooled percentiles: no spread bound.
                cm = statistics.median(c)
                gate_failed = (metric == "failed_frac" and cm > 0) or \
                              (metric == "oracle_err" and cm > ORACLE_TOL)
                v = "regressed" if gate_failed else "info"
                bad += gate_failed
                print(f"{w:<14} {metric:<17} {statistics.median(p):>34.6g} {cm:>34.6g} "
                      f"{'':>8} {'':>6} {'':>6}  {v}")
                continue
            v, (p1, pm, p3), (c1, cm, c3), worse, wins = verdict(p, c, better, bound)
            bad += v in ("regressed", "unresolved")
            ps = f"{pm:.6g} [{p1:.6g}, {p3:.6g}]"
            cs = f"{cm:.6g} [{c1:.6g}, {c3:.6g}]"
            print(f"{w:<14} {metric:<17} {ps:>34} {cs:>34} {100 * worse:>7.2f}% "
                  f"{bound:>6g} {wins:>6}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
