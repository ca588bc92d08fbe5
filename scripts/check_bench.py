#!/usr/bin/env python3
"""Perf-trajectory checker for the committed ledger files (CI `docs` job).

Every `BENCH_<n>.json` at the repo root is one `bench/ledger/run.py`
`results.json`, committed by the change it measures. This verifies that
each one:

- parses as JSON and has schema `ltns.ledger.v1`;
- covers every workload BENCHMARK.json declares;
- gives, per workload, `correct: true`, `failed: 0`, a non-empty `isa`
  (the cpu_probe kernel tier the numbers come from) and a numeric median
  for every end-to-end metric BENCHMARK.json names.

Exits 1 listing every problem (also when no BENCH file exists). Stdlib
only, so the CI job needs nothing but a checkout and python3.

With `--counts FILE RESULTS` it instead checks one run's machine-independent
counts (CI `bench-smoke`, after `bench/ledger/run.py --smoke`): every value
FILE pins per workload — an end-to-end median or a per-layer value of the
traced pass, e.g. `slicing_overhead` and `core.num_slices` — must match
RESULTS (that run's `results.json`) within 1e-9 relative. A kernel change
must not move plans; this makes that a CI fact.

    python3 scripts/check_bench.py --counts scripts/smoke_counts.json \
        .bench_build/ledger-out/results.json
"""
import argparse
import glob
import json
import os
import sys

SCHEMA = "ltns.ledger.v1"
REL_TOL = 1e-9  # geometric means of equal counts differ only in the last bits


def problems_in(path, workloads, metrics):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"does not parse: {e}"]
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    out = []
    if doc.get("schema") != SCHEMA:
        out.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    rows = doc.get("workloads")
    if not isinstance(rows, dict):
        return out + ["no workloads object"]
    for w in workloads:
        row = rows.get(w)
        if not isinstance(row, dict):
            out.append(f"{w}: missing")
            continue
        if row.get("correct") is not True:
            out.append(f"{w}: correct is {row.get('correct')!r}")
        if row.get("failed") != 0:
            out.append(f"{w}: failed is {row.get('failed')!r}")
        if not isinstance(row.get("isa"), str) or not row["isa"]:
            out.append(f"{w}: no isa")
        e2e = row.get("end_to_end") or {}
        for m in metrics:
            median = (e2e.get(m) or {}).get("median")
            if not isinstance(median, (int, float)) or isinstance(median, bool):
                out.append(f"{w}: end-to-end metric {m} missing")
    return out


def count_problems(counts, results):
    out = []
    rows = results.get("workloads") or {}
    for w, pinned in counts["workloads"].items():
        row = rows.get(w)
        if not isinstance(row, dict):
            out.append(f"{w}: missing from the results")
            continue
        for m, want in pinned.items():
            got = (row.get("end_to_end", {}).get(m) or {}).get("median")
            if got is None:
                got = (row.get("per_layer", {}).get(m) or {}).get("value")
            if not isinstance(got, (int, float)) or isinstance(got, bool):
                out.append(f"{w}: {m} missing")
            elif abs(got - want) > REL_TOL * abs(want):
                out.append(f"{w}: {m} is {got!r}, pinned {want!r}")
    return out


def check_counts(counts_path, results_path) -> int:
    try:
        with open(counts_path, encoding="utf-8") as f:
            counts = json.load(f)
        with open(results_path, encoding="utf-8") as f:
            results = json.load(f)
    except (OSError, ValueError) as e:
        print(f"cannot read: {e}")
        return 1
    problems = count_problems(counts, results)
    for p in problems:
        print(p)
    n = sum(len(v) for v in counts["workloads"].values())
    if problems:
        print(f"{len(problems)} of {n} pinned count(s) differ")
        return 1
    print(f"all {n} pinned count(s) match")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--counts", nargs=2, metavar=("FILE", "RESULTS"),
                    help="check RESULTS' deterministic counts against FILE instead")
    args = ap.parse_args()
    if args.counts:
        return check_counts(*args.counts)
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    files = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not files:
        print("no BENCH_*.json at the repo root")
        return 1
    bad = 0
    for path in files:
        name = os.path.basename(path)
        problems = problems_in(path, workloads, metrics)
        bad += bool(problems)
        for p in problems:
            print(f"{name}: {p}")
    if bad:
        print(f"{bad} of {len(files)} BENCH file(s) failed")
        return 1
    print(f"all {len(files)} BENCH file(s) valid: {', '.join(os.path.basename(p) for p in files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
