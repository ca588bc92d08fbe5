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
"""
import glob
import json
import os
import sys

SCHEMA = "ltns.ledger.v1"


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


def main() -> int:
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
