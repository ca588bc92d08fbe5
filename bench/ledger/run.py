#!/usr/bin/env python3
"""bench_ledger runner: builds the ledger package, runs its workloads and
reports their metrics. Standard library only. See bench/ledger/README.md.

Ledger mode: every workload, k untraced reps then one traced rep, each in a
fresh process. Prints `workload metric value unit` lines (median [q1, q3]
over the reps) and writes <out>/results.json and <out>/trace_<workload>.json:

    python3 bench/ledger/run.py --seed=1 --reps=3 [--seconds=15] [--smoke]

Single-run mode (the contract BENCHMARK.json describes): one workload, one
rep; the last stdout line is a JSON object with keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer with 1):

    python3 bench/ledger/run.py --workload amp-grid20 --seed 3 --seconds 15 --trace 0

Calibration: two sets of ten consecutive seeds per workload, untraced,
written to <out>/calibration.json with the bounds they imply (the committed
copy is bench/ledger/calibration.json):

    python3 bench/ledger/run.py --calibrate

Exits non-zero when a correctness check fails or the build does not.
"""
import argparse
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
with open(HERE.parent.parent / "BENCHMARK.json") as _f:
    BENCHMARK = json.load(_f)

WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# End-to-end metrics: (name, unit, better). GATED ones carry a bound in
# BENCHMARK.json and are what single-run mode reports. The others are
# correctness gates (failed_frac, oracle_err), need pooled samples
# (op_p90_s), or vary too much from run to run to gate: query-grid20's peak
# RSS moves by up to ~20% with allocator timing (see README.md).
E2E = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "op/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("op_p90_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("failed_frac", "ratio", "lower"),
    ("oracle_err", "ratio", "lower"),
    ("slicing_overhead", "ratio", "lower"),
]
GATED = [m["name"] for m in BENCHMARK["end_to_end"]]
CALIBRATED = GATED + ["peak_rss_mb"]  # everything one rep measures
UNITS = {name: unit for name, unit, _ in E2E}
P90_MIN_SAMPLES = 100
ORACLE_TOL = 1e-4

# Per-layer metrics of the traced pass, as BENCHMARK.json lists them. Times
# are self seconds per op; counts are per op. A workload that bypasses a
# layer reports 0 for it. README.md maps each to the end-to-end metric it
# moves.
LAYERS = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
LAYER_UNITS = {name: unit for name, unit, _ in LAYERS}

RUN_TIMEOUT_S = 170  # the contract allows 180 s per invocation
CALIBRATION_SETS = 2
CALIBRATION_SEEDS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def build(build_dir, jobs):
    """Configures and builds bench_ledger (both no-ops when up to date);
    returns the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(build_dir), "-j", str(jobs),
                        "--target", "bench_ledger"], stdout=sys.stderr, check=True)
    return build_dir / "bench_ledger"


def run_rep(binary, workload, seed, seconds, traced, smoke, rep_dir, deadline):
    """One rep in a fresh process group; returns its result.json, or None."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    cmd = [str(binary), "run", workload, f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={int(traced)}", f"--out={rep_dir}"] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"{workload}: rep timed out; killing it")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    result = rep_dir / "result.json"
    if proc.returncode != 0 or not result.exists():
        log(f"{workload}: rep failed (exit {proc.returncode})")
        return None
    with open(result) as f:
        return json.load(f)


def keyed_answers(rep):
    """answers are "key:value"; keys name the op (index, or tenant:job)."""
    return dict(a.rpartition(":")[::2] for a in rep["answers"])


def passes_agree(reps):
    """Same seed, same inputs: every answer two reps share must be byte-equal."""
    first = keyed_answers(reps[0])
    for rep in reps[1:]:
        other = keyed_answers(rep)
        if any(first[k] != other[k] for k in first.keys() & other.keys()):
            return False
    return True


def rep_correct(rep):
    return (rep["failed"] == 0 and all(c["ok"] for c in rep["checks"])
            and (rep["oracle_err"] is None or rep["oracle_err"] <= ORACLE_TOL))


def e2e_metrics(rep):
    """End-to-end metrics of one untraced rep (op_p90_s is pooled elsewhere)."""
    return {
        "setup_s": statistics.median(rep["setup_s"]),
        "ops_per_s": rep["completed"] / rep["timed_s"],
        "op_p50_s": statistics.median(rep["latencies_s"]),
        "peak_rss_mb": rep["peak_rss_mb"],
        "failed_frac": rep["failed"] / rep["attempted"],
        "oracle_err": rep["oracle_err"],
        "slicing_overhead": rep["slicing_overhead"],
    }


def layer_metrics(traced, untraced):
    """Every per-layer metric of a traced rep, 0 where the layer is bypassed."""
    values = {name: traced["layers"].get(name, 0.0) for name, _, _ in LAYERS}
    traced_rate = traced["completed"] / traced["timed_s"]
    untraced_rate = statistics.median(r["completed"] / r["timed_s"] for r in untraced)
    values["bench.trace_overhead"] = untraced_rate / traced_rate
    return values


def single_run(args, binary):
    """The benchmark contract: one rep, one JSON line. With --trace 1 an
    untraced rep runs first, for bench.trace_overhead and the byte-identity
    check between the two passes."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = Path(args.out) / "runs" / f"{args.workload}-s{args.seed}"
    untraced = run_rep(binary, args.workload, args.seed, args.seconds, False, args.smoke,
                       base / "untraced", deadline)
    if untraced is None:
        return 1
    reps = [untraced]
    if args.trace:
        traced = run_rep(binary, args.workload, args.seed, args.seconds, True, args.smoke,
                         base / "traced", deadline)
        if traced is None:
            return 1
        reps.append(traced)
        metrics = {name: {"value": v, "unit": LAYER_UNITS[name]}
                   for name, v in layer_metrics(traced, [untraced]).items()}
    else:
        m = e2e_metrics(untraced)
        metrics = {name: {"value": m[name], "unit": UNITS[name]} for name in GATED}
    correct = all(rep_correct(r) for r in reps) and passes_agree(reps)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in reps),
                      "failed": sum(r["failed"] for r in reps),
                      "metrics": metrics}))
    return 0 if correct else 1


def fmt(v):
    return f"{v:.6g}"


def ledger(args, binary):
    out = Path(args.out)
    results = {"schema": "ltns.ledger.v1", "seed": args.seed, "reps": args.reps,
               "seconds": args.seconds, "smoke": args.smoke, "nproc": os.cpu_count(),
               "workloads": {}}
    all_correct = True
    print(f"# bench_ledger seed={args.seed} reps={args.reps} seconds={args.seconds}"
          f" smoke={int(args.smoke)} nproc={os.cpu_count()}")
    for w in WORKLOADS:
        reps, traced = [], None
        for k in range(args.reps + 1):
            deadline = time.monotonic() + RUN_TIMEOUT_S
            is_traced = k == args.reps
            rep = run_rep(binary, w, args.seed, args.seconds, is_traced, args.smoke,
                          out / "runs" / f"{w}-r{k}{'-traced' if is_traced else ''}", deadline)
            if rep is None:
                all_correct = False
                break
            if is_traced:
                traced = rep
            else:
                reps.append(rep)
        if traced is None:
            results["workloads"][w] = {"correct": False}
            print(f"{w} FAILED: a rep did not finish")
            continue
        correct = all(rep_correct(r) for r in reps + [traced]) and passes_agree(reps + [traced])
        all_correct &= correct
        shutil.copy(out / "runs" / f"{w}-r{args.reps}-traced" / "trace.json",
                    out / f"trace_{w}.json")

        per_rep = [e2e_metrics(r) for r in reps]
        pooled = [x for r in reps for x in r["latencies_s"]]
        e2e = {}
        for name, unit, better in E2E:
            if name == "op_p90_s":
                if len(pooled) < P90_MIN_SAMPLES:
                    print(f"{w} {name} n/a {unit} ({len(pooled)} samples < {P90_MIN_SAMPLES})")
                    continue
                v = statistics.quantiles(pooled, n=10)[-1]
                e2e[name] = {"unit": unit, "better": better, "median": v, "q1": v, "q3": v,
                             "values": [v], "samples": len(pooled)}
                print(f"{w} {name} {fmt(v)} {unit} (pooled, {len(pooled)} samples)")
                continue
            values = [m[name] for m in per_rep]
            if any(v is None for v in values):
                print(f"{w} {name} n/a {unit} (no amplitudes)")
                continue
            q1, med, q3 = quartiles(values)
            e2e[name] = {"unit": unit, "better": better, "median": med, "q1": q1, "q3": q3,
                         "values": values}
            print(f"{w} {name} {fmt(med)} [{fmt(q1)}, {fmt(q3)}] {unit}")
        layers = layer_metrics(traced, reps)
        measured = set(traced["layers"]) | {"bench.trace_overhead"}
        for name, unit, _ in LAYERS:
            if name in measured:
                print(f"{w} {name} {fmt(layers[name])} {unit}")
        results["workloads"][w] = {
            "correct": correct,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "samples": len(pooled),
            "isa": traced["isa"],
            "end_to_end": e2e,
            "per_layer": {name: {"unit": LAYER_UNITS[name], "value": layers[name]}
                          for name, _, _ in LAYERS if name in measured},
            "checks": [c for r in reps + [traced] for c in r["checks"] if not c["ok"]],
        }
        if not correct:
            print(f"{w} CORRECTNESS FAILED: {results['workloads'][w]['checks']}")
    with open(out / "results.json", "w") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print(f"# wrote {out / 'results.json'}")
    return 0 if all_correct else 1


def calibrate(args, binary):
    """Sets of single untraced runs over consecutive seeds; the relative
    inter-quartile spread of each metric per set, and the bound it implies."""
    sets = []
    for s in range(CALIBRATION_SETS):
        values = {w: {name: [] for name in CALIBRATED} for w in WORKLOADS}
        for w in WORKLOADS:
            for i in range(CALIBRATION_SEEDS):
                seed = args.seed + i
                deadline = time.monotonic() + RUN_TIMEOUT_S
                rep = run_rep(binary, w, seed, args.seconds, False, args.smoke,
                              Path(args.out) / "runs" / f"cal-{w}-s{seed}", deadline)
                if rep is None or not rep_correct(rep):
                    log(f"calibration: {w} seed {seed} failed")
                    return 1
                m = e2e_metrics(rep)
                for name in CALIBRATED:
                    values[w][name].append(m[name])
                log(f"set {s} {w} seed {seed}: " +
                    " ".join(f"{n}={fmt(m[n])}" for n in CALIBRATED))
        sets.append(values)

    report = {"schema": "ltns.ledger.calibration.v1", "sets": CALIBRATION_SETS,
              "seeds": CALIBRATION_SEEDS, "first_seed": args.seed, "seconds": args.seconds,
              "nproc": os.cpu_count(), "workloads": {}}
    for w in WORKLOADS:
        rows = {}
        for name in CALIBRATED:
            per_set = []
            for values in sets:
                q1, med, q3 = quartiles(values[w][name])
                per_set.append({"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med if med else 0.0,
                                "values": values[w][name]})
            medians = [p["median"] for p in per_set]
            drift = (max(medians) - min(medians)) / min(medians) if min(medians) else 0.0
            rows[name] = {"sets": per_set, "median_drift": drift}
        report["workloads"][w] = rows
    report["bounds"] = {name: suggested_bound(name, report) for name in GATED}
    path = Path(args.out) / "calibration.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    for name, b in report["bounds"].items():
        print(f"bound {name} {b}")
    print(f"# wrote {path}")
    return 0


def suggested_bound(name, report):
    """setup_s gets the largest bound (its spread is not gated). A metric
    that never moved is a count: any increase regresses it. Timings get the
    larger of 10% and three times the worst spread or median drift seen, so
    the spread stays under a third of the bound; 25% is the cap."""
    if name == "setup_s":
        return 0.25
    worst = max(max(max(s["spread"] for s in rows[name]["sets"]), rows[name]["median_drift"])
                for rows in report["workloads"].values())
    if worst < 1e-9:  # geometric means of equal counts differ only in the last bits
        return 0.001
    return min(0.25, round(max(0.10, 3 * worst) + 0.005, 2))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, help="single-run mode: this workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reps", type=int, default=None, help="untraced reps (default 3; smoke 1)")
    p.add_argument("--smoke", action="store_true",
                   help="minimal sizes through the same code paths and checks")
    p.add_argument("--calibrate", action="store_true")
    default_build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    p.add_argument("--build", default=str(default_build),
                   help="build root; the package builds in BUILD/ledger-build")
    p.add_argument("--out", default=None, help="run directory (default BUILD/ledger-out)")
    args = p.parse_args()
    if args.reps is None:
        args.reps = 1 if args.smoke else 3
    if args.reps < 1:
        p.error("--reps must be at least 1")
    if args.smoke and args.seconds == p.get_default("seconds"):
        args.seconds = 0.5
    args.out = args.out or str(Path(args.build) / "ledger-out")

    try:
        binary = build(Path(args.build) / "ledger-build", min(4, os.cpu_count() or 1))
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2
    if args.workload:
        return single_run(args, binary)
    if args.calibrate:
        return calibrate(args, binary)
    return ledger(args, binary)


if __name__ == "__main__":
    sys.exit(main())
