"""quadflora benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
The workload runs in a fresh child process (``worker.py``) with
OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1 and
QUADFLORA_WORKERS unset. With ``--trace 0`` the last line of standard
output is the JSON result with every end-to-end metric; with
``--trace 1`` an untraced child runs first (its run_s is the baseline
for the tracing overhead), then a traced child, each for half of
``--seconds``, and the result holds every per-layer metric. The line
before the result describes the run: versions, nproc, passes, the
prediction digest, sample counts, raw wall-time medians and the
machine-speed reference's median time; failed checks go to standard error.

``--size tiny`` shrinks every corpus for the smoke test. The workers'
records (every timing sample), spans of traced runs and scratch files go
to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import REF_S, median_normalized

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TIME_LIMIT_S = 170.0
WORKLOADS = ("dense-bagged", "wide-taxonomy", "calib-sweep", "cli-cache")
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "warm_run_s": "s",
    "final_f1": "f1",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QUADFLORA_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    path = [os.path.join(ROOT, "src"), HERE]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_child(args, traced: bool, seconds: float, deadline: float):
    """Run worker.py once; return its record, or None if it failed."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--size", args.size, "--out", OUT,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} worker timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {args.workload} worker exited {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"error: {args.workload} worker printed no record", file=sys.stderr)
        return None


def wall_median(pairs) -> float:
    return statistics.median(wall for wall, _ in pairs)


def end_to_end(rec) -> dict:
    # The timings are medians of wall times at reference machine speed
    # (see speed.py): the speed of a shared host's cores drifts in phases
    # that can fill whole runs, and the reference loop around each region
    # measures it. Raw wall times are in the run record and the info line.
    values = {
        "setup_s": median_normalized(rec["setup_s"]),
        "run_s": median_normalized(rec["run_s"]),
        "warm_run_s": median_normalized(rec["warm_run_s"]),
        "final_f1": rec["final_f1"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "ok_frac": 1.0 - rec["failed"] / rec["attempted"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one quadflora benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "quadflora", "__init__.py")):
        print(f"error: no quadflora sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    # A traced run splits its time between the untraced baseline and the
    # traced child, so it takes as long as an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    base = run_child(args, traced=False, seconds=seconds, deadline=deadline)
    if base is None:
        return 1
    records = [base]
    if args.trace:
        traced = run_child(args, traced=True, seconds=seconds, deadline=deadline)
        if traced is None:
            return 1
        records.append(traced)
        metrics = dict(traced["layers"])
        overhead = median_normalized(traced["run_s"]) - median_normalized(base["run_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = end_to_end(base)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    info = {
        key: base[key] for key in ("workload", "seed", "passes", "digest", "final_f1", "env")
    }
    info["traced_passes"] = records[-1]["passes"] if args.trace else 0
    info["samples"] = {k: len(base[k]) for k in ("setup_s", "run_s", "warm_run_s")}
    info["wall_median_s"] = {k: wall_median(base[k]) for k in ("setup_s", "run_s", "warm_run_s")}
    info["reference_median_s"] = statistics.median(
        ref for k in ("setup_s", "run_s", "warm_run_s") for _, ref in base[k]
    )
    info["REF_S"] = REF_S
    record_path = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
