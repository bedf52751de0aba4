"""Run one workload in this process; print its record as the last line.

``run.py`` starts this in a fresh process whose environment pins BLAS and
OpenMP to one thread and leaves QUADFLORA_WORKERS unset, with the
checkout's ``src`` on PYTHONPATH. The run works in a fresh directory under
``--out``, removed at the end.

Untraced, the worker sets up the inputs several times, then runs passes
over them for ``--seconds``, the last one cut short between surveys;
every set-up and every timed region is bracketed by the machine-speed
reference (``speed``). Traced, each pass sets up its own inputs and runs
whole, until the next pass would overrun ``--seconds``, so per-layer
numbers are per pass including one set-up. The first pass's outputs are
checked in full; every later pass must reproduce its per-survey
prediction digests.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

SETUP_REPEATS = (5, 25)  # at least 5, and more until they add up to SETUP_MIN_S
SETUP_MIN_S = 1.5


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def measure(wl, seed: int, seconds: float, tracer) -> dict:
    from quadflora.errors import QuadfloraError

    from speed import Clock

    clock = Clock()
    inputs = None
    while tracer is None:
        done = clock.walls("setup_s")
        if len(done) >= SETUP_REPEATS[1] or (
            len(done) >= SETUP_REPEATS[0] and sum(done) >= SETUP_MIN_S
        ):
            break
        with clock.timed("setup_s"):
            inputs = wl.setup(seed)

    record = {"attempted": 0, "failed": 0, "problems": [], "passes": 0, "cut_passes": 0}
    first = None
    begin = time.perf_counter()
    # Untraced, the deadline may cut a pass short between surveys; traced
    # runs keep whole passes, since per-layer numbers are per pass.
    deadline = begin + seconds if tracer is None else math.inf
    while True:
        pass_start = time.perf_counter()
        if tracer is not None:
            tracer.pass_id = record["passes"]
            with tracer.span("bench.setup", "setup"):
                inputs = wl.setup(seed)
        try:
            res = wl.run_pass(inputs, clock, tracer, check=first is None, deadline=deadline)
        except QuadfloraError as exc:
            record["problems"].append(f"pass raised {type(exc).__name__}: {exc}")
            record["failed"] += 1
            record["attempted"] += 1
            break
        if first is None:
            first = res
        elif res.digests != first.digests[: len(res.digests)]:
            res.fail(res.attempted - res.failed, "predictions differ from the first pass")
        record["passes" if res.complete else "cut_passes"] += 1
        record["attempted"] += res.attempted
        record["failed"] += res.failed
        record["problems"] += res.problems
        now = time.perf_counter()
        if now >= deadline or (tracer is not None and now - begin + (now - pass_start) > seconds):
            break
    if first is not None:
        digest = hashlib.sha256("\n".join(first.digests).encode()).hexdigest()
        record.update(final_f1=first.final_f1, digest=digest)
    # [wall_s, ref_s] per region
    for kind in ("setup_s", "run_s", "warm_run_s"):
        record[kind] = clock.samples.get(kind, [])
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True, help="directory for scratch files and spans")
    args = ap.parse_args(argv)
    if "QUADFLORA_WORKERS" in os.environ:
        print("error: QUADFLORA_WORKERS must be unset", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.makedirs(args.out, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=args.out)
    try:
        wl = workloads.make(args.workload, args.size == "tiny", work)
        record = measure(wl, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work)
    if "digest" not in record:
        print("error: no pass completed: " + "; ".join(record["problems"]), file=sys.stderr)
        return 1
    record.update(
        workload=args.workload,
        seed=args.seed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics(record["passes"])
        tracer.write(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
