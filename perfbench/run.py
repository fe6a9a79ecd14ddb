"""heatbound benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run builds the workload's inputs from
the seed, times several fresh-interpreter set-ups (untraced runs only), runs
the operations in a worker process for S seconds (untraced, or alternating
untraced and traced with --trace 1), then checks every output against the
spectral oracle and prints one JSON line: correct, attempted, failed and the
metrics named in BENCHMARK.json.  Times are rescaled to the reference speed
of ``calibration.py``.  Run outputs go to perfbench/runs/ (CSV files are
removed once checked).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
import checks
import oracle
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
WORKER_GRACE_S = 150  # beyond --seconds, before a hung worker is killed
ORACLE_DIGITS = 40


def _env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # single-threaded: one worker process, no BLAS or OpenMP threads
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "HEATBOUND_THREADS"):
        env[key] = "1"
    return env


def _worker(mode, spec_path):
    return [sys.executable, os.path.join(HERE, "worker.py"), mode, spec_path]


def time_setup(spec_path):
    """Seconds from process start until a fresh worker has set up."""
    t0 = perf_counter()
    proc = subprocess.Popen(_worker("probe", spec_path), env=_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def time_setups(spec_path):
    """Median rescaled set-up seconds of SETUP_PROBES fresh workers."""
    time_setup(spec_path)  # warm-up: byte-code and file caches
    refs = [calibration.reference_seconds()]
    walls = []
    for _ in range(SETUP_PROBES):
        walls.append(time_setup(spec_path))
        refs.append(calibration.reference_seconds())
    return statistics.median(walls) * calibration.speed_factor(refs)


def run_worker(spec_path, seconds, run_dir):
    with open(os.path.join(run_dir, "worker.log"), "w") as log:
        proc = subprocess.run(_worker("run", spec_path), env=_env(), cwd=ROOT,
                              stdout=log, stderr=log,
                              timeout=seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        with open(os.path.join(run_dir, "worker.log")) as log:
            sys.stderr.write(log.read()[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(os.path.join(run_dir, "worker.json")) as fh:
        return json.load(fh)


def check_ops(work, ops):
    """(failed ops, wrong outputs, problems, checked CSV rows) over all ops.

    An operation fails when it raises, exits non-zero or writes an output
    that a check rejects; only the last makes the run incorrect.
    """
    ctx = checks.Context(work.graph,
                         oracle.SpectralKernel(work.graph, dps=ORACLE_DIGITS))
    failed, wrong, problems, rows = 0, 0, [], 0
    for k, op in enumerate(ops):
        bad = []
        if op["error"]:
            bad.append(f"op {k} raised: {op['error'].strip().splitlines()[-1]}")
        for cmd, code, out, summary in zip(work.commands, op["codes"],
                                           op["outs"], op["summaries"]):
            if code != 0:
                bad.append(f"op {k} {cmd.label}: exit code {code}")
                continue
            pb = checks.check_command(ctx, cmd, out, summary)
            if pb.count:
                wrong += 1
                bad.extend(f"op {k} {item}" for item in pb.items)
            else:
                with open(out, encoding="utf-8") as fh:
                    rows += sum(1 for _ in fh) - 1
        failed += bool(bad)
        problems.extend(bad)
    return failed, wrong, problems, rows


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "heatbound", "cli.py")):
        sys.stderr.write(f"no heatbound sources under {ROOT}/src\n")
        return 1
    run_dir = os.path.join(HERE, "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    work = workloads.build(args.workload, args.seed, run_dir)
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "dir": run_dir, "graph": work.commands[0].argv[2],
                   "seconds": args.seconds, "trace": args.trace,
                   "commands": [{"label": c.label, "argv": list(c.argv)}
                                for c in work.commands]}, fh)

    setup_s = None if args.trace else time_setups(spec_path)
    result = run_worker(spec_path, args.seconds, run_dir)
    ops = result["ops"]
    failed, wrong, problems, rows = check_ops(work, ops)
    for op in ops:
        for out in op["outs"]:
            if os.path.exists(out):  # a failed command may have written none
                os.remove(out)
    for line in problems[:20]:
        sys.stderr.write(line + "\n")

    speed = calibration.speed_factor(result["refs"])
    untraced = [op["wall_s"] * speed for op in ops if not op["traced"]]
    if args.trace:
        traced = [op["wall_s"] * speed for op in ops if op["traced"]]
        per_op = [{k: v * speed if k.endswith("_s") else v
                   for k, v in layers.items()} for layers in result["layers"]]
        metrics = {k: metric(v, "s" if k.endswith("_s") else "count")
                   for k, v in tracing.median_metrics(per_op).items()}
        metrics["metric.dist_bytes"]["unit"] = "bytes"
        metrics["trace.report_s"] = metric(statistics.median(traced), "s")
        metrics["trace.untraced_report_s"] = metric(statistics.median(untraced), "s")
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced) - statistics.median(untraced), "s")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "report_s": metric(statistics.median(untraced), "s"),
            "cells_per_s": metric(rows / sum(untraced), "1/s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
    print(json.dumps({"correct": wrong == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
