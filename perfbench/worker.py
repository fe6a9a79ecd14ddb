"""The workload process: runs heatbound from the checkout, in a fresh interpreter.

    python3 perfbench/worker.py probe SPEC   set up once, print "ready", exit
    python3 perfbench/worker.py run SPEC     run operations, write results

SPEC is a JSON file written by run.py.  A probe imports heatbound, loads the
workload graph and builds the adapted metric: the work that ``setup_s``
times.  A run calls ``heatbound.cli.main`` for every command of an
operation, in this one process, until ``seconds`` have passed; with tracing
it alternates untraced and traced operations.  The calibration reference
(``calibration.py``) runs before the first operation and after each one,
outside their timed parts.  Outputs are checked later by run.py, after this
process has ended, so the oracle's computations never touch this process's
time or memory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

from calibration import reference_seconds


def import_heatbound(root):
    """heatbound and its CLI, from the checkout's src/ and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import heatbound
    import heatbound.cli

    if not os.path.abspath(heatbound.__file__).startswith(os.path.abspath(src)):
        raise ImportError(f"heatbound imported from {heatbound.__file__}, "
                          f"not from {src}")
    return heatbound


def probe(spec):
    hb = import_heatbound(spec["root"])
    g = hb.graph.load_graph_file(spec["graph"])
    hb.metric.shortest_path_metric(g)
    print("ready", flush=True)


def run(spec):
    hb = import_heatbound(spec["root"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(hb)
    ops = []
    start = perf_counter()
    refs = [reference_seconds()]
    while True:
        k = len(ops)
        traced = tracer is not None and k % 2 == 1
        outs, summaries, codes, error = [], [], [], None
        gc.collect()  # every operation starts from the same heap
        if traced:
            tracer.install(k)
        t0 = perf_counter()
        try:
            for cmd in spec["commands"]:
                out = os.path.join(spec["dir"], f"op{k}-{cmd['label']}.csv")
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    codes.append(hb.cli.main(cmd["argv"] + ["--out", out]))
                outs.append(out)
                summaries.append(buf.getvalue())
        except Exception:  # a failed operation is counted, the run goes on
            error = traceback.format_exc()
        wall = perf_counter() - t0
        if traced:
            tracer.uninstall()
        refs.append(reference_seconds())
        ops.append({"wall_s": wall, "traced": traced, "codes": codes,
                    "outs": outs, "summaries": summaries, "error": error})
        if perf_counter() - start >= spec["seconds"] and (
                tracer is None or len(ops) >= 2):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"ops": ops, "refs": refs, "peak_rss_mb": peak_kb / 1024.0}
    if tracer is not None:
        traced_ops = [k for k, op in enumerate(ops) if op["traced"]]
        result["layers"] = [tracer.op_metrics(k) for k in traced_ops]
        tracer.write_jsonl(os.path.join(spec["dir"], "spans.jsonl"),
                           {k: ops[k]["wall_s"] for k in traced_ops})
    with open(os.path.join(spec["dir"], "worker.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    mode, spec_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "probe":
        probe(spec)
    elif mode == "run":
        run(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
