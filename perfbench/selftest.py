"""Self-tests of the benchmark's oracle and checkers.

    python3 perfbench/selftest.py

1. The spectral oracle against closed forms: the two-state walk,
   p_t(a, a) = (1 + e^{-2t}) / 2, and the constant-speed walk on K_n,
   p_t(x, x) = 1/n + (1 - 1/n) e^{-nt/(n-1)}; plus mass and reversibility.
2. Each checker on real program output for one seed of its workload: the
   clean output passes, and a mutated copy (a kernel value off by
   10 * err_bound, a log_bound shifted by 1e-2, a non-monotone J, a tail mass
   off by 1%) is counted as one failed operation, by the check meant to
   catch it: mutated bounds rows keep log_ratio = log p - log_bound.

Exits 1 if any test fails.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import sys

import numpy as np

import oracle
import run
import worker
import workloads

RESULTS = []


def report(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"[selftest] {'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())


def test_closed_forms():
    times = np.geomspace(1e-3, 1e2, 25)
    two = oracle.SpectralKernel(workloads.Graph(nu=(1.0, 1.0), edges=((0, 1),),
                                                mu=(1.0,)))
    p, err = two.diagonal(times)
    gap = np.abs(p[:, 0] - oracle.two_state_diagonal(times))
    report("oracle: two-state closed form", bool(np.all(gap <= err[:, 0] + 1e-15)),
           f"max gap {gap.max():.1e}")

    n = 7
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    kn = oracle.SpectralKernel(workloads.Graph(nu=(n - 1.0,) * n, edges=edges,
                                               mu=(1.0,) * len(edges)))
    p, err = kn.diagonal(times)
    gap = np.abs(p - oracle.complete_csrw_diagonal(n, times)[:, None])
    report(f"oracle: K_{n} CSRW closed form", bool(np.all(gap <= err + 1e-15)),
           f"max gap {gap.max():.1e}")

    g = workloads.random_graph(12, np.random.default_rng(5), csrw=False)
    spec = oracle.SpectralKernel(g)
    nu = np.array(g.nu)
    ok = True
    for t in (1e-3, 0.1, 10.0):
        p, err = spec.rows(np.arange(g.n), t)
        ok &= bool(np.all(np.abs(p.sum(axis=1) - 1.0) <= err.sum(axis=1) + 1e-15))
        flow = nu[:, None] * p
        ok &= bool(np.all(np.abs(flow - flow.T)
                          <= nu[:, None] * err + (nu[:, None] * err).T + 1e-300))
    report("oracle: unit mass and reversibility on a random graph", ok)


def produce(cli, name, seed, directory):
    """Run one operation of a workload through the CLI; return (work, op)."""
    work = workloads.build(name, seed, directory)
    op = {"error": None, "traced": False, "codes": [], "outs": [],
          "summaries": []}
    for cmd in work.commands:
        out = os.path.join(directory, f"{cmd.label}.csv")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            op["codes"].append(cli.main(list(cmd.argv) + ["--out", out]))
        op["outs"].append(out)
        op["summaries"].append(buf.getvalue())
    return work, op


def mutated(op, label_index, edit):
    """Copy of op whose output number ``label_index`` went through ``edit``."""
    src = op["outs"][label_index]
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    edit(header, rows)
    dst = src[:-4] + "-mutated.csv"
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    outs = list(op["outs"])
    outs[label_index] = dst
    return dict(op, outs=outs)


def shift(column, row, by):
    def edit(header, rows):
        k = header.index(column)
        rows[row][k] = f"{float(rows[row][k]) + by(rows[row], header):.12g}"
    return edit


def bound_row(row=None, d_log_bound=0.0, add=0.0, scale=1.0):
    """Change p_computed and/or log_bound of one bounds row (by default the
    one with the largest p) and keep log_ratio = log p - log_bound, so that
    only the oracle or the bound formula can tell."""
    def edit(header, rows):
        p_col, lb_col, lr_col = (header.index(c) for c in
                                 ("p_computed", "log_bound", "log_ratio"))
        target = rows[row] if row is not None else max(
            rows, key=lambda r: float(r[p_col]))
        p = float(target[p_col]) * scale + add
        lb = float(target[lb_col]) + d_log_bound
        target[p_col], target[lb_col] = f"{p:.12g}", f"{lb:.12g}"
        target[lr_col] = f"{math.log(float(target[p_col])) - float(target[lb_col]):.12g}"
    return edit


def raise_constant(by):
    """Every row's log_bound up by ``by``: the constant is no longer least."""
    def edit(header, rows):
        lb_col, lr_col = header.index("log_bound"), header.index("log_ratio")
        for r in rows:
            r[lb_col] = f"{float(r[lb_col]) + by:.12g}"
            r[lr_col] = f"{float(r[lr_col]) - by:.12g}"
    return edit


def test_checker(cli, name, seed, directory, mutations):
    work, op = produce(cli, name, seed, directory)
    failed, wrong, problems, _ = run.check_ops(work, [op])
    report(f"{name}: clean output passes", failed == 0 and wrong == 0,
           "; ".join(problems[:3]))
    for what, index, edit, expect in mutations:
        failed, wrong, problems, _ = run.check_ops(work, [op, mutated(op, index, edit)])
        caught = [p for p in problems if expect in p]
        report(f"{name}: {what} is a failed operation",
               failed == 1 and wrong == 1 and bool(caught),
               caught[0] if caught else "; ".join(problems[:3]))


def main():
    cli = worker.import_heatbound(run.ROOT).cli
    test_closed_forms()
    workdir = os.path.join(run.HERE, "runs", "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tol10 = 10 * workloads.KERNEL_TOL
    test_checker(cli, "stiff", 3, workdir, [
        ("kernel value off by 10 * err_bound", 0,
         shift("prob", 130, lambda r, h: 10 * float(r[h.index("err_bound")])),
         "prob differs from the oracle"),
    ])
    test_checker(cli, "sweep", 3, workdir, [
        ("log_bound shifted by 1e-2", 0, bound_row(4000, d_log_bound=1e-2),
         "log_bound differs from the Theorem 1.1 display"),
        ("kernel value off by 10 * tol", 0, bound_row(add=tol10),
         "p_computed differs from the oracle"),
    ])
    test_checker(cli, "empirical", 3, workdir, [
        ("log_bound shifted by 1e-2", 0, bound_row(200, d_log_bound=1e-2),
         "log_bound differs from the Theorem 1.1 display"),
        ("fitted constant raised by 1e-2", 0, raise_constant(1e-2),
         "not the least one"),
    ])

    def bump_j(header, rows):
        k = header.index("J")
        rows[60][k] = f"{float(rows[59][k]) * 1.01:.12g}"

    test_checker(cli, "evolution", 3, workdir, [
        ("non-monotone J", 0, bump_j, "reported J increases"),
        ("largest tail mass off by 1%", 2, bound_row(scale=1.01),
         "tail mass differs from the oracle"),
    ])
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"[selftest] {sum(RESULTS)} of {len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
