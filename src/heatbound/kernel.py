"""Transition probabilities of the walk: exact kernels, killed kernels, Monte Carlo.

Every kernel comes from one Chebyshev-Bessel expansion (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 1984).  With Lam = max_x mu_x/nu_x, B = I + Q^T/Lam and
tau = Lam*t, the distribution at time t from p0 is

    exp(t Q^T) p0 = sum_k c_k T_k(B) p0,   c_k = 2 e^-tau I_k(tau), c_0 halved,

with T_k the Chebyshev polynomials.  Each time sums k = 0..K, K the least
cut whose certified tail bound (Amos's ratio bound for I_{k+1}/I_k) times
sqrt(max nu / min nu) is at most tol; that product is err_bound.  K is about
sqrt(2 tau ln(1/tol)), and depends only on t, tol and the graph (or killed
domain), never on the rest of a call.  Values are clamped at 0.  Rounding,
of order Lam*t times the unit roundoff, is not in err_bound.

The coefficients of all of a call's times come from one ive call, at the
two ends of each time's window of k, and one tridiagonal solve of the Bessel
recurrence between them (Olver's method).  The solve's entries that would
couple two times are 0, so a time's coefficients are the bits of its own
system, whatever else the call holds: tests/test_kernel.py
(TestTridiagonalSolve) pins the property of LAPACK's dgtsv this relies on.

Every kernel entry point calls kernel_rows(g, sources, times, tol, domain),
which makes one engine call and returns (rows, err): rows[k, j] is the
distribution from sources[k] at times[j], killed on first exit from
``domain`` when given (the generator restricted to the domain, absorption
outside), and err[j] is the err_bound of times[j].  It may read out only
the diagonal, one number per source and time for the on-diagonal curves.
One call may also serve further readouts of the same recurrence, each its
own sources and times read out as full rows or diagonals: a theorem sweep
reads the diagonals of its profile fit and the rows of its pairs from one
call.  A time's value does not depend on the rest of the call, so each
readout has the bits of a call of its own.

In the engine, one three-term recurrence T_{k+1} = 2 B T_k - T_{k-1} on a
block of start vectors, one unit column per source, serves every time of the
call.  It runs in a ring of rows.  After T_1 = B T_0, each chunk of steps is
one call of the compiled CSR kernel that scipy's `@` ends in, on a ring
matrix holding [2B | -I] once per ring row: that kernel computes its output
rows in order, and the output rows are a slice of the same buffer as its
operand, so a row reads the two rows before it even when the same call wrote
them.  Doubling is exact and commutes with rounding, except for a product
below 2^-1022, so each row gets the bits of `2 (b_t @ T_k) - T_{k-1}`.  A
second compiled call, csr_matvecs on a dense matrix of the chunk's
coefficients, adds c_k T_k into each time's accumulator one step at a time
in k order.  So a value's bits do not depend on the chunk, on the other
times or sources of a call, or on the entry point.  The ring, its matrix and
a chunk's coefficients fit in CHUNK_BYTES; a block larger than that steps
one row at a time in a ring of three rows.  tests/test_kernel.py
(TestCsrStep) pins both properties of scipy's private kernels that this
relies on: rows in order, with no copy of an aliased operand, and each
output sum taken in the matrix's entry order.

Results keep the method name METHOD, "series-uniformization": the expansion
is still a series in the uniformized matrix B.  There is no second backend:
the tests check this one against scipy's expm, closed forms and a 40-digit
spectral oracle, the benchmark against the 40-digit oracle too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
# scipy.special ahead of scipy.sparse: in the other order `import heatbound`
# takes about 50 ms longer (scipy 1.17)
from scipy.special import ive
# already imported by scipy.sparse.csgraph, so it costs no import time
from scipy.linalg.lapack import dgtsv
# private to scipy: the compiled kernels that `@` on a CSR matrix and a dense
# vector or block ends in.  Called directly they skip the ~5 us of Python
# dispatch around each step; tests/test_kernel.py checks them against `@`.
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

from .graph import WeightedGraph

DEFAULT_TOL = 1e-10
METHOD = "series-uniformization"
# the most Bessel coefficients one call may need over all the times of all
# its readouts: the tridiagonal solve holds 5 float64 arrays of that length
# and a bool one, and finding the cuts after it peaks at 7 float64 or intp
# arrays, about 560 MB.  A theorem sweep's fit and rows share one budget; no
# row time is past the fit grid's last time, so each row time adds at most
# one window no longer than the fit's longest
MAX_COEFFICIENTS = 10_000_000
# bytes of the ring of Chebyshev steps: its rows, its step matrix and a
# chunk's coefficients; a larger block steps one row at a time
CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class HeatKernelResult:
    """Distribution of the walk at one time: probs[z] = P_source(X_t = z).

    For the walk killed on first exit from ``domain`` (None: never killed),
    probs[z] = P_source(X_t = z, exit time > t) and total_mass() <= 1."""

    graph: WeightedGraph
    source: str
    time: float
    probs: np.ndarray
    err_bound: float
    domain: frozenset | None = None

    def prob(self, vertex_id):
        return float(self.probs[self.graph.index(vertex_id)])

    def total_mass(self):
        return float(self.probs.sum())


@dataclass(frozen=True)
class Trajectory:
    """One simulated path: jump times, visited states, and the cap flag."""

    times: tuple
    states: tuple
    exploded: bool


@dataclass(frozen=True)
class SimulationResult:
    graph: WeightedGraph
    source: str
    t_max: float
    n_paths: int
    seed: int
    jump_cap: int
    counts: np.ndarray
    exploded_paths: int
    trajectories: tuple = field(default=(), repr=False)

    @property
    def probs(self):
        return self.counts / self.n_paths

    @property
    def exploded_fraction(self):
        return self.exploded_paths / self.n_paths

    def prob(self, vertex_id):
        return float(self.counts[self.graph.index(vertex_id)]) / self.n_paths


# ---------------------------------------------------------------------------
# the engine and its entry points

def _csr_call(csr, cols, x, out):
    """call(x, out, start=0): out += A[start:start + m] @ x, bit for bit,
    for operands shaped and laid out like x and out, m the rows of the
    call's out and A the CSR matrix csr = (indptr, indices, data) with
    ``cols`` columns: one call into the compiled kernel that ``@`` ends in,
    csr_matvec for one column and csr_matvecs for a block, whose column
    count is that of out's rows.  The kernel computes out's rows in order
    and copies no operand that is already C-contiguous float64, so out may
    be a slice of x that later rows read (the ring of _sum_series).  It
    checks neither the operands' shapes nor A's indices, and quietly copies
    an operand of another dtype or layout, so both are checked here, once,
    with out all of A's rows, and the call is the kernel itself."""
    indptr, indices, data = csr
    rows = len(indptr) - 1
    if (data.dtype != np.float64 or indptr.dtype not in (np.int32, np.int64)
            or indices.dtype != indptr.dtype):
        raise ValueError("the step needs a float64 CSR matrix with int32 or "
                         "int64 indices")
    if (len(indices) != len(data) or indptr[0] < 0
            or indptr[-1] > len(data) or np.any(indptr[1:] < indptr[:-1])
            or len(data) and not 0 <= indices.min() <= indices.max() < cols):
        raise ValueError(f"the step's CSR arrays do not index {rows} rows "
                         f"and {cols} columns")
    width = math.prod(out.shape[1:])
    for v, count in ((x, cols), (out, rows)):
        if (v.dtype != np.float64 or not v.flags.c_contiguous or v.ndim == 0
                or v.size != count * width):
            raise ValueError(f"the step needs C-contiguous float64 operands "
                             f"of {cols} and {rows} rows of {width}, got "
                             f"{x.dtype} {x.shape} and {out.dtype} "
                             f"{out.shape}")
    kernel, block = ((csr_matvec, ()) if width == 1
                     else (csr_matvecs, (width,)))

    def call(x, out, start=0):
        stop = start + out.size // width
        kernel(stop - start, cols, *block, indptr[start:stop + 1], indices,
               data, x, out)
    return call


def _ring_matrix(b_t, ring):
    """The CSR arrays (indptr, indices, data) of the step matrix of a ring
    of ``ring`` blocks of n rows: row block p holds 2 b_t's rows in b_t's
    CSR order at column block (p - 1) mod ring, each row followed by -1 at
    its own column of block (p - 2) mod ring.  A call of its row block p on
    the ring gives 2 (b_t @ u) - w bit for bit, u and w the blocks before p
    (see _sum_series).  Indices are int32 where they fit.  b_t is a CSR
    matrix or the _Csr of one."""
    n, ends = len(b_t.indptr) - 1, b_t.indptr[1:]
    # one row block's entries: each row of 2 b_t at column block 0, then
    # its -1 a block before; row block p is that shifted by (p - 1) mod ring
    # blocks, and only row block 1's -1 entries then wrap round
    cols = np.insert(b_t.indices, ends, np.arange(-n, 0))
    vals = np.insert(2.0 * b_t.data, ends, -1.0)
    per = len(vals)
    dtype = np.int32 if ring * per <= np.iinfo(np.int32).max else np.int64
    indices = np.empty((ring, per), dtype=dtype)
    indices[:] = cols
    indices += ((np.arange(ring, dtype=dtype) - 1) % ring * n)[:, None]
    indices[1, ends + np.arange(n)] += ring * n
    data = np.empty((ring, per))
    data[:] = vals
    indptr = np.empty(ring * n + 1, dtype=dtype)
    blocks = indptr[:-1].reshape(ring, n)
    blocks[:] = b_t.indptr[:-1] + np.arange(n)  # each row's start
    blocks += (np.arange(ring, dtype=dtype) * per)[:, None]
    indptr[-1] = ring * per
    return indptr, indices.ravel(), data.ravel()


def _product_sums(acc):
    """add(coefs, rows): acc[i] += coefs[i, k] rows[k] for each k in order,
    i < len(coefs), with one csr_matvecs call of coefs as a dense CSR
    matrix, its entries in k order: the kernel does y += c x per entry, so
    each acc[i] gets the bits of a multiply and an in-place add per step.
    rows is float64, count rows of acc's row width, count = coefs.shape[1]
    (the kernel reads a copy of rows that are not C-contiguous, such as a
    gather of some columns); acc, the output, is checked here, once."""
    width = math.prod(acc.shape[1:])
    if acc.dtype != np.float64 or not acc.flags.c_contiguous or not width:
        raise ValueError("the sums need a C-contiguous float64 accumulator "
                         "with nonempty rows")
    dense = {}  # count: indptr, indices of len(acc) rows of count entries

    def add(coefs, rows):
        summing, count = coefs.shape
        if count not in dense:
            dense[count] = (
                np.arange(0, len(acc) * count + 1, count, dtype=np.int32),
                np.tile(np.arange(count, dtype=np.int32), len(acc)))
        csr_matvecs(summing, count, width, *dense[count], coefs.ravel(), rows,
                    acc)
    return add


def _bessel_windows(taus, size, starts):
    """c_k = 2 e^-tau I_k(tau) for k = 0..m of each tau, m = size - 1 >= 2
    (tol < 1 <= spread makes it so), one window after another from
    ``starts``.

    ive gives the window ends, k = 0 and m; the rest solve the three-term
    recurrence I_{k-1} - I_{k+1} = (2k / tau) I_k as a boundary-value
    problem (Olver, J. Res. NBS 71B, 1967), one tridiagonal system for all
    the windows: row k of a window reads tau c_{k-1} - 2k c_k - tau c_{k+1}
    = 0, its ends moved to the right side, so tau = 0 needs no branch.  The
    entries that would couple two windows are 0, and LAPACK's dgtsv never
    swaps a row whose sub-diagonal entry is 0 with the row above and adds
    its zero fill as 0 * x, so each window gets the bits it gets solved
    alone (tests/test_kernel.py, TestTridiagonalSolve, pins this).
    """
    c = np.empty(size.sum())
    if not len(c):
        return c
    ends = starts + size - 1
    edges = np.concatenate([starts, ends])
    c[edges] = 2.0 * ive(np.concatenate([np.zeros_like(size), size - 1]),
                         np.tile(taus, 2))
    if not np.isfinite(c[edges]).all():  # ive is nan from Lam t about 1.1e9
        raise ValueError(f"times up to Lam*t = {taus.max():.6g} are past the "
                         "range of scipy's ive")
    interior = np.ones(len(c), dtype=bool)
    interior[starts] = interior[ends] = False
    inner = size - 2
    first = np.cumsum(inner) - inner  # each window's row k = 1
    last = first + inner - 1
    tau_r = np.repeat(taus, inner)
    d = -2.0 * (np.arange(len(tau_r)) - np.repeat(first - 1, inner))
    du, dl = -tau_r[:-1], tau_r[1:]  # dgtsv may overwrite tau_r
    du[last[:-1]] = dl[last[:-1]] = 0.0
    b = np.zeros((len(d), 1))
    b[first, 0] = -taus * c[starts]
    b[last, 0] += taus * c[ends]
    if len(d) == 1:  # scipy's dgtsv takes no empty dl and du; LAPACK's n = 1
        x = b / d
    else:
        *_, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
        if info:
            raise ValueError(f"the Bessel recurrence is singular at row "
                             f"{info}")
    x += 0.0  # turns the -0.0 of tau = 0 into 0 and changes no other bit
    c[interior] = x[:, 0]
    return c


def _chebyshev_cut(taus, tol, spread):
    """(c, starts, lengths, err): for each tau = Lam t, c[starts[j]:starts[j]
    + lengths[j]] holds c_0..c_K, where c_k = 2 e^-tau I_k(tau) with c_0
    halved, and err[j] is ``spread`` times a bound on the tail sum_{k > K}
    c_k, for the least K with err[j] <= tol.

    Amos's ratio bound (Math. Comp. 28, 1974), I_{v+1}(tau) / I_v(tau) <=
    r_v = tau / (v + 1/2 + sqrt((v + 1/2)^2 + tau^2)), decreases in v, so the
    tail from k on is at most c_k / (1 - r_k).

    One _bessel_windows call serves every time, over k = 0..m with the cut
    certain to lie below m: e^-tau I_k(tau) is the Skellam law of X - Y, X
    and Y Poisson(tau/2), so Bennett's inequality gives c_m <= 2 exp(-m^2 /
    (2 (tau + m/3))), and 1 / (1 - r_m) <= 2 + tau for m >= 1.  Both
    together are at most tol / spread once m^2 >= 2 L (tau + m/3), L = ln(2
    spread (2 + tau) / tol).  A call whose m, summed over its times, is past
    MAX_COEFFICIENTS (or inf: Lam t may overflow) raises ValueError before
    any is allocated; a Lam t past the range of scipy's ive raises it too.
    """
    taus = np.asarray(taus, dtype=float)
    budget = math.log(2.0 * spread) - math.log(tol) + np.log(2.0 + taus)
    with np.errstate(over="ignore"):  # an infinite count is rejected below
        size = np.ceil(budget / 3.0 + np.sqrt(budget ** 2 / 9.0 + 2.0 * budget
                                              * taus)) + 2.0
    if not size.sum() <= MAX_COEFFICIENTS:  # also when it is inf
        raise ValueError(f"times up to Lam*t = {taus.max():.6g} need "
                         f"{size.sum():.6g} Chebyshev coefficients, more than "
                         f"the {MAX_COEFFICIENTS:.6g} one kernel call may hold")
    size = size.astype(np.intp)
    starts = np.cumsum(size) - size
    c = _bessel_windows(taus, size, starts)
    c[starts] *= 0.5
    ks = np.arange(len(c)) - np.repeat(starts, size)
    tau_k = np.repeat(taus, size)
    a = ks + 0.5
    tail = spread * c / (1.0 - tau_k / (a + np.hypot(a, tau_k)))
    met = np.flatnonzero((tail <= tol) & (ks > 0))
    # the first index past each start at which the tail meets tol
    cut = met[np.searchsorted(met, starts)]
    return c, starts, cut - starts, tail[cut]


# the arrays of a CSR matrix, named as scipy's matrices name them
_Csr = namedtuple("_Csr", "indptr indices data")


def _step_matrix(g, sub):
    """The _Csr of B = I + Q^T/Lam, for Q the generator of g restricted to
    the sorted vertex indices ``sub`` and Lam the largest holding rate among
    them, built from g's arrays: B_xy = (mu_xy (1/nu_y)) (1/Lam) off the
    diagonal and 1 + (-rate_x (1/Lam)) on it, each row's columns sorted and
    exact zeros dropped (a CSRW graph has no diagonal).  These are the
    arrays, bit for bit, of scipy's (sparse.eye(n) + q.T * (1/Lam)).tocsr()
    for q = rate_matrix(g)[sub, sub], without its sparse arithmetic."""
    w, n = g.weights, len(sub)
    inv_lam = 1.0 / g.rates[sub].max()
    local = np.full(g.n, -1, dtype=np.intp)  # each vertex's index in sub
    local[sub] = np.arange(n)
    row = local[np.repeat(np.arange(g.n), np.diff(w.indptr))]
    col = local[w.indices]
    inside = (row >= 0) & (col >= 0)
    rows = np.concatenate([row[inside], np.arange(n)])
    cols = np.concatenate([col[inside], np.arange(n)])
    data = np.concatenate([
        w.data[inside] * (1.0 / g.nu)[w.indices[inside]] * inv_lam,
        1.0 + -g.rates[sub] * inv_lam])
    order = np.lexsort((cols, rows))
    order = order[data[order] != 0.0]
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    return _Csr(indptr.astype(w.indices.dtype),
                cols[order].astype(w.indices.dtype), data[order])


def _chebyshev(g, sub, p0, times, tol, entries=None, more=()):
    """(values, err): values[j] = exp(t_j Q^T) p0 for each start distribution
    (column) of p0, Q the generator of g restricted to the sorted vertex
    indices ``sub`` (p0 has a row for each), and err[j] the truncation bound
    of times[j].  With entries, an index such as (rows, cols), values[j] is
    only the [entries] of that.  ``more`` holds further readouts of the same
    recurrence, each a pair (times, entries) read out alike; with it the
    call returns a list of (values, err), one per readout, (times, entries)
    first.

    With B = I + Q^T/Lam and tau = Lam t, exp(t Q^T) = sum_k c_k T_k(B), c_k
    as in _chebyshev_cut.  Q is self-adjoint in L^2(nu) with spectrum in
    [-2 Lam, 0], so B is self-adjoint in L^2(1/nu) with spectrum in [-1, 1],
    |T_k(B)| <= 1 there, and an entry of T_k(B) p0 is at most sqrt(max nu /
    min nu) for a unit p0: the ``spread`` that scales the Bessel tail.

    The recurrence T_0 = p0, T_1 = B p0, T_{k+1} = 2 B T_k - T_{k-1} (see
    _sum_series) serves every time of every readout, and time j adds c_k
    T_k into its own accumulator for k <= K_j.  K_j depends on t_j, tol, Lam
    and nu alone, so a time's value does not depend on the rest of the
    call.  Within a readout, sorted by K, longest first, the times still
    summing at step k are a prefix.  Values are clamped at 0: the true
    values are probabilities, so the clamp can only shrink the error.
    """
    lam, nu = float(g.rates[sub].max()), g.nu[sub]
    readouts = [(times, entries), *more]
    ends = np.cumsum([len(ts) for ts, _ in readouts])
    c, starts, lengths, err = _chebyshev_cut(
        [lam * t for ts, _ in readouts for t in ts], tol,
        math.sqrt(nu.max() / nu.min()))
    sums, out = [], []
    for (ts, ent), end in zip(readouts, ends.tolist()):
        mine = slice(end - len(ts), end)
        order = np.argsort(-lengths[mine], kind="stable")
        length = lengths[mine][order]
        # the readout of a stack of rows: all of each, or its [entries]
        index = (slice(None),) + (() if ent is None else tuple(ent))
        acc = np.zeros((len(ts),) + p0[None][index].shape[1:])
        # table[i, k]: c_k of the i-th longest time, 0 past its cut
        ks = np.arange(length[0] if len(length) else 0)
        table = np.zeros((len(ts), len(ks)))
        table[ks < length[:, None]] = c[np.arange(length.sum()) + np.repeat(
            starts[mine][order] - (np.cumsum(length) - length), length)]
        live = len(ts) - np.searchsorted(length[::-1], ks, side="right")
        sums.append((table, live.tolist(), index, acc))
        out.append((order, acc, err[mine]))
    _sum_series(g, sub, p0, sums)
    results = []
    for order, acc, e in out:
        values = np.empty_like(acc)
        values[order] = acc
        np.maximum(values, 0.0, out=values)
        results.append((values, e))
    return results if more else results[0]


def _sum_series(g, sub, p0, sums):
    """For each (table, live, index, acc) of sums: acc[i] += table[i, k]
    T_k(B) p0 [index] for each step k of the table in order, i < live[k]:
    the times still summing at step k.  One recurrence serves them all, as
    far as the widest table; B is _step_matrix(g, sub), built only when
    there is a step to take.

    The recurrence runs in a ring of ``size`` + 2 blocks of rows, filled
    forward.  T_1 = B T_0 is the one plain step.  The later steps go in
    chunks of ``size`` blocks (the last one the rest), each ending at the
    ring's end or before it: when fewer than ``size`` blocks are left from
    the next one to the ring's end, the two newest blocks are copied to
    blocks 0 and 1 and the chunk starts at block 2, so ceil((steps - 2) /
    size) chunks take the steps.  The copy is exact, and it is needed only
    when ``size`` >= 3, so a ring of large blocks (``size`` 1 or 2) never
    copies.  A chunk zeroes its blocks once, as the compiled kernel adds
    into its output.  Its steps are one call of the ring matrix
    (_ring_matrix) on its row blocks, with the whole ring as operand and
    the chunk's blocks as output: the kernel computes its rows in order, so
    each block reads the two blocks before it, wrapping round the ring
    through the matrix's columns, even when the same call wrote them, and
    the kernel copies no row.  Each block gets 2 (B T_{k-1}) - T_{k-2} bit
    for bit: doubling is exact, and it commutes with rounding except where
    a product falls below 2^-1022 and loses bits, so each row's sum is
    twice B T_{k-1}'s, and the -1 entry comes last.

    After its steps, a chunk's coefficient products go into each readout's
    accumulators of the times summing at its first step in one more
    compiled call per readout (_product_sums): a product and an in-place
    add per entry, in k order, over the chunk's steps that the readout's
    table reaches.  A time whose cut falls inside the chunk has coefficient
    0 past it, and adding 0 times a finite T_k, +-0, to its accumulator,
    which is never -0, changes no bit; so every accumulator gets the bits
    of one multiply and one add per step.  These are the bits of stepping
    into a fresh array and adding each step's products before the next
    step, as tests/test_kernel.py's reference_chebyshev does.

    The ring's blocks, its matrix (int32 indices where they fit) and a
    chunk's coefficients with their column indices fit in CHUNK_BYTES, and
    a chunk has at least one block: a block past CHUNK_BYTES steps one row
    at a time in a ring of three.
    """
    sums = [(table, live, index, _product_sums(acc))
            for table, live, index, acc in sums if table.size and acc.size]
    if not sums:  # no time, or no source
        return
    steps = max(table.shape[1] for table, *_ in sums)

    def add(k, rows):  # the products of the blocks rows, of steps k, k + 1, ..
        for table, live, index, add_products in sums:
            m = min(len(rows), table.shape[1] - k)
            if m > 0:
                add_products(table[:live[k], k:k + m], rows[:m][index])

    if steps < 2:  # no step, and Lam may be 0
        add(0, p0[None])
        return
    n = len(p0)
    b_t = _step_matrix(g, sub)
    # a step's block, its row block of the ring matrix and its coefficients
    step_bytes = (p0.nbytes + 12 * (len(b_t.data) + n) + 4 * n
                  + 12 * sum(len(table) for table, *_ in sums))
    size = max(1, min(steps - 2, CHUNK_BYTES // step_bytes - 2))
    ring = size + 2
    buf = np.zeros((ring,) + p0.shape)
    buf[0] = p0
    first = _csr_call(b_t, n, buf[0], buf[1])
    step = _csr_call(_ring_matrix(b_t, ring), ring * n, buf,
                     buf.reshape((ring * n,) + p0.shape[1:]))
    first(buf[0], buf[1])
    add(0, buf[:2])
    k, pos = 2, 2  # the next step and its block
    while k < steps:
        if ring - pos < size:  # only when size >= 3: restart at block 2
            buf[:2] = buf[pos - 2:pos]
            pos = 2
        count = min(size, steps - k)
        chunk = buf[pos:pos + count]
        chunk.fill(0.0)
        step(buf, chunk, pos * n)
        add(k, chunk)
        k, pos = k + count, (pos + count) % ring


def kernel_rows(g, sources, times, tol=DEFAULT_TOL, domain=None,
                diagonal=False, more=()):
    """(rows, err) from one engine call with a unit start column per source.

    rows[k, j, z] = P_{sources[k]}(X_{times[j]} = z), over the whole graph;
    each row rows[k, j] is contiguous.  With ``domain`` the walk is killed
    on first exit from it: rows[k, j, z] = P(X_t = z, exit time > t), from
    the generator restricted to the domain, and 0 off it.  With
    ``diagonal`` the call reads out only rows[k, j] = P_{sources[k]}(X_t =
    sources[k] [, exit > t]), shaped (sources, times), so a batch of
    on-diagonal curves keeps one number per source and time.  err[j] bounds
    the truncation error of time j (see heat_kernel); values are clamped at
    0, which can only shrink the error.

    ``more`` holds further readouts of the same call, each a triple
    (sources, times, diagonal) read out as above; with it the call returns
    a list of (rows, err), one per readout, (sources, times, diagonal)
    first.  The start block then has a unit column per source of the first
    readout and one per further vertex of the others, and every value has
    the bits it has in a call of its own readout.
    """
    readouts = [(srcs, [float(t) for t in ts], diag)
                for srcs, ts, diag in [(sources, times, diagonal), *more]]
    if not all(math.isfinite(t) and t >= 0.0
               for _, ts, _ in readouts for t in ts):
        raise ValueError("times must be finite and nonnegative")
    if not 0.0 < tol < 1.0:  # also rejects nan
        raise ValueError(f"tol must be finite with 0 < tol < 1, got {tol!r}")
    idx = [np.array([g.index(x) for x in srcs], dtype=np.intp)
           for srcs, _, _ in readouts]
    # the start block's vertices, and cols[r]: the column of each source of
    # readout r
    block, cols = idx[0], [np.arange(len(idx[0]))]
    if more:
        block = np.concatenate([block, np.setdiff1d(np.concatenate(idx[1:]),
                                                    block)])
        vertices, first = np.unique(block, return_index=True)
        cols += [first[np.searchsorted(vertices, i)] for i in idx[1:]]
    if domain is None:
        sub = np.arange(g.n)
    else:
        sub = np.array(sorted({g.index(v) for v in domain}), dtype=np.intp)
        outside = np.setdiff1d(block, sub)
        if len(outside):
            raise ValueError(f"origin {g.vertex_ids[outside[0]]!r} not in "
                             "the killed domain")
    at = np.searchsorted(sub, block)
    p0 = np.zeros((len(sub), len(block)))
    p0[at, np.arange(len(block))] = 1.0
    entries = [(at[c], c) if diag
               else None if np.array_equal(c, np.arange(len(block)))
               else (slice(None), c)
               for c, (_, _, diag) in zip(cols, readouts)]
    results = _chebyshev(g, sub, p0, readouts[0][1], tol, entries[0],
                         [(ts, e) for (_, ts, _), e in zip(readouts[1:],
                                                            entries[1:])])
    out = []
    for (values, err), c, (_, ts, diag) in zip(
            results if more else [results], cols, readouts):
        if diag:
            out.append((values.T, err))
            continue
        rows = np.zeros((len(c), len(ts), g.n))
        rows[..., sub] = values.transpose(2, 0, 1)
        out.append((rows, err))
    return out if more else out[0]


def heat_kernel(g, source, t, tol=DEFAULT_TOL, domain=None):
    """P_source(X_t = .) on the whole graph, killed on first exit from
    ``domain`` when given; err_bound covers truncation only.

    Parameters
    ----------
    g : WeightedGraph
    source : vertex id
    t : float, finite and >= 0
    tol : float, finite with 0 < tol < 1
        Bound on the truncation error.  err_bound is the certified Bessel
        tail beyond the cut K times sqrt(max nu / min nu), at most tol for
        every t.  Rounding over the K sparse steps, of order Lam*t times the
        unit roundoff u, is not included in err_bound.
    domain : vertex ids including ``source``, or None (never killed)
        The killed kernel solves the Dirichlet problem, the generator
        restricted to the domain with absorption outside: it vanishes off the
        domain and is dominated by the full kernel pointwise.
    """
    rows, err = kernel_rows(g, [source], [t], tol, domain)
    probs = rows[0, 0]
    probs.flags.writeable = False
    return HeatKernelResult(
        graph=g, source=g.vertex_ids[g.index(source)], time=float(t),
        probs=probs, err_bound=float(err[0]),
        domain=None if domain is None else frozenset(
            g.vertex_ids[g.index(v)] for v in domain))


def kernel_matrix(g, t, tol=DEFAULT_TOL):
    """All-sources kernel matrix M[i, j] = P_i(X_t = j), one identity block."""
    return kernel_rows(g, g.vertex_ids, [t], tol)[0][:, 0]


def on_diagonal_curves(g, xs, times, tol=DEFAULT_TOL):
    """{x: [(t, P_x(X_t = x))]} for each vertex x of xs over the given times,
    from one engine call that reads out only the diagonal."""
    xs, times = list(xs), [float(t) for t in times]
    diags, _ = kernel_rows(g, xs, times, tol, diagonal=True)
    return {x: list(zip(times, d)) for x, d in zip(xs, diags.tolist())}


def on_diagonal_curve(g, x, times, tol=DEFAULT_TOL):
    """[(t, P_x(X_t = x))] over the given times; input to regularity fitting."""
    return on_diagonal_curves(g, [x], times, tol)[x]


# ---------------------------------------------------------------------------
# Monte Carlo

def _path_rng(seed, path_index):
    # documented stream split: SeedSequence((seed, path_index))
    return np.random.default_rng(np.random.SeedSequence((seed, path_index)))


def simulate(g, source, t_max, n_paths, seed, jump_cap=10_000,
             keep_trajectories=False):
    """Simulate paths of the walk and return the empirical distribution at t_max.

    Each vertex holds for an exponential time with rate mu_x/nu_x, then jumps
    to a neighbor with probability mu_xy/mu_x.  A path that reaches
    ``jump_cap`` jumps before t_max is frozen where it is and flagged as
    exploded; on finite graphs the flag is an operational proxy, meaningful
    when the graph is a truncation of an infinite one.

    Deterministic given ``seed``: path i uses the RNG stream
    ``SeedSequence((seed, i))``, so results do not depend on scheduling.
    """
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be finite and nonnegative, "
                         f"got {t_max!r}")
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if jump_cap < 1:
        raise ValueError("jump_cap must be at least 1")
    src = g.index(source)
    rates = g.rates
    indptr, indices, data = g.weights.indptr, g.weights.indices, g.weights.data
    # per-vertex cumulative jump law mu_xy / mu_x
    cum = []
    for x in range(g.n):
        w = data[indptr[x]:indptr[x + 1]]
        cum.append(np.cumsum(w) / g.weighted_degree[x] if len(w) else np.zeros(0))

    counts = np.zeros(g.n, dtype=np.int64)
    exploded_paths = 0
    trajectories = []
    for i in range(n_paths):
        rng = _path_rng(seed, i)
        state = src
        t_cur = 0.0
        jumps = 0
        exploded = False
        times = [0.0] if keep_trajectories else None
        states = [src] if keep_trajectories else None
        while True:
            rate = rates[state]
            if rate <= 0.0:
                break
            t_cur += rng.exponential(1.0 / rate)
            if t_cur >= t_max:
                break
            u = rng.random()
            k = int(np.searchsorted(cum[state], u, side="right"))
            k = min(k, len(cum[state]) - 1)
            state = int(indices[indptr[state] + k])
            jumps += 1
            if keep_trajectories:
                times.append(t_cur)
                states.append(state)
            if jumps >= jump_cap:
                exploded = True
                break
        counts[state] += 1
        if exploded:
            exploded_paths += 1
        if keep_trajectories:
            trajectories.append(Trajectory(
                times=tuple(times),
                states=tuple(g.vertex_ids[s] for s in states),
                exploded=exploded))
    counts.flags.writeable = False
    return SimulationResult(graph=g, source=g.vertex_ids[src], t_max=float(t_max),
                            n_paths=n_paths, seed=seed, jump_cap=jump_cap,
                            counts=counts, exploded_paths=exploded_paths,
                            trajectories=tuple(trajectories))


# ---------------------------------------------------------------------------
# point-mass evolutions used by the integral-maximum-principle machinery

def point_mass_values(g, origin_index, probs):
    """u(z) = (nu_o^{1/2}/nu_z) probs[z] for a kernel row from o, or for
    each row of a block of such rows."""
    return probs * (math.sqrt(g.nu[origin_index]) / g.nu)


def weighted_tail_mass(g, u, outside_mask):
    """<u^2, 1 - 1_B> for B given by the complementary mask; for u with one
    row per time, an array of one mass per row, and for a stack of masks
    one such mass or array per mask (masks outer), from one u^2 nu.  Each
    mass sums a contiguous run of vertices (compress keeps the vertex axis
    contiguous, where sq[..., mask] would not), so it is the same whatever
    the other rows and masks are."""
    sq = u * u * g.nu
    masks = np.asarray(outside_mask)
    mass = np.reshape([np.compress(m, sq, axis=-1).sum(axis=-1)
                       for m in masks.reshape(-1, masks.shape[-1])],
                      masks.shape[:-1] + sq.shape[:-1])
    return float(mass) if mass.ndim == 0 else mass


class KernelEvolution:
    """u(t, z) = (nu_o^{1/2}/nu_z) P_o(X_t = z [, exit > t]) on a finite graph.

    This is the point-mass-normalized (sub)solution: u(0, z) =
    nu_o^{-1/2} 1_{o}(z), a genuine solution of the heat equation when
    ``domain`` is None and the killed solution otherwise.  Values are cached
    per time; fill() computes a list of times in one engine call.
    """

    def __init__(self, g, origin, domain=None, tol=DEFAULT_TOL):
        self.graph = g
        self.origin = g.vertex_ids[g.index(origin)]
        self.domain = None if domain is None else frozenset(domain)
        self.tol = float(tol)
        self._cache = {}

    def fill(self, times):
        """Cache u(t) and its err_bound for every time not cached yet."""
        times = [float(t) for t in times if float(t) not in self._cache]
        if not times:
            return
        g = self.graph
        rows, err = kernel_rows(g, [self.origin], times, self.tol, self.domain)
        vals = point_mass_values(g, g.index(self.origin), rows[0])
        vals.flags.writeable = False
        self._cache.update(zip(times, zip(vals, err.tolist())))

    def u(self, t):
        t = float(t)
        if t not in self._cache:
            self.fill([t])
        return self._cache[t][0]

    def err_bound(self, t):
        self.u(t)
        return self._cache[float(t)][1]

    def norm_sq(self, t):
        """<u(t,.), u(t,.)>; equals P_o(X_{2t} = o) for the full evolution."""
        vals = self.u(t)
        return float(np.dot(vals * vals, self.graph.nu))

    def tail_mass(self, t, outside_mask):
        """<u(t,.)^2, 1 - 1_B> for B given by the complementary mask."""
        return weighted_tail_mass(self.graph, self.u(t), outside_mask)
