"""Exact transition kernels from the spectrum of the symmetrised generator.

The generator Q (Q_xy = mu_xy / nu_x, rows summing to 0) is self-adjoint in
L^2(nu), so S = D^{1/2} Q D^{-1/2} with D = diag(nu) is symmetric:
S_xy = mu_xy / sqrt(nu_x nu_y), S_xx = -mu_x / nu_x.  With S = V diag(lam) V^T,

    p_t(x, y) = sum_k phi_k(x) psi_k(y) exp(lam_k t),
    phi_k(x) = V_xk / sqrt(nu_x),   psi_k(y) = V_yk sqrt(nu_y).

The eigendecomposition runs in mpmath at ``dps`` digits, so its own error is
negligible; phi, psi and lam are then rounded to float64 and every kernel
value comes with a bound on the error of that float64 evaluation.  Nothing
here imports heatbound.
"""

from __future__ import annotations

import mpmath
import numpy as np

U = 2.0 ** -53  # unit roundoff of float64


class SpectralKernel:
    def __init__(self, graph, dps=40):
        n = graph.n
        with mpmath.workdps(dps):
            nu = [mpmath.mpf(v) for v in graph.nu]
            s = mpmath.zeros(n, n)
            deg = [mpmath.mpf(0)] * n
            for (i, j), w in zip(graph.edges, graph.mu):
                w = mpmath.mpf(w)
                s[i, j] = s[j, i] = w / mpmath.sqrt(nu[i] * nu[j])
                deg[i] += w
                deg[j] += w
            for i in range(n):
                s[i, i] = -deg[i] / nu[i]
            lam, vec = mpmath.eigsy(s)
            root = [mpmath.sqrt(v) for v in nu]
            self.phi = np.array([[float(vec[x, k] / root[x]) for k in range(n)]
                                 for x in range(n)])
            self.psi = np.array([[float(vec[x, k] * root[x]) for k in range(n)]
                                 for x in range(n)])
            self.lam = np.array([float(lam[k]) for k in range(n)])
        self.n = n
        self.nu = np.array(graph.nu, dtype=float)

    def rows(self, sources, t):
        """(p, err): p[a, y] = p_t(sources[a], y) and a bound on its error.

        Each of the n terms carries the rounding of phi, psi and lam (the
        last magnified by |lam| t inside exp) and of the products; the sum
        adds at most n - 1 roundings.  ``err`` doubles that first-order
        count: u * sum_k |phi psi| exp(lam t) (|lam| t + 2n + 10).
        """
        src = np.atleast_1d(np.asarray(sources, dtype=np.intp))
        decay = np.exp(self.lam * t)
        p = (self.phi[src] * decay) @ self.psi.T
        weight = decay * (np.abs(self.lam) * t + 2 * self.n + 10)
        err = U * ((np.abs(self.phi[src]) * weight) @ np.abs(self.psi).T)
        return p, err

    def diagonal(self, times):
        """(p, err) with p[i, x] = p_{times[i]}(x, x); error bound as in rows."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        decay = np.exp(np.outer(times, self.lam))
        both = self.phi * self.psi
        weight = decay * (np.outer(times, np.abs(self.lam)) + 2 * self.n + 10)
        return decay @ both.T, U * (weight @ np.abs(both).T)


def two_state_diagonal(t):
    """p_t(a, a) on two vertices of measure 1 joined by an edge of weight 1."""
    return 0.5 * (1.0 + np.exp(-2.0 * t))


def complete_csrw_diagonal(n, t):
    """p_t(x, x) for the constant-speed walk on the complete graph K_n."""
    return 1.0 / n + (1.0 - 1.0 / n) * np.exp(-n * t / (n - 1))
