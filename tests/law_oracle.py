"""The exact law of an affine splitting chain: an oracle for `run`'s `d_target` and fitted rate.

Where every outcome map T_i is affine and fixes a common point z, one step
of a chain is Y -> A_i Y for Y = X - z, with outcome i drawn with
probability q_i.  The second moment S_k = E[Y_k Y_k^T] of the law then
evolves in closed form,

    S_{k+1} = sum_i q_i A_i S_k A_i^T,

so the law's squared `d_target`, E ||X_k - z||_p^2, is tr(P S_k) with
P = diag(1/p) per coordinate, and its asymptotic rate per step is
sqrt(rho(sum_i q_i A_i (x) A_i)), the spectral radius of the same map
acting on vec(S) (Diaconis & Freedman, "Iterated random functions", SIAM
Review 1999; Gower & Richtarik, "Randomized iterative methods for linear
systems", 2015).  The fourth moment M_k = E[(Y_k (x) Y_k)(Y_k (x) Y_k)^T]
evolves the same way with A_i (x) A_i in place of A_i, which gives the
spread of a chain's squared distance s_k = ||X_k - z||_p^2 and so the
sampling error of an N-chain run.

A_i is read off ``apply_T``, the reference route, on the basis vectors
around z, so the oracle shares no evaluation with `run`'s masked route.
"""

import itertools

import numpy as np

from blocksplit.splitting import apply_T

# 3-point Gauss-Legendre on [-1, 1], weights normalized to a probability:
# exact for the mean of any polynomial of degree 5 or less under the uniform law
_NODES = np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)])
_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0


def outcome_matrices(m, z) -> list[np.ndarray]:
    """A_i with T_i(z + v) = z + A_i v; column j is T_i(z + e_j) - T_i(z)."""
    z = np.asarray(z, dtype=float)
    around = z + np.eye(z.size)
    return [(apply_T(m, i, around) - apply_T(m, i, z)).T for i in range(m.scheme.num_outcomes)]


def law_rate(m, z) -> float:
    """The law's asymptotic rate per step, sqrt(rho(sum_i q_i A_i (x) A_i))."""
    second = sum(q * np.kron(a, a) for q, a in zip(m.scheme.probs, outcome_matrices(m, z)))
    return float(np.sqrt(np.max(np.abs(np.linalg.eigvals(second)))))


class UniformBoxLaw:
    """The law of the chain of the affine map ``m`` around its fixed point z, from X_0 uniform on [lo, hi]."""

    def __init__(self, m, z, lo, hi):
        z, lo, hi = (np.asarray(v, dtype=float) for v in (z, lo, hi))
        self.probs = m.scheme.probs
        self.A = outcome_matrices(m, z)
        self.P = np.diag(m.probabilities.coordinate_inverse())
        # closed form: diag((hi - lo)^2 / 12) + (c - z)(c - z)^T, c the box's centre
        off = 0.5 * (lo + hi) - z
        self.S0 = np.diag((hi - lo) ** 2 / 12.0) + np.outer(off, off)
        # a degree-4 polynomial of the coordinates: exact on the product rule's 3^dim nodes
        self.M0 = np.zeros((z.size ** 2, z.size ** 2))
        for idx in itertools.product(range(3), repeat=z.size):
            y = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES[list(idx)] - z
            u = np.kron(y, y)
            self.M0 += np.prod(_WEIGHTS[list(idx)]) * np.outer(u, u)

    def _step(self, mats, X):
        return sum(q * a @ X @ a.T for q, a in zip(self.probs, mats))

    def mean_sq(self, K: int) -> np.ndarray:
        """E s_k = tr(P S_k) for k = 0..K: the law's squared `d_target`."""
        S, out = self.S0, []
        for _ in range(K + 1):
            out.append(np.trace(self.P @ S))
            S = self._step(self.A, S)
        return np.array(out)

    def covariance(self, K: int) -> np.ndarray:
        """Cov(s_k, s_l) for k, l = 0..K, one chain's squared distances at two iterations.

        For k <= l, E[s_k s_l] = E[Y_k^T P Y_k Y_k^T P_(l-k) Y_k] with
        P_(j+1) = sum_i q_i A_i^T P_j A_i (the adjoint of the S recursion),
        which is vec(P)^T M_k vec(P_(l-k)).
        """
        kron = [np.kron(a, a) for a in self.A]
        adjoint = [a.T for a in self.A]
        M, P, moments, duals = self.M0, self.P, [], []
        for _ in range(K + 1):
            moments.append(M @ self.P.ravel())
            duals.append(P.ravel())
            M, P = self._step(kron, M), self._step(adjoint, P)
        products = np.array(moments) @ np.array(duals).T  # [k, j] = E[s_k s_(k+j)]
        mean = self.mean_sq(K)
        cov = np.empty((K + 1, K + 1))
        for k in range(K + 1):
            row = products[k, :K + 1 - k] - mean[k] * mean[k:]
            cov[k, k:] = cov[k:, k] = row
        return cov

    def log_rate_sd(self, K: int, num_chains: int) -> float:
        """Standard deviation of log c_hat, the rate fitted over k = 0..K to an N-chain `d_target`.

        To first order in the sampling error, log d_k = (1/2) log(mean s_k)
        moves by (s_bar_k - E s_k) / (2 E s_k), so the least-squares slope
        over k, log c_hat, moves by sum_k b_k (s_bar_k - E s_k) with
        b_k = (k - k_mean) / (2 E s_k sum_k (k - k_mean)^2).  Its variance
        is b^T Cov b / N, the chains being independent.
        """
        k = np.arange(K + 1)
        b = (k - k.mean()) / np.sum((k - k.mean()) ** 2) / (2.0 * self.mean_sq(K))
        return float(np.sqrt(b @ self.covariance(K) @ b / num_chains))
