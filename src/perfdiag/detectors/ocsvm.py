"""One-class SVM (nu-parameterized, RBF kernel) solved by SMO.

Dual problem: minimize (1/2) a^T K a subject to 0 <= a_i <= 1/(nu*n) and
sum(a) = 1, with K_ij = exp(-gamma ||x_i - x_j||^2). Pairs are picked by
maximal-violating-pair with a second-order gain rule; convergence is declared
when the KKT gap drops below tolerance. Everything is deterministic: ties in
argmin/argmax resolve to the lowest index.

Memory does not grow with the square of the input: each SMO iteration reads
only kernel columns i and j and the diagonal, which is exactly 1, so the fit
computes those two columns on demand, as LIBSVM does, and the starting
gradient and the decision values are built in blocks of at most
``_KERNEL_BLOCK_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure, TooFewSamples

_TAU = 1e-12
_TOL = 1e-4  # SMO stops once the KKT gap is at most this
_FIT_CAP = 4096  # larger inputs are fitted on a seeded subsample of this many rows
_KERNEL_BLOCK_BYTES = 1 << 20


def rbf_gamma(X: np.ndarray) -> float:
    """Variance-scaled kernel width 1/(n_features * Var(X)), pooled variance."""
    var = float(X.var())
    if var <= 0.0:
        return 1.0 / X.shape[1]
    return 1.0 / (X.shape[1] * var)


def rbf_kernel(
    A: np.ndarray, B: np.ndarray, gamma: float, sq_b: np.ndarray | None = None
) -> np.ndarray:
    """exp(-gamma ||a - b||^2) for every row pair; sq_b may pass B's squared row norms."""
    sq_a = np.einsum("ij,ij->i", A, A)
    if sq_b is None:
        sq_b = np.einsum("ij,ij->i", B, B)
    return np.exp(-gamma * np.clip(sq_a[:, None] + sq_b[None, :] - 2.0 * (A @ B.T), 0.0, None))


def _kernel_sum(A: np.ndarray, B: np.ndarray, w: np.ndarray, gamma: float) -> np.ndarray:
    """rbf_kernel(A, B, gamma) @ w, one block of A's rows at a time."""
    sq_b = np.einsum("ij,ij->i", B, B)
    out = np.empty(A.shape[0], dtype=np.float64)
    step = max(1, _KERNEL_BLOCK_BYTES // (8 * B.shape[0]))
    for lo in range(0, A.shape[0], step):
        out[lo:lo + step] = rbf_kernel(A[lo:lo + step], B, gamma, sq_b) @ w
    return out


@dataclass(frozen=True)
class OcsvmModel:
    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    gamma: float
    iterations: int

    def decision(self, X: np.ndarray) -> np.ndarray:
        """Positive inside the learned region, negative outside."""
        return _kernel_sum(X, self.support_vectors, self.alphas, self.gamma) - self.rho


def ocsvm_fit(
    X: np.ndarray,
    nu: float,
    gamma: float | None = None,
) -> OcsvmModel:
    """Solve the one-class dual on X; raises NumericalFailure at the cap."""
    n = X.shape[0]
    if n < 2:
        raise TooFewSamples(f"ocsvm needs at least 2 points, got {n}")
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    if gamma is None:
        gamma = rbf_gamma(X)
    C = 1.0 / (nu * n)
    sq = np.einsum("ij,ij->i", X, X)

    # deterministic feasible start: pack mass C into the first floor(nu*n)
    # coordinates, remainder into the next one
    alpha = np.zeros(n, dtype=np.float64)
    n_full = int(nu * n)
    alpha[:n_full] = C
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * C
    nonzero = slice(0, n_full + 1)
    grad = _kernel_sum(X, X[nonzero], alpha[nonzero], gamma)  # K @ alpha

    max_iter = max(100_000, 50 * n)
    it = 0
    while True:
        can_up = alpha < C - 1e-15
        can_down = alpha > 1e-15
        g_up = np.where(can_up, grad, np.inf)
        i = int(np.argmin(g_up))
        gap = np.max(np.where(can_down, grad, -np.inf)) - g_up[i]
        if gap <= _TOL:
            break
        if it >= max_iter:
            raise NumericalFailure(
                f"ocsvm SMO not converged after {max_iter} iterations (gap {gap:.3e})"
            )
        # second-order pair choice: largest decrease among movable j. K is
        # symmetric with a unit diagonal, so the rule needs only row i of K
        k_i = rbf_kernel(X[i:i + 1], X, gamma, sq)[0]
        diff = grad - grad[i]
        eta = np.maximum(2.0 - 2.0 * k_i, _TAU)
        gain = np.where(can_down & (diff > 0.0), diff * diff / eta, -np.inf)
        j = int(np.argmax(gain))
        step = min(diff[j] / eta[j], C - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
        grad += step * (k_i - rbf_kernel(X[j:j + 1], X, gamma, sq)[0])
        it += 1

    free = (alpha > 1e-12 * C) & (alpha < C * (1.0 - 1e-12))
    if free.any():
        rho = float(grad[free].mean())
    else:
        ub = float(np.min(np.where(alpha < C - 1e-15, grad, np.inf)))
        lb = float(np.max(np.where(alpha > 1e-15, grad, -np.inf)))
        # every alpha at a bound on the same side leaves one end open
        rho = lb if not np.isfinite(ub) else (ub + lb) / 2.0
    keep = alpha > 1e-12 * C
    return OcsvmModel(
        support_vectors=X[keep].copy(),
        alphas=alpha[keep].copy(),
        rho=rho,
        gamma=gamma,
        iterations=it,
    )


def ocsvm_scores(
    X: np.ndarray,
    nu: float,
    rng: np.random.Generator,
    gamma: float | None = None,
) -> np.ndarray:
    """Fit on X (a seeded subsample above ``_FIT_CAP`` rows) and score all rows.

    Score is the negated decision value, so outliers score high.
    """
    if X.shape[0] > _FIT_CAP:
        rows = np.sort(rng.choice(X.shape[0], size=_FIT_CAP, replace=False))
        model = ocsvm_fit(X[rows], nu=nu, gamma=gamma)
    else:
        model = ocsvm_fit(X, nu=nu, gamma=gamma)
    return -model.decision(X)
