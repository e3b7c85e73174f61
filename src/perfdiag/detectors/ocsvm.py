"""One-class SVM (nu-parameterized, RBF kernel) solved by SMO.

Dual problem: minimize (1/2) a^T Q a subject to 0 <= a_i <= 1/(nu*n) and
sum(a) = 1, with Q the RBF Gram matrix. Pairs are picked by maximal-
violating-pair with a second-order gain rule; convergence is declared when
the KKT gap drops below tolerance. Everything is deterministic: ties in
argmin/argmax resolve to the lowest index.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalFailure, TooFewSamples

_TAU = 1e-12
_TOL = 1e-4  # SMO stops once the KKT gap is at most this
_FIT_CAP = 4096  # larger inputs are fitted on a seeded subsample of this many rows
_KERNEL_BLOCK_BYTES = 1 << 20
try:  # glibc's malloc_trim; a no-op under C libraries that have none
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, TypeError):
    _malloc_trim = lambda pad: 0


def rbf_gamma(X: np.ndarray) -> float:
    """Variance-scaled kernel width 1/(n_features * Var(X)), pooled variance."""
    var = float(X.var())
    if var <= 0.0:
        return 1.0 / X.shape[1]
    return 1.0 / (X.shape[1] * var)


def rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    sq_a = np.einsum("ij,ij->i", A, A)
    sq_b = np.einsum("ij,ij->i", B, B)
    # exp(-gamma * clip(sq_a + sq_b - 2 A.B^T)) with the same operations in the
    # same order, written into the product's own buffer one row block at a
    # time: a second full-size buffer would double the fit's peak memory and
    # stack it on whatever heap the neighbour passes left resident
    K = A @ B.T
    step = max(1, _KERNEL_BLOCK_BYTES // (8 * K.shape[1]))
    for lo in range(0, K.shape[0], step):
        rows = K[lo:lo + step]
        sq = sq_a[lo:lo + step, None] + sq_b[None, :]
        rows *= 2.0
        sq -= rows
        np.clip(sq, 0.0, None, out=sq)
        sq *= -gamma
        np.exp(sq, out=rows)
    return K


@dataclass(frozen=True)
class OcsvmModel:
    support_vectors: np.ndarray
    alphas: np.ndarray
    rho: float
    gamma: float
    iterations: int

    def decision(self, X: np.ndarray) -> np.ndarray:
        """Positive inside the learned region, negative outside."""
        k = rbf_kernel(X, self.support_vectors, self.gamma)
        return k @ self.alphas - self.rho


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
    # the neighbour passes' freed blocks raise glibc's mmap and trim thresholds,
    # so a data-dependent part of the heap stays resident; handing it back keeps
    # the peak, the full kernel below, from stacking on that amount
    _malloc_trim(0)
    Q = rbf_kernel(X, X, gamma)

    # deterministic feasible start: pack mass C into the first floor(nu*n)
    # coordinates, remainder into the next one
    alpha = np.zeros(n, dtype=np.float64)
    n_full = int(nu * n)
    alpha[:n_full] = C
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * C
    grad = Q @ alpha

    max_iter = max(100_000, 50 * n)
    diag = np.diag(Q).copy()
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
        # second-order pair choice: largest decrease among movable j
        diff = grad - grad[i]
        eta = np.maximum(diag + diag[i] - 2.0 * Q[:, i], _TAU)
        gain = np.where(can_down & (diff > 0.0), diff * diff / eta, -np.inf)
        j = int(np.argmax(gain))
        step = min(diff[j] / eta[j], C - alpha[i], alpha[j])
        alpha[i] += step
        alpha[j] -= step
        grad += step * (Q[:, i] - Q[:, j])
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
