"""Normalization and metric selection.

Two selection paths: a weakly supervised correlation filter that keeps
metrics whose Pearson correlation with the anomaly labels is strong and
significant, and an unsupervised PCA reduction. Population (1/d) variance
conventions are used throughout so normalization and correlation agree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import LabelSeries, MetricFrame, SelectedFrame, standardize
from .errors import (
    AllFiltered,
    ConstantColumnWarning,
    DegenerateCovariance,
    InvalidConfig,
    NumericalFailure,
    ShapeMismatch,
    TooFewSamples,
)


def zscore(frame: MetricFrame) -> tuple[MetricFrame, tuple[str, ...]]:
    """Normalize each column to mean 0, population std 1.

    Constant columns (max == min) carry no signal and cannot be scaled; they
    are dropped with a ConstantColumnWarning, and their names are returned
    beside the frame.
    """
    if frame.n_samples < 2:
        raise TooFewSamples(f"z-score needs at least 2 samples, got {frame.n_samples}")
    z, _, _, const = standardize(frame.values)
    keep = ~const
    dropped = tuple(n for n, k in zip(frame.names, keep) if not k)
    if dropped:
        warnings.warn(
            f"dropping constant columns: {', '.join(dropped)}", ConstantColumnWarning
        )
    if not keep.any():
        raise DegenerateCovariance("every column is constant")
    # z itself, or one C-contiguous copy of its kept columns: `z[:, keep]`
    # is Fortran-ordered, and MetricFrame would copy it again
    out = MetricFrame(
        timestamps=frame.timestamps,
        values=np.compress(keep, z, axis=1) if dropped else z,
        names=tuple(n for n, k in zip(frame.names, keep) if k),
        interval=frame.interval,
    )
    return out, dropped


@dataclass(frozen=True)
class CorrelationResult:
    """Per-metric correlation with labels: r, t statistic, p-value, verdict."""

    names: tuple[str, ...]
    r: np.ndarray
    t: np.ndarray
    p: np.ndarray
    retained: np.ndarray


def _log_gamma_ratio(a: float, b: float) -> float:
    """log(Gamma(a + b) / Gamma(a)) for a, b > 0.

    For large a the two lgamma values agree in most of their digits, so their
    difference is taken from Stirling's series instead, without cancellation.
    """
    if a < 40.0:
        return math.lgamma(a + b) - math.lgamma(a)

    def correction(z: float) -> float:  # lgamma(z) minus its Stirling form
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * z2)) / z2) / z2) / z

    return (
        (a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
        + (correction(a + b) - correction(a))
    )


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b), by the modified Lentz method.

    Numerical Recipes, 3rd ed., section 6.4; converges fast for
    x < (a + 1) / (a + b + 2).
    """
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise NumericalFailure(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    # log of x^a (1 - x)^b / B(a, b)
    log_front = (
        a * math.log(x) + b * math.log1p(-x) + _log_gamma_ratio(a, b) - math.lgamma(b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, 1.0 - x) / b


def _two_sided_t_pvalue(t: np.ndarray, dof: int) -> np.ndarray:
    """P(|T_dof| >= |t|) via the regularized incomplete beta function."""
    t = np.asarray(t, dtype=np.float64)
    x = dof / (dof + t * t)  # 0 at t = +-inf
    return np.vectorize(_betainc, otypes=[np.float64])(dof / 2.0, 0.5, x)


def correlate_select(
    frame: MetricFrame,
    labels: LabelSeries,
    r_min: float = 0.5,
    p_max: float = 0.05,
) -> tuple[SelectedFrame, CorrelationResult]:
    """Keep metrics strongly and significantly correlated with the labels.

    For each column, Pearson r against the label series (population
    conventions), the t statistic r * sqrt((d - 2) / (1 - r^2)), and its
    two-sided p-value under Student's t with d - 2 degrees of freedom.
    A column is retained iff p < p_max and |r| > r_min; original column
    order is preserved. |r| = 1 is treated as p = 0 (always significant).
    Constant columns get r = 0 and are never retained.
    """
    d = frame.n_samples
    if d < 3:
        raise TooFewSamples(f"correlation filter needs d >= 3, got {d}")
    if len(labels) != d or not np.array_equal(frame.timestamps, labels.timestamps):
        raise ShapeMismatch("frame and labels must be aligned first")
    k = labels.labels.astype(np.float64)
    k_c = k - k.mean()
    vals_c = frame.values - frame.values.mean(axis=0)
    ss_k = k_c @ k_c
    ss_r = np.einsum("ij,ij->j", vals_c, vals_c)
    # single sqrt keeps exactly collinear columns at |r| = 1
    denom = np.sqrt(ss_k * ss_r)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (k_c @ vals_c) / denom
    r = np.where(denom > 0.0, r, 0.0)
    r = np.clip(r, -1.0, 1.0)
    const = ss_r == 0.0
    if const.any():
        bad = tuple(n for n, c in zip(frame.names, const) if c)
        warnings.warn(
            f"constant columns scored r=0: {', '.join(bad)}", ConstantColumnWarning
        )

    dof = d - 2
    perfect = np.abs(r) == 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = r * np.sqrt(dof / (1.0 - r * r))
    # copysign avoids evaluating 0 * inf on the non-perfect entries
    t = np.where(perfect, np.copysign(np.inf, r), t)
    p = _two_sided_t_pvalue(t, dof)
    retained = (p < p_max) & (np.abs(r) > r_min)
    result = CorrelationResult(names=frame.names, r=r, t=t, p=p, retained=retained)
    if not retained.any():
        raise AllFiltered(
            f"no metric passed p < {p_max} and |r| > {r_min}; relax the thresholds"
        )
    idx = np.flatnonzero(retained)
    selected = SelectedFrame(
        timestamps=frame.timestamps,
        values=frame.values[:, idx],
        columns=tuple(frame.names[i] for i in idx),
        method="correlation",
        source_indices=tuple(int(i) for i in idx),
    )
    return selected, result


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA reduction: standardization stats plus projection basis."""

    columns: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    eigenvalues: np.ndarray
    projection: np.ndarray
    retained_variance: float

    @property
    def n_components(self) -> int:
        return self.projection.shape[1]


def pca_fit(
    frame: MetricFrame,
    variance: float = 0.95,
    n_fixed: Optional[int] = None,
) -> PcaModel:
    """Fit PCA on internally standardized data.

    Keeps the smallest component count whose eigenvalue mass reaches
    ``variance``, or exactly ``n_fixed`` when given. Constant columns are
    standardized with std treated as 1 (they become all-zero and carry no
    variance) so the model stays as wide as the input frame.
    """
    if frame.n_samples < 2:
        raise TooFewSamples(f"PCA needs at least 2 samples, got {frame.n_samples}")
    n_cols = frame.n_metrics
    if n_fixed is not None and not 1 <= n_fixed <= n_cols:
        raise InvalidConfig(f"n_fixed must lie in [1, {n_cols}], got {n_fixed}")
    if not 0.0 < variance <= 1.0:
        raise InvalidConfig(f"variance threshold must lie in (0, 1], got {variance}")
    z, means, stds, const = standardize(frame.values)
    if const.any():
        bad = tuple(n for n, c in zip(frame.names, const) if c)
        warnings.warn(
            f"constant columns contribute no variance: {', '.join(bad)}",
            ConstantColumnWarning,
        )
    cov = (z.T @ z) / frame.n_samples
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    total = float(eigvals.sum())
    if total <= 0.0:
        raise DegenerateCovariance("covariance matrix has rank 0")
    if n_fixed is not None:
        n = n_fixed
    else:
        cum = np.cumsum(eigvals) / total
        n = int(np.searchsorted(cum, variance - 1e-12) + 1)
        n = min(n, n_cols)
    basis = eigvecs[:, :n].copy()
    # sign convention: largest-magnitude entry of each component positive
    for j in range(n):
        i = int(np.argmax(np.abs(basis[:, j])))
        if basis[i, j] < 0:
            basis[:, j] = -basis[:, j]
    return PcaModel(
        columns=frame.names,
        means=means,
        stds=np.where(const, 1.0, stds),
        eigenvalues=eigvals,
        projection=basis,
        retained_variance=float(eigvals[:n].sum() / total),
    )


def pca_transform(model: PcaModel, frame: MetricFrame) -> SelectedFrame:
    """Project a frame through a fitted model's standardization and basis."""
    if frame.names != model.columns:
        raise ShapeMismatch(
            f"frame columns do not match the fitted model "
            f"({frame.n_metrics} vs {len(model.columns)})"
        )
    z = (frame.values - model.means) / model.stds
    projected = z @ model.projection
    return SelectedFrame(
        timestamps=frame.timestamps,
        values=projected,
        columns=tuple(f"pc{i}" for i in range(model.n_components)),
        method="pca",
        projection=model.projection,
        col_means=model.means,
        col_stds=model.stds,
    )
