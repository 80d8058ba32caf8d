"""Least-squares field recovery and sensing-matrix conditioning.

The coefficient estimate is the least-squares solution of X a = g, i.e.
(X*X)^-1 X* g in exact arithmetic, computed here by one SVD-based `lstsq`
call; its singular values give the condition number sigma_max/sigma_min and
the singularity verdict. `condition_number` alone, for sweeps that skip the
solve, evaluates the same ratio from the eigenvalues of the n x n Gram matrix
X*X, which is cheaper than an SVD of the full m x n matrix. Both apply one
singularity rule, SINGULAR_RATIO. The field RMSE over the unit square equals
the coefficient error norm by Parseval's identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .field import BandlimitedField
from .paths import SamplePath, SchemeConfig, POINT_SCHEMES

__all__ = [
    "EstimateReport",
    "SingularSystemError",
    "measure",
    "estimate_coefficients",
    "condition_number",
    "reconstruct_and_score",
]

# A matrix whose sigma_min/sigma_max falls below this is numerically
# singular: its condition number is reported as inf and a solve refuses it;
# such draws are excluded from sweep averages. The Gram route squares the
# ratio, and 1e-7 squared stays well above its eps-level accuracy.
SINGULAR_RATIO = 1e-7


class SingularSystemError(RuntimeError):
    """The sensing matrix is numerically rank deficient."""


@dataclass
class EstimateReport:
    """Recovered coefficient grid plus stability and error metrics."""

    coeff_estimate: np.ndarray
    condition_number: float
    coeff_rel_error: float
    field_rmse: float


def measure(field: BandlimitedField, paths: list[SamplePath],
            config: SchemeConfig, rng: np.random.Generator) -> np.ndarray:
    """Simulate sensor readings over the given paths: one float per matrix row.

    Point schemes yield one value per sample; averaging schemes add noise to
    every raw reading first and then average per path, which is what shrinks
    the noise variance by the per-path sample count. Noise is drawn once for
    all readings, in path order.
    """
    sigma = config.noise_sigma
    pts = np.vstack([sp.points for sp in paths])
    values = field.evaluate(pts[:, 0], pts[:, 1])
    if sigma > 0:
        values = values + rng.normal(0.0, sigma, size=values.shape)
    if config.scheme not in POINT_SCHEMES:
        counts = np.array([len(sp) for sp in paths])
        values = np.add.reduceat(values, np.cumsum(counts) - counts) / counts
    return values


def _checked_condition(kappa: float) -> float:
    """kappa = sigma_max/sigma_min, or inf when 1/kappa is below SINGULAR_RATIO."""
    return kappa if kappa * SINGULAR_RATIO <= 1.0 else math.inf


def _solve(X, g) -> tuple[np.ndarray, float]:
    """Least-squares solution and the matrix's condition number, from one SVD."""
    A = np.asarray(X, dtype=complex)
    values = np.asarray(g).ravel()
    m, n = A.shape
    if m < n:
        raise ValueError(f"underdetermined system: {m} measurements for {n} coefficients")
    if len(values) != m:
        raise ValueError(f"got {len(values)} measurements for {m} matrix rows")
    solution, _, _, sv = np.linalg.lstsq(A, values.astype(complex), rcond=None)
    kappa = _checked_condition(sv[0] / sv[-1] if sv[-1] > 0 else math.inf)
    if math.isinf(kappa):
        raise SingularSystemError(
            f"sensing matrix is numerically singular (sv ratio {sv[-1] / sv[0]:.2e})"
            if sv[0] > 0 else "sensing matrix is zero"
        )
    return solution, kappa


def estimate_coefficients(X, g) -> np.ndarray:
    """Least-squares coefficient estimate for measurements g.

    Requires at least as many rows as columns and a numerically full-rank
    matrix; raises SingularSystemError when the smallest singular value
    drops below SINGULAR_RATIO times the largest.
    """
    return _solve(X, g)[0]


def condition_number(X) -> float:
    """sigma_max/sigma_min of the matrix, from the Gram matrix eigenvalues.

    Returns inf when sigma_min/sigma_max falls below SINGULAR_RATIO
    (numerically singular draw).
    """
    A = np.asarray(X, dtype=complex)
    if A.size == 0 or not np.any(A):
        raise ValueError("condition number of an empty or zero matrix")
    gram = A.conj().T @ A
    eigenvalues = np.linalg.eigvalsh(gram)
    lam_max = float(eigenvalues[-1])
    lam_min = float(eigenvalues[0])
    return _checked_condition(math.sqrt(lam_max / lam_min) if lam_min > 0.0 else math.inf)


def reconstruct_and_score(field: BandlimitedField, X, g) -> EstimateReport:
    """Recover coefficients and score them against the true field.

    The harmonics are orthonormal on the unit square, so the field's RMSE
    there is exactly the coefficient error norm (Parseval).
    """
    estimate, kappa = _solve(X, g)
    size = 2 * field.b + 1
    truth = field.vector()
    error = float(np.linalg.norm(estimate - truth))
    return EstimateReport(
        coeff_estimate=estimate.reshape(size, size),
        condition_number=kappa,
        coeff_rel_error=error / float(np.linalg.norm(truth)),
        field_rmse=error,
    )
