"""Least-squares field recovery and sensing-matrix conditioning.

`condition_number` is the package's only condition number: sigma_max/sigma_min
from the eigenvalues of the n x n Gram matrix X*X, which is cheaper than an
SVD of the full m x n matrix. `reconstruct_and_score` solves X a = g by one
SVD-based `lstsq` call and applies the same singularity rule, SINGULAR_RATIO,
through its `rcond` cut-off: a matrix with a singular value below that share
of the largest has rank below n and is refused. Its score, the relative
coefficient error, is also the relative L2 error of the field over the unit
square by Parseval's identity.
"""

import math

import numpy as np

from .field import BandlimitedField
from .paths import SamplePath, SchemeConfig, POINT_SCHEMES

__all__ = [
    "SingularSystemError",
    "measure",
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
    kappa = math.sqrt(lam_max / lam_min) if lam_min > 0.0 else math.inf
    return kappa if kappa * SINGULAR_RATIO <= 1.0 else math.inf


def reconstruct_and_score(field: BandlimitedField, X, g) -> float:
    """Relative coefficient error ||a_hat - a|| / ||a|| of the least-squares estimate.

    Requires at least as many rows as columns and one measurement per row.
    Raises SingularSystemError when lstsq, cutting singular values below
    SINGULAR_RATIO times the largest, finds the matrix rank deficient. The
    harmonics are orthonormal on the unit square, so the error norm is also
    the field's RMSE there (Parseval).
    """
    A = np.asarray(X, dtype=complex)
    values = np.asarray(g).ravel()
    m, n = A.shape
    if m < n:
        raise ValueError(f"underdetermined system: {m} measurements for {n} coefficients")
    if len(values) != m:
        raise ValueError(f"got {len(values)} measurements for {m} matrix rows")
    estimate, _, rank, _ = np.linalg.lstsq(A, values.astype(complex), rcond=SINGULAR_RATIO)
    if rank < n:
        raise SingularSystemError(f"sensing matrix is numerically singular: rank {rank} of {n}")
    truth = field.vector()
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
