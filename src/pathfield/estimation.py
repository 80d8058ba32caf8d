"""Least-squares field recovery and sensing-matrix conditioning.

Both work on the n x n Gram G = X*X of a `Sensing` value (a plain array is
taken as its dense rows), never on an SVD of X, and both read the value's one
eigenvalue computation, `Sensing.spectrum`. `condition_number`, the package's
only condition number, is sqrt(lambda_max/lambda_min) of G.
`reconstruct_and_score` applies the same SINGULAR_RATIO rule to the same
eigenvalues, solves G a = X* g by LU and corrects a twice with the residual
g - X a (Bjorck's corrected semi-normal equations). Its score, the relative
coefficient error, is also the field's relative L2 error (Parseval).
"""

import math

import numpy as np

from .field import BandlimitedField
from .paths import SamplePath, SchemeConfig, POINT_SCHEMES
from .sensing import Sensing

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

# Each residual correction shrinks the error of the formed Gram by a factor of
# order eps * kappa^2, which comes from forming G, not from the stable method
# (LU) that solves it. One step leaves the score within 100 eps kappa of lstsq
# only up to kappa ~ 3e6; two reach every kappa SINGULAR_RATIO admits.
CORRECTION_STEPS = 2


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


def _sensing(X) -> Sensing:
    return X if isinstance(X, Sensing) else Sensing.from_rows(X)


def _kappa(eigenvalues) -> float:
    """sigma_max/sigma_min from ascending Gram eigenvalues; inf when singular."""
    lam_max = float(eigenvalues[-1])
    lam_min = float(eigenvalues[0])
    kappa = math.sqrt(lam_max / lam_min) if lam_min > 0.0 else math.inf
    return kappa if kappa * SINGULAR_RATIO <= 1.0 else math.inf


def condition_number(X) -> float:
    """sigma_max/sigma_min of the sensing matrix, from its Gram eigenvalues.

    Returns inf when sigma_min/sigma_max falls below SINGULAR_RATIO
    (numerically singular draw).
    """
    S = _sensing(X)
    if not np.any(S.gram):
        raise ValueError("condition number of an empty or zero matrix")
    return _kappa(S.spectrum)


def reconstruct_and_score(field: BandlimitedField, X, g) -> float:
    """Relative coefficient error ||a_hat - a|| / ||a|| of the least-squares estimate.

    Requires at least as many rows as columns and one measurement per row.
    Raises SingularSystemError when the Gram eigenvalues put sigma_min/sigma_max
    below SINGULAR_RATIO. The harmonics are orthonormal on the unit square, so
    the error norm is also the field's RMSE there (Parseval).
    """
    S = _sensing(X)
    values = np.asarray(g).ravel()
    m, n = S.shape
    if m < n:
        raise ValueError(f"underdetermined system: {m} measurements for {n} coefficients")
    if len(values) != m:
        raise ValueError(f"got {len(values)} measurements for {m} matrix rows")
    if not math.isfinite(_kappa(S.spectrum)):
        raise SingularSystemError(f"sensing matrix is numerically singular: {S.spectrum[[0, -1]]}")
    estimate = np.linalg.solve(S.gram, S.adjoint(values))
    for _ in range(CORRECTION_STEPS):
        estimate += np.linalg.solve(S.gram, S.adjoint(values - S.forward(estimate)))
    truth = field.vector()
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
