"""Stream-independent correctness checks for sweep results.

Neither check pins a result digest, so a declared change of the RNG stream
does not read as a failure. `cell_problem` holds for any stream. `oracle_cond`
regenerates a trial's paths from its seed, builds the dense phasor (or
mean-phasor) matrix from the path points with its own separable kernel, and
takes κ from that matrix's singular values.
"""

import math

import numpy as np

from pathfield.field import generate_random_field
from pathfield.paths import POINT_SCHEMES, Scheme, SchemeConfig, generate_paths

REL_TOL = 1e-6
EPS = np.finfo(float).eps


def cell_problem(cell, iterations: int) -> str | None:
    """Why a sweep cell is impossible, or None when it is plausible."""
    if math.isfinite(cell.mean_cond) and cell.mean_cond < 1.0:
        return f"mean_cond {cell.mean_cond!r} < 1"
    if not 0 <= cell.excluded <= iterations:
        return f"excluded {cell.excluded} outside 0..{iterations}"
    return None


def phasor_rows(points, b: int) -> np.ndarray:
    """exp(j2π(kx + ly)) per point, columns ordered (k, l) with k outer."""
    k = np.arange(-b, b + 1)
    ex = np.exp(2j * np.pi * np.outer(points[:, 0], k))
    ey = np.exp(2j * np.pi * np.outer(points[:, 1], k))
    return (ex[:, :, None] * ey[:, None, :]).reshape(len(points), -1)


def _equispaced(path) -> np.ndarray:
    start, end = (np.asarray(p, dtype=float) for p in path.endpoints)
    count = len(path.points)
    if count == 1:
        return start[None, :]
    return start + (np.arange(count) / (count - 1))[:, None] * (end - start)


def dense_matrix(paths, config: SchemeConfig) -> np.ndarray:
    """The trial's sensing matrix, built from its paths without pathfield.sensing.

    Location-aware rows use the sample points; unaware rows use p equispaced
    points between the declared endpoints, or the hive for bee-and-hive.
    """
    b = config.b
    if not config.location_aware and config.scheme is Scheme.BEE_HIVE:
        return phasor_rows(np.array([sp.hive for sp in paths], dtype=float), b)
    if config.location_aware:
        locations = [sp.points for sp in paths]
    else:
        locations = [_equispaced(sp) for sp in paths]
    if config.scheme in POINT_SCHEMES:
        return phasor_rows(np.vstack(locations), b)
    return np.vstack([phasor_rows(loc, b).mean(axis=0) for loc in locations])


def oracle_cond(config: SchemeConfig) -> float:
    """σ_max/σ_min of the dense matrix of the trial seeded by config.seed.

    The draws repeat run_trial's order: field first, then paths.
    """
    rng = np.random.default_rng(config.seed)
    generate_random_field(config.b, rng)
    paths = generate_paths(config, rng)
    sv = np.linalg.svd(dense_matrix(paths, config), compute_uv=False)
    return float(sv[0] / sv[-1])


def cond_matches(cond: float, reference: float) -> bool:
    """cond agrees with the SVD reference within 1e-6 relative.

    pathfield takes κ from Gram eigenvalues, whose relative accuracy is of
    order eps·κ²; that bound governs above κ ≈ 6.7e4, where it exceeds 1e-6.
    """
    tol = max(REL_TOL, EPS * reference ** 2)
    return abs(cond - reference) <= tol * reference
