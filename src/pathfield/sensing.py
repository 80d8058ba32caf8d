"""A trial's linear algebra: the sensing operator, its readings, kappa and the score.

A point sample at (x, y) contributes the phasor row
exp(j 2 pi (k x + l y)) over all (k, l) harmonics, the outer product of the
per-axis tables exp(j 2 pi x k) and exp(j 2 pi y l). A path that averages its
readings contributes the mean of its locations' phasor rows.

The operator follows one location rule and one row rule. Locations are the
sample points when the reconstruction is location-aware; location-unaware
variants replace them with one equispaced point per reading between the
declared endpoints (a single reading sits at the first), or with the hive center
for bee-and-hive loops. Point schemes then get one row per location, and
every other scheme one mean row per path.

Both row types come from one kernel, E_x^T diag(w) E_y over the per-axis
tables of blocks of at most BLOCK points, so no table is ever whole (the
structure of Feichtinger, Groechenig and Strohmer's ACT method). The tables
are real, cos and sin 2 pi k t for k = 0..K (`cos_sin`, both axes in one call),
made from the locations' phasors exp(j 2 pi (x, y)): a trial computes those once
per sample point (`PathSet.phasors`), or once per stand-in location when it is
unaware, and every pass reuses them. The point Gram sums the kernel over all
points at bandwidth 2b; a mean row sums it over one path's points at bandwidth
b, in groups of paths of similar length (`_mean_rows`), and divides by the
path's length. Point rows are never formed: R^T g and R^T (g - R a) rebuild the
tables block by block. A value eigensolves its Gram at most once (`spectrum`).

The field is real, so a phasor row's entries at (k, l) and (-k, -l) are
conjugates. The operator works in the real coordinates of the field module:
R = X Q for the complex phasor matrix X and the unitary Q of
``BandlimitedField.coordinates``, so a phasor row becomes
[sqrt 2 cos; 1; -sqrt 2 sin] of 2 pi (k x + l y). R has X's singular values and
||c - Q* a|| = ||Q c - a||, so kappa and the score mean what they mean in
complex coordinates, while the Gram, its eigensolve and the solves are real.
So is the kernel, one GEMM of the tables per block, whose quadrants give the
complex product D[u, +-v] = CC -+ SS + j (SC +- CS) for u, v >= 0. One map
serves every pass: `pairs` reads real coordinates off a product, and its
transpose `coordinate_matrix` turns coordinates a into the M with
t_x M t_y^T = R a at each point (`real_sum`), whether `measure` evaluates the
field (a its coordinates) or R^T (g - R a) forms R a. The point Gram reads
Re D and Im D at 2b through the same pairs and mirrors them to u < 0.
The dense references, complex phasor rows and the whole of R, are `point_rows`
and `dense_matrix` in ``tests/real_basis.py``.

`measure` returns one reading per row of `build_matrix`'s operator, and takes
that operator: an aware averaging trial's noiseless readings are its mean rows
times the field's real coordinates Q* a, so its sample points are read once,
by the build. Point schemes and unaware trials evaluate the field at the points.
Conditioning and recovery take only a `Sensing` value and work on its n x n
Gram G = R^T R, never on an SVD, and both read `Sensing.spectrum`.
`condition_number`, the package's only condition number, is
sqrt(lambda_max/lambda_min) of G. `reconstruct_and_score` applies the same
SINGULAR_RATIO rule to the same eigenvalues, solves G c = R^T g by LU and,
when kappa > CORRECTION_KAPPA, corrects c twice with R^T (g - R c), each formed
in one pass over the rows (Bjorck's corrected semi-normal equations). Its score,
the relative coefficient error, is also the field's relative L2 error (Parseval).
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .field import BandlimitedField, coordinate_matrix, cos_sin, harmonics, pairs, real_sum
from .paths import (ConfigurationError, PathSet, Scheme, SchemeConfig, POINT_SCHEMES,
                    UNAWARE_SCHEMES)

__all__ = [
    "Sensing",
    "build_matrix",
    "SingularSystemError",
    "measure",
    "condition_number",
    "reconstruct_and_score",
]

# Points per block of per-axis tables: a block's bandwidth-2b tables at b = 10
# take 0.7 MB per axis, however many points a trial has. A mean-row group's
# tables, zero padding included, span at most BLOCK points too.
BLOCK = 2048

# A matrix whose sigma_min/sigma_max falls below this is numerically
# singular: its condition number is reported as inf and a solve refuses it;
# such draws are excluded from sweep averages. The Gram route squares the
# ratio, and 1e-7 squared stays well above its eps-level accuracy.
SINGULAR_RATIO = 1e-7

# Forming G, not the LU that solves it, costs the semi-normal solve an error of
# order eps * kappa^2, and each residual correction shrinks it by that factor.
# Up to CORRECTION_KAPPA that is <= 2e-14, four decades below the lstsq
# tolerance max(1e-10, 100 eps kappa), so no step is taken. Above it, one step
# stays within that tolerance only up to kappa ~ 3e6; two reach every kappa
# SINGULAR_RATIO admits.
CORRECTION_KAPPA = 10.0
CORRECTION_STEPS = 2


def blocks(count: int):
    """Slices of BLOCK consecutive indices that cover range(count)."""
    return (slice(lo, min(lo + BLOCK, count)) for lo in range(0, count, BLOCK))


def _pair_sums(prod: np.ndarray, b: int) -> np.ndarray:
    """P[i1] + s P[i2] over the last two axes of kernel products P: their real
    coordinates before the weights w of `pairs`."""
    i1, i2, s, _ = pairs(b)
    flat = prod.reshape(prod.shape[:-2] + (-1,))
    sums = flat[..., i2] * s
    sums += flat[..., i1]  # in place: a mean-row group's sums are its largest array
    return sums


@lru_cache
def _gram_index(b: int) -> np.ndarray:
    """Flat int32 indices into the raveled kernel d[u + 2b, v + 2b], u, v = -2b..2b,
    of the point Gram's blocks: c rows of T, c rows of W and the row e, c = (n-1)/2."""
    k, l = harmonics(b)[:(2 * b + 1) ** 2 // 2].T.astype(np.int32)
    h, centre = k * (4 * b + 1) + l, 2 * b * (4 * b + 2)  # (k, l)'s offset from d[0, 0]
    index = np.vstack([centre + h - h[:, None], centre - h - h[:, None], centre - h])
    index.setflags(write=False)  # shared by every call at this b
    return index


def _mean_rows(phasors: np.ndarray, offsets: np.ndarray, b: int) -> np.ndarray:
    """One mean phasor row per path in real coordinates: E_x^T E_y summed over
    the path's points, one batched product per group of length-sorted paths whose
    tables, zero-padded to the longest, span at most BLOCK points. A path longer
    than BLOCK is a group of its own, summed BLOCK points at a time."""
    counts = np.diff(offsets)
    order = np.argsort(counts, kind="stable")
    length = counts[order]
    rows, w = np.empty((len(counts), (2 * b + 1) ** 2)), pairs(b)[3]
    lo = 0
    while lo < len(order):
        # Paths lo..hi-1 padded to path hi-1's length fill at most BLOCK points.
        run = length[lo:lo + BLOCK]
        hi = lo + max(1, int(np.searchsorted(run * np.arange(1, len(run) + 1), BLOCK, "right")))
        paths, longest = order[lo:hi], length[hi - 1]
        sums = 0.0
        for start in range(0, longest, BLOCK):
            index = offsets[paths, None] + np.arange(start, min(start + BLOCK, longest))
            padding = index >= offsets[paths + 1, None]  # read (clipped to P), then zeroed
            u = np.take(phasors, index, axis=0, mode="clip")  # (paths, L, 2)
            tx, ty = cos_sin(np.moveaxis(u, -1, 0), b)
            tx[padding] = 0.0
            sums = sums + _pair_sums(tx.transpose(0, 2, 1) @ ty, b)
        rows[paths] = sums * w / length[lo:hi, None]
        lo = hi
    return rows


@dataclass(frozen=True, eq=False)
class Sensing:
    """One trial's real sensing matrix R = X Q (``shape`` rows x n) and its Gram R^T R.

    Point rows (`from_phasors`) keep only their locations' (rows, 2) phasors;
    mean rows (`from_rows`) keep the dense rows. ``adjoint(g)`` is R^T g and
    ``adjoint(g, a)`` is R^T (g - R a); columns are the real coordinates of
    ``harmonics(b)`` (module docstring).
    """

    gram: np.ndarray
    shape: tuple
    rows: np.ndarray | None = None
    phasors: np.ndarray | None = None

    @classmethod
    def from_phasors(cls, phasors: np.ndarray, b: int) -> "Sensing":
        """Point rows at the locations whose per-axis phasors exp(j 2 pi (x, y))
        are the rows of ``phasors`` (P, 2), kept as they are."""
        # G[(k, l), (k', l')] = d[k' - k + 2b, l' - l + 2b], where
        # d[u + 2b, v + 2b] = sum_p exp(j 2 pi (u x_p + v y_p)) for u, v = -2b..2b.
        prod = np.zeros((4 * b + 2, 4 * b + 2))
        for s in blocks(len(phasors)):
            tx, ty = cos_sin(phasors[s].T, 2 * b)
            prod += tx.T @ ty
        x = _pair_sums(prod, 2 * b)  # [Re d; d[0, 0]; Im d] at the mirrors of i < mid
        mid = len(x) // 2
        d = np.empty(len(x), dtype=complex)  # raveled, with d[-u, -v] = conj d[u, v]
        d.real[mid:], d.imag[mid], d.imag[mid + 1:] = x[mid::-1], 0.0, x[:mid:-1]
        d[:mid] = d[:mid:-1].conj()
        # Q* G Q from G's blocks T = G[:c, :c], W = G[:c, :c:-1] and e = sqrt 2
        # G[:c, c], read from d, with G[n-1-i, n-1-j] = conj(G[i, j]).
        parts = d[_gram_index(b)]
        c = len(parts) // 2
        T, W, e = parts[:c], parts[c:-1], math.sqrt(2.0) * parts[-1]
        gram = np.empty((2 * c + 1, 2 * c + 1))
        np.add(T.real, W.real, out=gram[:c, :c])
        np.subtract(T.real, W.real, out=gram[c + 1:, c + 1:])
        np.subtract(W.imag, T.imag, out=gram[:c, c + 1:])
        gram[c + 1:, :c] = gram[:c, c + 1:].T
        gram[:c, c] = gram[c, :c] = e.real
        gram[c + 1:, c] = gram[c, c + 1:] = e.imag
        gram[c, c] = x[mid]  # d[0, 0]
        return cls(gram, (len(phasors), 2 * c + 1), phasors=phasors)

    @classmethod
    def from_rows(cls, rows) -> "Sensing":
        """A dense real (m, n) matrix, such as one mean row per path, taken as R."""
        if np.iscomplexobj(rows):
            raise TypeError("sensing rows must be real coordinates")
        rows = np.asarray(rows, dtype=float)
        return cls(rows.T @ rows, rows.shape, rows=rows)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The Gram eigenvalues in ascending order, computed once per value."""
        return np.linalg.eigvalsh(self.gram)

    def adjoint(self, g, a=None) -> np.ndarray:
        """R^T g for one real value per row; R^T (g - R a) when a is given, in
        one pass over the point blocks."""
        if self.rows is not None:
            return self.rows.T @ (g if a is None else g - self.rows @ a)
        b = (math.isqrt(self.shape[1]) - 1) // 2
        M = None if a is None else coordinate_matrix(a)  # t_x M t_y^T = R a
        acc = 0.0
        for block in blocks(self.shape[0]):
            tx, ty = cos_sin(self.phasors[block].T, b)
            r = g[block] if a is None else g[block] - real_sum(M, tx, ty)
            # R^T r = Re(Q^T X^T r) for real r, and X^T r = E_x^T diag(r) E_y.
            acc = acc + (tx.T * r) @ ty
        return pairs(b)[3] * _pair_sums(acc, b)


def _unaware_locations(paths: PathSet, scheme: Scheme) -> np.ndarray:
    """The locations a location-unaware reconstruction assumes, path by path."""
    if scheme is Scheme.BEE_HIVE:
        if paths.hives is None:
            raise ConfigurationError("bee-and-hive paths must carry their hive center")
        return paths.hives
    if paths.endpoints is None:
        raise ConfigurationError("location-unaware mode needs declared path endpoints")
    counts = paths.counts
    start, end = paths.endpoints[:, 0], paths.endpoints[:, 1]
    # Reading t of a path of c readings sits at start + t (end - start) / (c - 1).
    step = (end - start) / np.maximum(counts - 1, 1)[:, None]
    t = np.arange(paths.offsets[-1]) - np.repeat(paths.offsets[:-1], counts)
    return np.repeat(start, counts, axis=0) + t[:, None] * np.repeat(step, counts, axis=0)


def build_matrix(paths: PathSet, config: SchemeConfig) -> Sensing:
    """The sensing operator of one cell's paths.

    Rows are point phasors at every location for point schemes and one mean
    phasor row per path for the rest. Locations are the sample points, or
    their location-unaware stand-ins; schemes without a defined unaware
    variant are rejected.
    """
    scheme = config.scheme
    if config.location_aware:
        phasors = paths.phasors
    elif scheme in UNAWARE_SCHEMES:
        phasors = np.exp(2j * np.pi * _unaware_locations(paths, scheme))
    else:
        raise ConfigurationError(
            f"scheme {scheme} has no location-unaware variant; "
            f"supported: {sorted(s.value for s in UNAWARE_SCHEMES)}"
        )
    if scheme in POINT_SCHEMES or len(phasors) == len(paths):
        # The mean of one location's row is that row.
        return Sensing.from_phasors(phasors, config.b)
    return Sensing.from_rows(_mean_rows(phasors, paths.offsets, config.b))


class SingularSystemError(RuntimeError):
    """The sensing matrix is numerically rank deficient."""


def measure(field: BandlimitedField, X: Sensing, paths: PathSet, config: SchemeConfig,
            rng: np.random.Generator) -> np.ndarray:
    """Simulate sensor readings over the given paths: one float per row of X,
    the operator `build_matrix` made of the same paths and config.

    Point schemes yield one value per sample; averaging schemes add noise to
    every raw reading first and then average per path, which is what shrinks
    the noise variance by the per-path sample count. Noise is drawn once for
    all readings, in path order. By linearity a path's noiseless mean is its
    mean row times the field's real coordinates, so an aware averaging trial
    reads it off ``X.rows`` without evaluating the field again. Every other
    trial evaluates the field in the sensing kernel's blocks of points: point
    rows are never formed, and unaware rows sit at stand-in locations.
    """
    averaging = config.scheme not in POINT_SCHEMES
    if averaging and config.location_aware and X.rows is not None:
        values = X.rows @ field.coordinates
        if config.noise_sigma > 0:
            noise = rng.normal(0.0, config.noise_sigma, size=len(paths.points))
            values = values + _path_means(noise, paths)
        return values
    phasors, M = paths.phasors, coordinate_matrix(field.coordinates)
    values = np.empty(len(phasors))
    for block in blocks(len(phasors)):
        values[block] = real_sum(M, *cos_sin(phasors[block].T, field.b))
    if config.noise_sigma > 0:
        values = values + rng.normal(0.0, config.noise_sigma, size=values.shape)
    return _path_means(values, paths) if averaging else values


def _path_means(values: np.ndarray, paths: PathSet) -> np.ndarray:
    """The mean of one value per sample point over each path."""
    owner = np.repeat(np.arange(len(paths)), paths.counts)
    return np.bincount(owner, weights=values) / paths.counts


def _kappa(eigenvalues) -> float:
    """sigma_max/sigma_min from ascending Gram eigenvalues; inf when singular."""
    lam_max = float(eigenvalues[-1])
    lam_min = float(eigenvalues[0])
    kappa = math.sqrt(lam_max / lam_min) if lam_min > 0.0 else math.inf
    return kappa if kappa * SINGULAR_RATIO <= 1.0 else math.inf


def condition_number(S: Sensing) -> float:
    """sigma_max/sigma_min of the sensing matrix, from its Gram eigenvalues.

    Returns inf when sigma_min/sigma_max falls below SINGULAR_RATIO
    (numerically singular draw).
    """
    return _kappa(S.spectrum)


def reconstruct_and_score(field: BandlimitedField, S: Sensing, g) -> float:
    """Relative coefficient error ||a_hat - a|| / ||a|| of the least-squares estimate.

    Requires at least as many rows as columns and one measurement per row.
    Raises SingularSystemError when the Gram eigenvalues put sigma_min/sigma_max
    below SINGULAR_RATIO. The harmonics are orthonormal on the unit square, so
    the error norm is also the field's RMSE there (Parseval).
    """
    values = np.asarray(g, dtype=float).ravel()
    m, n = S.shape
    if m < n:
        raise ValueError(f"underdetermined system: {m} measurements for {n} coefficients")
    if len(values) != m:
        raise ValueError(f"got {len(values)} measurements for {m} matrix rows")
    kappa = _kappa(S.spectrum)
    if not math.isfinite(kappa):
        raise SingularSystemError(f"sensing matrix is numerically singular: {S.spectrum[[0, -1]]}")
    estimate = np.linalg.solve(S.gram, S.adjoint(values))
    for _ in range(CORRECTION_STEPS if kappa > CORRECTION_KAPPA else 0):
        estimate += np.linalg.solve(S.gram, S.adjoint(values, estimate))
    truth = field.coordinates
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
