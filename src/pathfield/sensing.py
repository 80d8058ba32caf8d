"""A trial's linear algebra: the sensing operator, its readings, kappa and the score.

A point sample at (x, y) contributes the phasor row
exp(j 2 pi (k x + l y)) over all (k, l) harmonics, the outer product of the
per-axis tables exp(j 2 pi x k) and exp(j 2 pi y l). A path that averages its
readings contributes the mean of its locations' phasor rows.

The operator follows one location rule and one row rule. Locations are the
sample points when the reconstruction is location-aware, and the paths'
stand-ins (`PathSet.stand_in_phasors`) when it is not: one per reading,
equispaced between the declared endpoints, or a loop's hive center. A cell
with `SchemeConfig.point_rows` (a point scheme, or an unaware bee hive) gets
one row per location, and every other cell one mean row per path.

Both row types come from one kernel, t_x^T diag(r) t_y summed over the
per-axis tables of blocks of at most BLOCK points, so no table is ever whole
(the structure of Feichtinger, Groechenig and Strohmer's ACT method). The
tables are real, [1, cos, sin] 2 pi k t (`cos_sin`, both axes in one call),
made from the locations' phasors exp(j 2 pi (x, y)) (`PathSet.phasors`), which
a trial computes once per location and every pass reuses.

Every sum over points or paths runs over blocks aligned to the first point or
path, and mean rows are grouped within aligned blocks of PATH_BLOCK paths. So a
cell whose paths begin with a smaller cell's (the cells of one curve and
trial, which share one `paths.Draw` and so one row type) continues what the
smaller cell's operator kept (`Draw.kept`) and adds only the rest, with the
operator it would build from nothing, bit for bit.

The operator works in the field module's real coordinates, the tensor basis
phi_i(x) phi_j(y): R = X Q for the complex phasor matrix X and the unitary Q
of ``BandlimitedField.coordinates``, so R has X's singular values and
||c - Q* a|| = ||Q c - a||; kappa and the score mean what they mean in complex
coordinates, while the Gram, its eigensolve and the solves are real. A point
row is t_x^T t_y, raveled and scaled by `weights` W, so a kernel product is
already in real coordinates: a mean row (`_mean_rows`, in groups of paths of
similar length) and R^T r are the product reshaped and scaled by W, and R a at
each point is t_x (W * a) t_y^T (`real_sum`), as `measure` evaluates the field.
The point Gram sums the kernel at bandwidth 2b and maps that product P back
through the product-to-sum identities A (`product_map`): A P A^T with its
middle axes swapped, scaled by W on both sides. Point rows are never formed:
R^T g and R^T (g - R a) rebuild the tables block by block. A value eigensolves
its Gram at most once (`spectrum`). The dense references, complex phasor rows
and the whole of R, are `point_rows` and `dense_matrix` in
``tests/real_basis.py``.

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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .field import BandlimitedField, cos_sin, product_map, real_sum, weights
from .paths import ConfigurationError, Draw, PathSet, Scheme, SchemeConfig, POINT_SCHEMES

__all__ = [
    "Sensing",
    "Kept",
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

# A path's mean row depends on the paths it is grouped with, whose padded
# length sets the batched product's sums, so groups never cross a block of
# PATH_BLOCK paths aligned to the first; R^T R sums ROW_BLOCK rows at a time.
# Measured on a curve's four cells (1.5n to 8n): smaller path blocks recompute
# fewer rows per cell, and Gram blocks below 256 rows slowed b = 10.
PATH_BLOCK = 64
ROW_BLOCK = 256

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


def blocks(count: int, block: int = BLOCK, start: int = 0):
    """Slices of `block` consecutive indices that cover range(start, count)."""
    return (slice(lo, min(lo + block, count)) for lo in range(start, count, block))


def _mean_rows(phasors: np.ndarray, offsets: np.ndarray, b: int, rows: np.ndarray) -> None:
    """Fill ``rows`` with one mean row per path in real coordinates: t_x^T t_y
    summed over the path's points, scaled by W and divided by their count, one
    batched product per group of length-sorted paths of one PATH_BLOCK (counted
    from the first path) whose tables, zero-padded to the longest, span at most
    BLOCK points. A path longer than BLOCK is a group of its own, summed BLOCK
    points at a time. ``offsets`` index ``phasors``; they may start past 0."""
    counts = np.diff(offsets)
    order = np.lexsort((counts, np.arange(len(counts)) // PATH_BLOCK))  # stable
    length, W = counts[order], weights(b).ravel()
    lo = 0
    while lo < len(order):
        # Paths lo..hi-1 of lo's block, padded to path hi-1's length, fill at
        # most BLOCK points.
        run = length[lo:min(lo + BLOCK, (lo // PATH_BLOCK + 1) * PATH_BLOCK)]
        hi = lo + max(1, int(np.searchsorted(run * np.arange(1, len(run) + 1), BLOCK, "right")))
        paths, longest = order[lo:hi], length[hi - 1]
        sums = 0.0
        for start in range(0, longest, BLOCK):
            index = offsets[paths, None] + np.arange(start, min(start + BLOCK, longest))
            padding = index >= offsets[paths + 1, None]  # read (clipped to P), then zeroed
            u = np.take(phasors, index, axis=0, mode="clip")  # (paths, L, 2)
            tx, ty = cos_sin(np.moveaxis(u, -1, 0), b)
            tx[padding] = 0.0
            sums = sums + tx.transpose(0, 2, 1) @ ty
        rows[paths] = sums.reshape(len(paths), -1) * W / length[lo:hi, None]
        lo = hi


class Kept(NamedTuple):
    """What a cell's operator leaves a larger cell of its curve and trial: the
    sum over its whole blocks (BLOCK points or ROW_BLOCK rows), the count
    `done` they cover and the mean rows of its whole PATH_BLOCKs."""

    done: int = 0
    total: np.ndarray | float = 0.0
    rows: np.ndarray = np.empty((0, 0))


def _summed(count: int, block: int, term, kept: Kept) -> tuple:
    """term(s) summed over slices s of `block` indices from 0 up to count, in
    order, continuing kept's sum of the first kept.done; and a Kept with the
    sum after the last whole block."""
    total, done, whole = kept.total, kept.done, kept.total
    for s in blocks(count, block, kept.done):
        total = total + term(s)
        if s.stop - s.start == block:
            done, whole = s.stop, total
    return total, Kept(done, whole)


@dataclass(frozen=True, eq=False)
class Sensing:
    """One trial's real sensing matrix R = X Q (``shape`` rows x n) and its Gram R^T R.

    Point rows (`from_phasors`) keep only their locations' (rows, 2) phasors;
    mean rows (`from_rows`) keep the dense rows. ``adjoint(g)`` is R^T g and
    ``adjoint(g, a)`` is R^T (g - R a); columns are the real coordinates of
    ``BandlimitedField.coordinates`` (module docstring). ``kept`` is what a
    larger cell of the same trial continues; `build_matrix` leaves it in the draw.
    """

    gram: np.ndarray
    shape: tuple
    kept: Kept
    rows: np.ndarray | None = None
    phasors: np.ndarray | None = None

    @classmethod
    def from_phasors(cls, phasors: np.ndarray, b: int, kept: Kept | None = None) -> "Sensing":
        """Point rows at the locations whose per-axis phasors exp(j 2 pi (x, y))
        are the rows of ``phasors`` (P, 2), kept as they are. ``kept`` holds
        the product sum of a prefix of these points."""
        # Row p is W * t_x^T t_y, and a product of two bandwidth-b table entries
        # is a sum over the bandwidth-2b table, so with P = sum_p t_x^T t_y at 2b,
        # G[(i, j), (k, l)] = W[i, j] W[k, l] (A P A^T)[(i, k), (j, l)]. As
        # W = w^T w, W[i, j] W[k, l] = W[i, k] W[j, l] scales A's rows, and the
        # swap of j and k is one batched product over (i, j).
        def product(s):
            tx, ty = cos_sin(phasors[s].T, 2 * b)
            return tx.T @ ty

        prod, kept = _summed(len(phasors), BLOCK, product, kept or Kept())
        W = weights(b)
        A = W.reshape(-1, 1) * product_map(b)  # rows (i, k)
        right = (prod @ A.T).reshape(-1, *W.shape).transpose(1, 0, 2)  # [j, g, l]
        gram = A.reshape(*W.shape, -1)[:, None] @ right  # [i, j, k, l]
        return cls(gram.reshape(W.size, -1), (len(phasors), W.size), kept, phasors=phasors)

    @classmethod
    def from_rows(cls, rows, kept: Kept | None = None) -> "Sensing":
        """A dense real (m, n) matrix, such as one mean row per path, taken as R;
        its Gram is summed ROW_BLOCK rows at a time. ``kept`` holds the Gram of
        a prefix of these rows and their first whole PATH_BLOCKs."""
        if np.iscomplexobj(rows):
            raise TypeError("sensing rows must be real coordinates")
        rows = np.asarray(rows, dtype=float)
        m = len(rows)
        gram, kept = _summed(m, ROW_BLOCK, lambda s: rows[s].T @ rows[s], kept or Kept())
        return cls(gram, rows.shape, kept._replace(rows=rows[:m - m % PATH_BLOCK]), rows=rows)

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
        acc = 0.0
        for block in blocks(self.shape[0]):
            tx, ty = cos_sin(self.phasors[block].T, b)
            r = g[block] if a is None else g[block] - real_sum(a, tx, ty)
            acc = acc + (tx.T * r) @ ty  # t_x^T diag(r) t_y
        return (weights(b) * acc).ravel()


def build_matrix(paths: PathSet, config: SchemeConfig, draw: Draw | None = None) -> Sensing:
    """The sensing operator of one cell's paths.

    Rows are point phasors at every location if ``config.point_rows``, else
    one mean phasor row per path. Locations are the sample points, or their
    location-unaware stand-ins (`PathSet.stand_in_phasors`; `SchemeConfig`
    admits unaware configs only of `UNAWARE_SCHEMES`). ``draw`` is the
    `paths.Draw` the paths were taken from: they must share its set's cache
    and the config its key's settings, else a ValueError leaves the draw as it
    was. Its ``kept``, what the last cell's operator left, is continued when
    its blocks lie within these paths, and this operator's `Sensing.kept`
    replaces it. Otherwise, or without a draw, the build starts from nothing.
    """
    if not config.location_aware and config.scheme is Scheme.BEE_HIVE and paths.hives is None:
        raise ConfigurationError("bee-and-hive paths must carry their hive center")
    draw = Draw() if draw is None else draw
    if draw.paths is not None and (paths.cache is not draw.paths.cache
                                   or draw.key[1:] != Draw.settings(config)):
        raise ValueError("a Draw serves the cells of one trial and curve")
    phasors = paths.phasors if config.location_aware else paths.stand_in_phasors
    count = len(phasors) if config.point_rows else len(paths)
    # The build holds the kept value alone, so once copied the last cell's rows
    # are freed before the new ones are made.
    kept, draw.kept = draw.kept or Kept(), None
    if max(kept.done, len(kept.rows)) > count:
        kept = Kept()
    if config.point_rows:
        X = Sensing.from_phasors(phasors, config.b, kept)
    else:
        rows, start = np.empty((len(paths), config.n)), len(kept.rows)
        if start:
            rows[:start], kept = kept.rows, Kept(kept.done, kept.total)
        _mean_rows(phasors, paths.offsets[start:], config.b, rows[start:])
        X = Sensing.from_rows(rows, kept)
    draw.kept = X.kept
    return X


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
    reads it off its mean rows ``X.rows`` without evaluating the field again.
    Every other trial evaluates the field in the sensing kernel's blocks of
    points: point rows are never formed, and unaware rows are at stand-ins.
    """
    averaging = config.scheme not in POINT_SCHEMES
    if averaging and config.location_aware:
        values = X.rows @ field.coordinates
        if config.noise_sigma > 0:
            noise = rng.normal(0.0, config.noise_sigma, size=len(paths.points))
            values = values + _path_means(noise, paths)
        return values
    phasors = paths.phasors
    values = np.empty(len(phasors))
    for block in blocks(len(phasors)):
        values[block] = real_sum(field.coordinates, *cos_sin(phasors[block].T, field.b))
    if config.noise_sigma > 0:
        values = values + rng.normal(0.0, config.noise_sigma, size=values.shape)
    return _path_means(values, paths) if averaging else values


def _path_means(values: np.ndarray, paths: PathSet) -> np.ndarray:
    """The mean of one value per sample point over each path."""
    owner = np.repeat(np.arange(len(paths)), paths.counts)
    return np.bincount(owner, weights=values) / paths.counts


def condition_number(S: Sensing) -> float:
    """sigma_max/sigma_min of the sensing matrix, from its Gram eigenvalues.

    Returns inf when sigma_min/sigma_max falls below SINGULAR_RATIO
    (numerically singular draw).
    """
    lam_max = float(S.spectrum[-1])
    lam_min = float(S.spectrum[0])
    kappa = math.sqrt(lam_max / lam_min) if lam_min > 0.0 else math.inf
    return kappa if kappa * SINGULAR_RATIO <= 1.0 else math.inf


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
    kappa = condition_number(S)
    if not math.isfinite(kappa):
        raise SingularSystemError(f"sensing matrix is numerically singular: {S.spectrum[[0, -1]]}")
    estimate = np.linalg.solve(S.gram, S.adjoint(values))
    for _ in range(CORRECTION_STEPS if kappa > CORRECTION_KAPPA else 0):
        estimate += np.linalg.solve(S.gram, S.adjoint(values, estimate))
    truth = field.coordinates
    return float(np.linalg.norm(estimate - truth) / np.linalg.norm(truth))
