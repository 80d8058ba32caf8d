"""Sensing operators mapping Fourier coefficients to measurements.

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
tables of fixed-size blocks of points, so no table is ever whole (the
structure of Feichtinger, Groechenig and Strohmer's ACT method). The point
Gram sums it over all points at bandwidth 2b; a mean row sums it over one
path's points at bandwidth b and divides by the path's length. Point rows are
never formed: X* g and X* (g - X a) rebuild the tables block by block. A value
eigensolves its Gram at most once (`spectrum`).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .field import harmonics, phasors
from .paths import (ConfigurationError, PathSet, Scheme, SchemeConfig, POINT_SCHEMES,
                    UNAWARE_SCHEMES)

__all__ = [
    "Sensing",
    "point_rows",
    "build_matrix",
]

# Points per block of per-axis tables: a block's bandwidth-2b tables at b = 10
# take 2.7 MB per axis, however many points a trial has.
BLOCK = 4096
# Points per sub-block of a mean row; a path's last sub-block is zero-padded.
SUB_BLOCK = 16


def blocks(count: int):
    """Slices of BLOCK consecutive indices that cover range(count)."""
    return (slice(lo, min(lo + BLOCK, count)) for lo in range(0, count, BLOCK))


def _tables(points: np.ndarray, b: int) -> tuple:
    return phasors(points[..., 0], b), phasors(points[..., 1], b)


def point_rows(points, b: int) -> np.ndarray:
    """Phasor rows exp(j 2 pi (k x + l y)) for points of shape (m, 2)."""
    ex, ey = _tables(np.atleast_2d(np.asarray(points, dtype=float)), b)
    return (ex[:, :, None] * ey[:, None, :]).reshape(len(ex), -1)


def _mean_rows(points: np.ndarray, offsets: np.ndarray, b: int) -> np.ndarray:
    """One mean phasor row per path: E_x^T E_y summed over the path's
    zero-padded sub-blocks, BLOCK points of sub-blocks at a time."""
    counts = np.diff(offsets)
    subs = -(-counts // SUB_BLOCK)
    owner = np.repeat(np.arange(len(counts)), subs)  # the path of each sub-block
    first = (offsets[:-1] - SUB_BLOCK * (np.cumsum(subs) - subs))[owner]
    index = first[:, None] + SUB_BLOCK * np.arange(len(owner))[:, None] + np.arange(SUB_BLOCK)
    padding = index >= offsets[1:][owner, None]
    index[padding] = 0
    sums = np.zeros((len(counts), 2 * b + 1, 2 * b + 1), dtype=complex)
    group = BLOCK // SUB_BLOCK
    for part in (slice(lo, lo + group) for lo in range(0, len(owner), group)):
        ex, ey = _tables(points[index[part]], b)
        ex[padding[part]] = 0.0
        paths = owner[part]
        starts = np.flatnonzero(np.r_[True, paths[1:] != paths[:-1]])  # each path's run
        sums[paths[starts]] += np.add.reduceat(ex.transpose(0, 2, 1) @ ey, starts, axis=0)
    return sums.reshape(len(counts), -1) / counts[:, None]


@dataclass(frozen=True, eq=False)
class Sensing:
    """One trial's sensing matrix X (``shape`` rows x n) and its Gram X*X.

    Point rows (`from_points`) keep only their (rows, 2) locations; mean rows
    (`from_rows`) keep the dense rows. ``adjoint(g)`` is X* g, ``adjoint(g, a)``
    is X* (g - X a) and ``dense()`` is X; columns follow ``harmonics(b)``.
    """

    gram: np.ndarray
    shape: tuple
    rows: np.ndarray | None = None
    points: np.ndarray | None = None

    @classmethod
    def from_points(cls, points, b: int) -> "Sensing":
        """Point rows at each (x, y) location, kept as the locations."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        # G[(k, l), (k', l')] = d[k' - k + 2b, l' - l + 2b], where
        # d[u + 2b, v + 2b] = sum_p exp(j 2 pi (u x_p + v y_p)) for u, v = -2b..2b.
        d = np.zeros((4 * b + 1, 4 * b + 1), dtype=complex)
        for s in blocks(len(points)):
            ex, ey = _tables(points[s], 2 * b)
            d += ex.T @ ey
        kl = harmonics(b)
        gram = d[kl[None, :, 0] - kl[:, None, 0] + 2 * b, kl[None, :, 1] - kl[:, None, 1] + 2 * b]
        return cls(gram, (len(points), (2 * b + 1) ** 2), points=points)

    @classmethod
    def from_rows(cls, rows) -> "Sensing":
        """A dense (m, n) matrix, such as one mean phasor row per path."""
        rows = np.asarray(rows, dtype=complex)
        return cls(rows.conj().T @ rows, rows.shape, rows=rows)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The Gram eigenvalues in ascending order, computed once per value."""
        return np.linalg.eigvalsh(self.gram)

    def adjoint(self, g, a=None) -> np.ndarray:
        """X* g for one value per row; X* (g - X a) when a is given, in one
        pass over the point blocks."""
        if self.rows is not None:
            return self.rows.conj().T @ (g if a is None else g - self.rows @ a)
        b = (math.isqrt(self.shape[1]) - 1) // 2
        acc = 0.0
        for s in blocks(self.shape[0]):
            ex, ey = _tables(self.points[s], b)
            r = g[s] if a is None else g[s] - ((ex @ np.reshape(a, (2 * b + 1, -1))) * ey).sum(1)
            # conj(E_x)^T diag(r) conj(E_y), conjugated once at the end.
            acc = acc + ex.T @ (np.conj(r)[:, None] * ey)
        return acc.conj().ravel()

    def dense(self) -> np.ndarray:
        """The m x n matrix; for point rows it equals ``point_rows`` bit for bit."""
        if self.rows is not None:
            return self.rows
        return point_rows(self.points, (math.isqrt(self.shape[1]) - 1) // 2)


def _unaware_locations(paths: PathSet, scheme: Scheme) -> tuple:
    """The (locations, offsets) a location-unaware reconstruction assumes."""
    if scheme is Scheme.BEE_HIVE:
        if paths.hives is None:
            raise ConfigurationError("bee-and-hive paths must carry their hive center")
        return paths.hives, np.arange(len(paths) + 1)
    if paths.endpoints is None:
        raise ConfigurationError("location-unaware mode needs declared path endpoints")
    owner = np.repeat(np.arange(len(paths)), paths.counts)
    start, end = paths.endpoints[owner, 0], paths.endpoints[owner, 1]
    # Reading t of a path of c readings sits at start + t (end - start) / (c - 1).
    step = (end - start) / np.maximum(paths.counts[owner] - 1, 1)[:, None]
    return start + (np.arange(len(owner)) - paths.offsets[owner])[:, None] * step, paths.offsets


def build_matrix(paths: PathSet, config: SchemeConfig) -> Sensing:
    """The sensing operator of one cell's paths.

    Rows are point phasors at every location for point schemes and one mean
    phasor row per path for the rest. Locations are the sample points, or
    their location-unaware stand-ins; schemes without a defined unaware
    variant are rejected.
    """
    scheme = config.scheme
    if config.location_aware:
        locations, offsets = paths.points, paths.offsets
    elif scheme in UNAWARE_SCHEMES:
        locations, offsets = _unaware_locations(paths, scheme)
    else:
        raise ConfigurationError(
            f"scheme {scheme} has no location-unaware variant; "
            f"supported: {sorted(s.value for s in UNAWARE_SCHEMES)}"
        )
    if scheme in POINT_SCHEMES or len(locations) == len(paths):
        # The mean of one location's row is that row.
        return Sensing.from_points(locations, config.b)
    return Sensing.from_rows(_mean_rows(locations, offsets, config.b))
