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

Point rows are never formed: their Gram is Toeplitz-block-Toeplitz in the
harmonic differences, and X a and X* g are products with per-axis tables.
"""

from dataclasses import dataclass

import numpy as np

from .field import harmonics, phasors
from .paths import (
    ConfigurationError,
    SamplePath,
    Scheme,
    SchemeConfig,
    POINT_SCHEMES,
    UNAWARE_SCHEMES,
)

__all__ = [
    "Sensing",
    "point_rows",
    "build_matrix",
]


def _outer_rows(ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    return (ex[:, :, None] * ey[:, None, :]).reshape(len(ex), -1)


def point_rows(points, b: int) -> np.ndarray:
    """Phasor rows exp(j 2 pi (k x + l y)) for points of shape (m, 2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _outer_rows(phasors(pts[:, 0], b), phasors(pts[:, 1], b))


@dataclass(frozen=True, eq=False)
class Sensing:
    """One trial's sensing matrix X (``shape`` rows x n) and its Gram X*X.

    Point rows (`from_points`) keep only the bandwidth-b per-axis phasor
    tables; mean rows (`from_rows`) keep the dense rows. ``forward(a)`` is X a,
    ``adjoint(g)`` is X* g and ``dense()`` is X; columns follow ``harmonics(b)``.
    """

    gram: np.ndarray
    shape: tuple
    rows: np.ndarray | None = None
    tables: tuple | None = None

    @classmethod
    def from_points(cls, points, b: int) -> "Sensing":
        """Point rows at each (x, y) location, kept as per-axis phasor tables."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        wide_x, wide_y = phasors(pts[:, 0], 2 * b), phasors(pts[:, 1], 2 * b)
        # G[(k, l), (k', l')] = d[k' - k + 2b, l' - l + 2b], where
        # d[u + 2b, v + 2b] = sum_p exp(j 2 pi (u x_p + v y_p)) for u, v = -2b..2b.
        d = wide_x.T @ wide_y
        kl = harmonics(b)
        gram = d[kl[None, :, 0] - kl[:, None, 0] + 2 * b, kl[None, :, 1] - kl[:, None, 1] + 2 * b]
        band = slice(b, 3 * b + 1)  # k = -b..b within -2b..2b
        return cls(gram, (len(pts), (2 * b + 1) ** 2), tables=(wide_x[:, band], wide_y[:, band]))

    @classmethod
    def from_rows(cls, rows) -> "Sensing":
        """A dense (m, n) matrix, such as one mean phasor row per path."""
        rows = np.asarray(rows, dtype=complex)
        return cls(rows.conj().T @ rows, rows.shape, rows=rows)

    def forward(self, a) -> np.ndarray:
        """X a for a coefficient vector in ``harmonics`` order."""
        if self.rows is not None:
            return self.rows @ a
        ex, ey = self.tables
        return ((ex @ np.reshape(a, (ex.shape[1], -1))) * ey).sum(axis=1)

    def adjoint(self, g) -> np.ndarray:
        """X* g for one value per row."""
        if self.rows is not None:
            return self.rows.conj().T @ g
        ex, ey = self.tables
        # conj(E_x)^T diag(g) conj(E_y), conjugated once at the end.
        return (ex.T @ (np.conj(g)[:, None] * ey)).conj().ravel()

    def dense(self) -> np.ndarray:
        """The m x n matrix; for point rows it equals ``point_rows`` bit for bit."""
        return self.rows if self.rows is not None else _outer_rows(*self.tables)


def _unaware_points(path: SamplePath, scheme: Scheme) -> np.ndarray:
    """The locations a location-unaware reconstruction assumes for one path."""
    if scheme is Scheme.BEE_HIVE:
        if path.hive is None:
            raise ConfigurationError("bee-and-hive paths must carry their hive center")
        return np.asarray(path.hive, dtype=float)[None, :]
    if path.endpoints is None:
        raise ConfigurationError("location-unaware mode needs declared path endpoints")
    b1, b2 = path.endpoints
    return np.linspace(b1, b2, len(path))


def build_matrix(paths: list[SamplePath], config: SchemeConfig) -> Sensing:
    """The sensing operator of one cell's paths.

    Rows are point phasors at every location for point schemes and one mean
    phasor row per path for the rest. Locations are the sample points, or
    their location-unaware stand-ins; schemes without a defined unaware
    variant are rejected.
    """
    if not paths:
        raise ValueError("no paths to build a matrix from")
    b = config.b
    scheme = config.scheme
    if config.location_aware:
        locations = [sp.points for sp in paths]
    elif scheme in UNAWARE_SCHEMES:
        locations = [_unaware_points(sp, scheme) for sp in paths]
    else:
        raise ConfigurationError(
            f"scheme {scheme} has no location-unaware variant; "
            f"supported: {sorted(s.value for s in UNAWARE_SCHEMES)}"
        )
    if scheme in POINT_SCHEMES or all(len(loc) == 1 for loc in locations):
        # The mean of one location's row is that row.
        return Sensing.from_points(np.vstack(locations), b)
    # Row by row: an (all points x n) array would not fit at b=10, small gamma.
    return Sensing.from_rows(np.vstack([point_rows(loc, b).mean(axis=0) for loc in locations]))
