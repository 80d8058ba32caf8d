"""Complex sensing matrices mapping Fourier coefficients to measurements.

A point sample at (x, y) contributes the phasor row
exp(j 2 pi (k x + l y)) over all (k, l) harmonics, built as the outer product
of the per-axis tables exp(j 2 pi x k) and exp(j 2 pi y l). A path that
averages its readings contributes the mean of its locations' phasor rows.

The matrix follows one location rule and one row rule. Locations are the
sample points when the reconstruction is location-aware; location-unaware
variants replace them with p equispaced points between the declared endpoints
(a single reading is pinned to the first endpoint), or with the hive center
for bee-and-hive loops. Point schemes then get one row per location, and
every other scheme one mean row per path.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .field import phasors
from .paths import (
    ConfigurationError,
    SamplePath,
    Scheme,
    SchemeConfig,
    POINT_SCHEMES,
    UNAWARE_SCHEMES,
)

__all__ = [
    "SensingMatrix",
    "point_rows",
    "unaware_locations",
    "build_matrix",
]


@dataclass
class SensingMatrix:
    """m x n complex matrix of phasors (or phasor means) for bandwidth b.

    Columns follow the ``harmonics(b)`` ordering, so they line up with
    ``BandlimitedField.vector()``.
    """

    entries: np.ndarray
    b: int

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        n = (2 * self.b + 1) ** 2
        if self.entries.ndim != 2 or self.entries.shape[1] != n:
            raise ValueError(f"expected {n} columns for b={self.b}, got shape {self.entries.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def to_csv(self, path) -> None:
        """Write entries as rows (row, col, re, im) for external cross-checks."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "re", "im"])
            for q in range(self.entries.shape[0]):
                for r in range(self.entries.shape[1]):
                    v = self.entries[q, r]
                    writer.writerow([q, r, repr(float(v.real)), repr(float(v.imag))])


def point_rows(points, b: int) -> np.ndarray:
    """Phasor rows exp(j 2 pi (k x + l y)) for points of shape (m, 2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows = phasors(pts[:, 0], b)[:, :, None] * phasors(pts[:, 1], b)[:, None, :]
    return rows.reshape(len(pts), -1)


def unaware_locations(b1, b2, p: int) -> np.ndarray:
    """p equispaced locations from b1 to b2 inclusive, shape (p, 2).

    This is the location-unaware stand-in for p samples on a path with known
    endpoints: point t sits at b1 + t/(p-1) * (b2 - b1), t = 0..p-1.
    """
    if p < 2:
        raise ConfigurationError("p must be >= 2 for endpoint interpolation")
    return np.linspace(np.asarray(b1, dtype=float), np.asarray(b2, dtype=float), p)


def _unaware_points(path: SamplePath, scheme: Scheme) -> np.ndarray:
    """The locations a location-unaware reconstruction assumes for one path."""
    if scheme is Scheme.BEE_HIVE:
        if path.hive is None:
            raise ConfigurationError("bee-and-hive paths must carry their hive center")
        return np.asarray(path.hive, dtype=float)[None, :]
    if path.endpoints is None:
        raise ConfigurationError("location-unaware mode needs declared path endpoints")
    b1, b2 = path.endpoints
    if len(path) == 1:
        # Equispacing needs two samples; a single reading is pinned to b1.
        return np.asarray(b1, dtype=float)[None, :]
    return unaware_locations(b1, b2, len(path))


def build_matrix(paths: list[SamplePath], config: SchemeConfig) -> SensingMatrix:
    """Assemble the sensing matrix for one cell's paths.

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
    if scheme in POINT_SCHEMES:
        entries = point_rows(np.vstack(locations), b)
    else:
        # Row by row: an (all points x n) array would not fit at b=10, small gamma.
        entries = np.vstack([point_rows(loc, b).mean(axis=0) for loc in locations])
    return SensingMatrix(entries=entries, b=b)
