"""Complex sensing matrices mapping Fourier coefficients to measurements.

A point sample at (x, y) contributes the phasor row
exp(j 2 pi (k x + l y)) over all (k, l) harmonics, built as the outer product
of the per-axis tables exp(j 2 pi x k) and exp(j 2 pi y l). A path that
averages its readings contributes the mean of its locations' phasor rows.

The matrix follows one location rule and one row rule. Locations are the
sample points when the reconstruction is location-aware; location-unaware
variants replace them with one equispaced point per reading between the
declared endpoints (a single reading sits at the first), or with the hive center
for bee-and-hive loops. Point schemes then get one row per location, and
every other scheme one mean row per path.
"""

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
    "point_rows",
    "build_matrix",
]


def point_rows(points, b: int) -> np.ndarray:
    """Phasor rows exp(j 2 pi (k x + l y)) for points of shape (m, 2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rows = phasors(pts[:, 0], b)[:, :, None] * phasors(pts[:, 1], b)[:, None, :]
    return rows.reshape(len(pts), -1)


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


def build_matrix(paths: list[SamplePath], config: SchemeConfig) -> np.ndarray:
    """The complex m x n sensing matrix for one cell's paths.

    Columns follow the ``harmonics(b)`` ordering, so they line up with
    ``BandlimitedField.vector()``. Rows are point phasors at every location
    for point schemes and one mean phasor row per path for the rest.
    Locations are the sample points, or their location-unaware stand-ins;
    schemes without a defined unaware variant are rejected.
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
        return point_rows(np.vstack(locations), b)
    # Row by row: an (all points x n) array would not fit at b=10, small gamma.
    return np.vstack([point_rows(loc, b).mean(axis=0) for loc in locations])
