"""Random sampling paths over the unit square.

Eight schemes are supported, all built from two primitives: a step rule that
advances by a Uniform(0, gamma) distance along some angle, and an affine
correction that pins a free random walk's endpoints to prescribed targets
(a discrete Brownian-bridge construction). Schemes differ in where endpoints
are drawn (boundary vs. interior), whether the walk direction is fixed or
random, and whether the path closes on itself (bee-and-hive loops).
"""

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "Scheme",
    "Point",
    "SamplePath",
    "SchemeConfig",
    "ConfigurationError",
    "PathGenerationError",
    "POINT_SCHEMES",
    "UNAWARE_SCHEMES",
    "sample_scattered",
    "sample_boundary_point",
    "same_edge",
    "line_path",
    "random_walk_path",
    "directed_walk",
    "generate_paths",
    "paths_to_csv",
]

WALK_RETRIES = 200


class ConfigurationError(ValueError):
    """Invalid scheme parameters or an unsupported scheme/mode combination."""


class PathGenerationError(RuntimeError):
    """Path generation exhausted its retry budget."""


class Scheme(Enum):
    """The eight sampling strategies."""

    SCATTERED = "scattered"
    LINE_BOUNDARY_POINTS = "line_boundary_points"
    LINE_BOUNDARY_AVG = "line_boundary_avg"
    LINE_INNER_AVG = "line_inner_avg"
    RANDOM_WALK = "random_walk"
    DIRECTED_BOUNDARY = "directed_boundary"
    DIRECTED_INNER = "directed_inner"
    BEE_HIVE = "bee_hive"

    def __str__(self) -> str:
        return self.value


# Schemes whose sensing rows are individual point samples; the rest average
# all readings of a path into a single row.
POINT_SCHEMES = frozenset({Scheme.SCATTERED, Scheme.LINE_BOUNDARY_POINTS})

# Schemes with a meaningful location-unaware variant (known endpoints or a
# known hive center stand in for the unknown sample locations).
UNAWARE_SCHEMES = frozenset(
    {
        Scheme.LINE_BOUNDARY_POINTS,
        Scheme.LINE_BOUNDARY_AVG,
        Scheme.LINE_INNER_AVG,
        Scheme.BEE_HIVE,
    }
)


class Point(NamedTuple):
    x: float
    y: float


@dataclass
class SamplePath:
    """Ordered sampling locations plus the metadata a location-unaware
    reconstruction is allowed to use (declared endpoints or hive center)."""

    points: np.ndarray
    endpoints: tuple[Point, Point] | None = None
    hive: Point | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0 or pts.shape[1] != 2:
            raise ValueError("a path needs at least one (x, y) point")
        if not np.isfinite(pts).all():
            raise ValueError("path points must be finite")
        self.points = pts

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class SchemeConfig:
    """Scheme selector plus every knob a single experiment cell needs.

    gamma bounds the Uniform(0, gamma) inter-sample spacing, p is the number
    of points in a directed walk, and m counts paths (or points, for the
    scattered benchmark).
    """

    scheme: Scheme
    m: int
    b: int = 3
    gamma: float = 0.05
    p: int = 25
    noise_sigma: float = 0.0
    location_aware: bool = True
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.scheme, Scheme):
            self.scheme = Scheme(self.scheme)
        if self.m < 1:
            raise ConfigurationError("m must be >= 1")
        if self.b < 0:
            raise ConfigurationError("b must be >= 0")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigurationError("gamma must be finite and > 0")
        if self.p < 2:
            raise ConfigurationError("p must be >= 2")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigurationError("noise_sigma must be finite and >= 0")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    @property
    def n(self) -> int:
        return (2 * self.b + 1) ** 2


def sample_scattered(m: int, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. points uniform over the unit square, shape (m, 2)."""
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    return rng.random((m, 2))


def sample_boundary_point(rng: np.random.Generator) -> Point:
    """One point uniform over the unit-square perimeter.

    Picks one of the four edges with probability 1/4, then a uniform offset
    along it, which is the uniform distribution on the perimeter since all
    edges have equal length.
    """
    edge = int(rng.integers(0, 4))
    u = float(rng.random())
    if edge == 0:
        return Point(u, 0.0)
    if edge == 1:
        return Point(1.0, u)
    if edge == 2:
        return Point(u, 1.0)
    return Point(0.0, u)


def same_edge(p1, p2) -> bool:
    """True when both points lie on a common edge of the unit square."""
    return any(p1[i] == p2[i] and p1[i] in (0.0, 1.0) for i in (0, 1))


def line_path(b1, b2, gamma: float, rng: np.random.Generator) -> SamplePath:
    """Samples along the straight segment from b1 toward b2.

    The first sample sits at b1 and consecutive spacings are i.i.d.
    Uniform(0, gamma); a step that would pass b2 ends the path, so every
    sample lies on the segment and b2 itself is generally not sampled.
    """
    if gamma <= 0:
        raise ConfigurationError("gamma must be > 0")
    start = np.asarray(b1, dtype=float)
    end = np.asarray(b2, dtype=float)
    delta = end - start
    length = float(np.hypot(delta[0], delta[1]))
    if length == 0.0:
        raise ValueError("line endpoints must be distinct")
    theta = float(np.arctan2(delta[1], delta[0]))
    direction = np.array([np.cos(theta), np.sin(theta)])

    # Mean spacing is gamma/2, so ~2*length/gamma draws are needed; draw in
    # oversized blocks until the cumulative distance passes the far endpoint.
    block = int(2.5 * length / gamma) + 16
    gaps = rng.uniform(0.0, gamma, size=block)
    dist = np.cumsum(gaps)
    while dist[-1] < length:
        gaps = rng.uniform(0.0, gamma, size=block)
        dist = np.concatenate([dist, dist[-1] + np.cumsum(gaps)])
    offsets = np.concatenate([[0.0], dist[dist <= length]])
    points = start + offsets[:, None] * direction
    return SamplePath(points=points, endpoints=(Point(*start), Point(*end)))


def _steps(rng: np.random.Generator, gamma: float, count: int) -> np.ndarray:
    """count walk steps, shape (count, 2): length Uniform(0, gamma), angle Uniform(0, 2pi)."""
    d = rng.uniform(0.0, gamma, size=count)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.column_stack([d * np.cos(theta), d * np.sin(theta)])


def random_walk_path(b1, gamma: float, rng: np.random.Generator) -> SamplePath:
    """Free random walk from a boundary point, stopped at the region edge.

    Each step advances by Uniform(0, gamma) at an independent Uniform(0, 2pi)
    angle. The first point that would leave the unit square terminates the
    walk and is discarded, so all returned points are in-region. A walk that
    dies with fewer than two points is re-rolled up to WALK_RETRIES times.
    """
    if gamma <= 0:
        raise ConfigurationError("gamma must be > 0")
    start = np.asarray(b1, dtype=float)
    chunk = 64
    for _ in range(WALK_RETRIES):
        segments = [start[None, :]]
        current = start
        alive = True
        while alive:
            pos = current + np.cumsum(_steps(rng, gamma, chunk), axis=0)
            inside = (pos[:, 0] >= 0.0) & (pos[:, 0] <= 1.0) \
                & (pos[:, 1] >= 0.0) & (pos[:, 1] <= 1.0)
            if inside.all():
                segments.append(pos)
                current = pos[-1]
            else:
                first_exit = int(np.argmin(inside))
                segments.append(pos[:first_exit])
                alive = False
        points = np.vstack(segments)
        if len(points) >= 2:
            return SamplePath(points=points)
    raise PathGenerationError(
        f"random walk from {tuple(start)} kept exiting immediately "
        f"({WALK_RETRIES} attempts, gamma={gamma})"
    )


def directed_walk(b1, b2, p: int, gamma: float, rng: np.random.Generator,
                  hive: Point | None = None) -> SamplePath:
    """p-point free random walk from b1, affinely corrected to end at b2.

    The walk takes p-1 steps of the random_walk kind with no boundary
    termination; point t (0-based) is then shifted by t/(p-1) times the
    closing error b2 - walk[-1]. The correction factor is exactly 0 at the
    first point and 1 at the last, so the returned path starts at b1 and
    ends at b2 exactly. Intermediate points may leave the unit square; the
    field's periodic extension covers them.
    """
    if p < 2:
        raise ConfigurationError("p must be >= 2")
    if gamma <= 0:
        raise ConfigurationError("gamma must be > 0")
    start = np.asarray(b1, dtype=float)
    end = np.asarray(b2, dtype=float)
    free = np.vstack([start[None, :], start + np.cumsum(_steps(rng, gamma, p - 1), axis=0)])
    frac = np.linspace(0.0, 1.0, p)[:, None]
    points = free + frac * (end - free[-1])
    points[0] = start
    points[-1] = end
    return SamplePath(points=points, endpoints=(Point(*start), Point(*end)), hive=hive)


def _boundary_pair(rng: np.random.Generator, reject_same_edge: bool) -> tuple[Point, Point]:
    while True:
        p1 = sample_boundary_point(rng)
        p2 = sample_boundary_point(rng)
        if p1 == p2:
            continue
        if reject_same_edge and same_edge(p1, p2):
            continue
        return p1, p2


def _interior_pair(rng: np.random.Generator) -> tuple[Point, Point]:
    while True:
        p1 = Point(*rng.random(2))
        p2 = Point(*rng.random(2))
        if p1 != p2:
            return p1, p2


def generate_paths(config: SchemeConfig,
                   rng: np.random.Generator | None = None) -> list[SamplePath]:
    """All m sampling paths for one experiment cell.

    With no explicit rng the stream is seeded from config.seed, so identical
    configs reproduce identical path lists. Same-edge boundary pairs are
    redrawn for directed boundary walks only; straight boundary lines keep
    them (they degenerate to sampling along one edge).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    scheme = config.scheme

    if scheme is Scheme.SCATTERED:
        pts = sample_scattered(config.m, rng)
        return [SamplePath(points=pt[None, :]) for pt in pts]

    out: list[SamplePath] = []
    for _ in range(config.m):
        if scheme in (Scheme.LINE_BOUNDARY_POINTS, Scheme.LINE_BOUNDARY_AVG):
            b1, b2 = _boundary_pair(rng, reject_same_edge=False)
            out.append(line_path(b1, b2, config.gamma, rng))
        elif scheme is Scheme.LINE_INNER_AVG:
            b1, b2 = _interior_pair(rng)
            out.append(line_path(b1, b2, config.gamma, rng))
        elif scheme is Scheme.RANDOM_WALK:
            b1 = sample_boundary_point(rng)
            out.append(random_walk_path(b1, config.gamma, rng))
        elif scheme is Scheme.DIRECTED_BOUNDARY:
            b1, b2 = _boundary_pair(rng, reject_same_edge=True)
            out.append(directed_walk(b1, b2, config.p, config.gamma, rng))
        elif scheme is Scheme.DIRECTED_INNER:
            b1, b2 = _interior_pair(rng)
            out.append(directed_walk(b1, b2, config.p, config.gamma, rng))
        elif scheme is Scheme.BEE_HIVE:
            hive = Point(*rng.random(2))
            out.append(directed_walk(hive, hive, config.p, config.gamma, rng, hive=hive))
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigurationError(f"unknown scheme {scheme!r}")
    return out


def paths_to_csv(paths: list[SamplePath], path) -> None:
    """Write paths as rows (path_id, t, x, y) for external plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "x", "y"])
        for i, sp in enumerate(paths):
            for t, (x, y) in enumerate(sp.points):
                writer.writerow([i, t, repr(float(x)), repr(float(y))])
