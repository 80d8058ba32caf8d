"""Random sampling paths over the unit square, drawn in batches.

Eight schemes are supported, all built from two primitives: a step rule that
advances by a Uniform(0, gamma) distance along some angle, and an affine
correction that pins a free random walk's endpoints to prescribed targets
(a discrete Brownian-bridge construction). Schemes differ in where endpoints
are drawn (boundary vs. interior), whether the walk direction is fixed or
random, and whether the path closes on itself (bee-and-hive loops).

A cell's m paths form one ragged `PathSet`: every path's points back to back
in one (P, 2) array, with `offsets` marking where each path starts. Every
generator draws its random numbers as whole arrays for all m paths at once,
in the order its docstring states; no Python loop runs once per path.
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
    "PathSet",
    "SchemeConfig",
    "ConfigurationError",
    "PathGenerationError",
    "POINT_SCHEMES",
    "UNAWARE_SCHEMES",
    "sample_scattered",
    "sample_boundary_points",
    "same_edge",
    "line_paths",
    "random_walks",
    "directed_walks",
    "generate_paths",
    "paths_to_csv",
]

WALK_RETRIES = 200
# Each of the k random walks still running draws max(16, WALK_ROUND // k)
# steps per round: long rounds for the few heavy-tailed walks left at the end.
WALK_ROUND = 1024


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


@dataclass(slots=True)
class SamplePath:
    """One path of a `PathSet`: its ordered sampling locations plus the
    metadata a location-unaware reconstruction is allowed to use (declared
    endpoints or hive center)."""

    points: np.ndarray
    endpoints: tuple[Point, Point] | None = None
    hive: Point | None = None

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class PathSet:
    """A cell's m paths in one ragged array.

    Path i is ``points[offsets[i]:offsets[i + 1]]``; the m + 1 offsets rise
    from 0 to P, by at least one point per path. ``endpoints`` (m, 2, 2) holds
    each path's declared start and end and ``hives`` (m, 2) each loop's
    center, or None. Iterating yields one `SamplePath` view per path.
    """

    points: np.ndarray
    offsets: np.ndarray
    endpoints: np.ndarray | None = None
    hives: np.ndarray | None = None

    def __post_init__(self):
        offsets, points = np.asarray(self.offsets), np.asarray(self.points, dtype=float)
        if len(offsets) < 2 or offsets[0] != 0 or (np.diff(offsets) < 1).any() \
                or points.shape != (offsets[-1], 2) or not np.isfinite(points).all():
            raise ValueError("a PathSet needs finite (P, 2) points and offsets rising "
                             "from 0 to P by at least 1 per path")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "points", points)

    @property
    def counts(self) -> np.ndarray:
        """Points per path."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> SamplePath:
        i = range(len(self))[i]
        return _view(self.points[self.offsets[i]:self.offsets[i + 1]],
                     None if self.endpoints is None else self.endpoints[i].tolist(),
                     None if self.hives is None else self.hives[i].tolist())

    def __iter__(self):
        m = len(self)
        return map(_view, np.split(self.points, self.offsets[1:-1]),
                   [None] * m if self.endpoints is None else self.endpoints.tolist(),
                   [None] * m if self.hives is None else self.hives.tolist())


def _view(points: np.ndarray, end, hive) -> SamplePath:
    return SamplePath(points, None if end is None else (Point(*end[0]), Point(*end[1])),
                      None if hive is None else Point(*hive))


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


def sample_boundary_points(count: int, rng: np.random.Generator) -> np.ndarray:
    """count points uniform over the unit-square perimeter, shape (count, 2).

    Each point's edge (bottom, right, top, left) has probability 1/4 and its
    offset along it is uniform; all edges are drawn first, then all offsets.
    """
    edge = rng.integers(0, 4, size=count)
    u = rng.random(count)
    along_x = edge % 2 == 0
    return np.column_stack([np.where(along_x, u, edge == 1), np.where(along_x, edge == 2, u)])


def same_edge(p1, p2):
    """True where both points lie on a common edge of the unit square; points
    are (..., 2) arrays."""
    p1, p2 = np.asarray(p1, dtype=float), np.asarray(p2, dtype=float)
    return ((p1 == p2) & ((p1 == 0.0) | (p1 == 1.0))).any(axis=-1)


def _steps(rng: np.random.Generator, gamma: float, shape: tuple) -> np.ndarray:
    """Walk steps, shape + (2,): all lengths Uniform(0, gamma), then all angles Uniform(0, 2pi)."""
    d = rng.uniform(0.0, gamma, size=shape)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return np.stack([d * np.cos(theta), d * np.sin(theta)], axis=-1)


def _pointset(owner: np.ndarray, points: np.ndarray, m: int, **meta) -> PathSet:
    """The PathSet of points tagged with their path, each path's in order."""
    order = np.argsort(owner, kind="stable")
    return PathSet(points[order], np.r_[0, np.cumsum(np.bincount(owner, minlength=m))], **meta)


def _as_points(values) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(-1, 2)


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise ConfigurationError("gamma must be > 0")


def line_paths(starts, ends, gamma: float, rng: np.random.Generator) -> PathSet:
    """Samples along each straight segment from starts[i] toward ends[i].

    A path's first sample sits at its start and consecutive spacings are
    i.i.d. Uniform(0, gamma); a step that would pass the end stops the path,
    so every sample lies on the segment and the end is generally not sampled.
    The gaps are one (m, W) draw, W = ceil(2.5 sqrt(2) / gamma) + 16 (mean
    spacing gamma/2, chords up to sqrt(2)); the rare paths still short of
    their end draw further (k, W) blocks together.
    """
    _check_gamma(gamma)
    starts, ends = _as_points(starts), _as_points(ends)
    delta = ends - starts
    length = np.hypot(delta[:, 0], delta[:, 1])
    if not (length > 0.0).all():
        raise ValueError("line endpoints must be distinct")
    width = math.ceil(2.5 * math.sqrt(2.0) / gamma) + 16
    rows = np.arange(len(starts))
    reached = np.zeros(len(starts))
    owner, dist = [rows], [reached.copy()]  # every path's first sample, at its start
    while rows.size:
        gaps = rng.uniform(0.0, gamma, (rows.size, width))
        block = reached[rows, None] + np.cumsum(gaps, axis=1)
        on = block <= length[rows, None]
        owner.append(np.broadcast_to(rows[:, None], on.shape)[on])
        dist.append(block[on])
        reached[rows] = block[:, -1]
        rows = rows[reached[rows] < length[rows]]
    owner, dist = np.concatenate(owner), np.concatenate(dist)
    points = starts[owner] + dist[:, None] * (delta / length[:, None])[owner]
    return _pointset(owner, points, len(starts), endpoints=np.stack([starts, ends], axis=1))


def random_walks(starts, gamma: float, rng: np.random.Generator) -> PathSet:
    """Free random walks, one from each start, each stopped at the region edge.

    Each step advances by Uniform(0, gamma) at an independent Uniform(0, 2pi)
    angle. The first point that would leave the unit square ends the walk and
    is discarded, so all returned points are in-region. A walk whose first
    step leaves is re-rolled from its start, up to WALK_RETRIES times, so every
    walk has at least two points. The walks still running draw their steps
    together, one round at a time.
    """
    _check_gamma(gamma)
    starts = _as_points(starts)
    m = len(starts)
    rows = np.arange(m)
    current = starts.copy()
    moved = np.zeros(m, dtype=bool)  # has a point besides its start
    failures = np.zeros(m, dtype=np.int64)
    owner, points = [rows], [starts]
    while rows.size:
        chunk = max(16, WALK_ROUND // rows.size)
        pos = current[rows, None, :] + np.cumsum(_steps(rng, gamma, (rows.size, chunk)), axis=1)
        inside = ((pos >= 0.0) & (pos <= 1.0)).all(axis=2)
        stay = inside.all(axis=1)
        exit_at = np.where(stay, chunk, inside.argmin(axis=1))
        keep = np.arange(chunk) < exit_at[:, None]
        owner.append(np.broadcast_to(rows[:, None], keep.shape)[keep])
        points.append(pos[keep])
        reroll = (exit_at == 0) & ~moved[rows]
        moved[rows] |= exit_at > 0
        failures[rows[reroll]] += 1
        if failures.max() >= WALK_RETRIES:
            raise PathGenerationError(
                f"random walk from {tuple(starts[failures.argmax()])} kept exiting "
                f"immediately ({WALK_RETRIES} attempts, gamma={gamma})")
        current[rows[stay]] = pos[stay, -1]
        rows = rows[stay | reroll]
    return _pointset(np.concatenate(owner), np.concatenate(points), m)


def directed_walks(starts, ends, p: int, gamma: float, rng: np.random.Generator,
                   hives=None) -> PathSet:
    """p-point free random walks from starts[i], affinely corrected to end at ends[i].

    Each walk takes p-1 steps of the random-walk kind (one (m, p-1) draw of
    lengths, then one of angles) with no boundary termination; point t
    (0-based) is then shifted by t/(p-1) times the closing error
    ends[i] - walk[-1]. The correction is exactly 0 at the first point and 1
    at the last, so every path starts and ends on its targets exactly.
    Intermediate points may leave the unit square; the field's periodic
    extension covers them.
    """
    if p < 2:
        raise ConfigurationError("p must be >= 2")
    _check_gamma(gamma)
    starts, ends = _as_points(starts), _as_points(ends)
    m = len(starts)
    free = np.cumsum(np.concatenate([starts[:, None], _steps(rng, gamma, (m, p - 1))], axis=1),
                     axis=1)
    points = free + np.linspace(0.0, 1.0, p)[:, None] * (ends - free[:, -1])[:, None]
    points[:, 0] = starts
    points[:, -1] = ends
    return PathSet(points.reshape(-1, 2), np.arange(m + 1) * p,
                   endpoints=np.stack([starts, ends], axis=1), hives=hives)


def _endpoint_pairs(m: int, rng: np.random.Generator, boundary: bool,
                    reject_same_edge: bool) -> np.ndarray:
    """m distinct (start, end) pairs, shape (m, 2, 2), on the boundary or
    uniform in the square. Rejected pairs are redrawn together, in path order."""
    pairs = np.empty((m, 2, 2))
    redraw = np.ones(m, dtype=bool)
    while redraw.any():
        k = int(redraw.sum())
        pairs[redraw] = (sample_boundary_points(2 * k, rng) if boundary
                         else rng.random((2 * k, 2))).reshape(k, 2, 2)
        redraw = (pairs[:, 0] == pairs[:, 1]).all(axis=1)
        if reject_same_edge:
            redraw |= same_edge(pairs[:, 0], pairs[:, 1])
    return pairs


def generate_paths(config: SchemeConfig, rng: np.random.Generator | None = None) -> PathSet:
    """All m sampling paths for one experiment cell.

    With no explicit rng the stream is seeded from config.seed, so identical
    configs reproduce identical paths. Scattered points are one (m, 2) draw;
    random walks draw their m boundary starts, bee hives their m centers, and
    lines and directed walks their m endpoint pairs, each before their gaps
    or steps. Same-edge boundary pairs are redrawn for directed boundary walks
    only; straight boundary lines keep them (they degenerate to sampling
    along one edge).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    scheme, m, gamma = config.scheme, config.m, config.gamma
    if scheme is Scheme.SCATTERED:
        return PathSet(sample_scattered(m, rng), np.arange(m + 1))
    if scheme is Scheme.RANDOM_WALK:
        return random_walks(sample_boundary_points(m, rng), gamma, rng)
    if scheme is Scheme.BEE_HIVE:
        hives = rng.random((m, 2))
        return directed_walks(hives, hives, config.p, gamma, rng, hives=hives)
    boundary = scheme in (Scheme.LINE_BOUNDARY_POINTS, Scheme.LINE_BOUNDARY_AVG,
                          Scheme.DIRECTED_BOUNDARY)
    pairs = _endpoint_pairs(m, rng, boundary, reject_same_edge=scheme is Scheme.DIRECTED_BOUNDARY)
    if scheme in (Scheme.DIRECTED_BOUNDARY, Scheme.DIRECTED_INNER):
        return directed_walks(pairs[:, 0], pairs[:, 1], config.p, gamma, rng)
    return line_paths(pairs[:, 0], pairs[:, 1], gamma, rng)


def paths_to_csv(paths: PathSet, path) -> None:
    """Write paths as rows (path_id, t, x, y) for external plotting."""
    path_id = np.repeat(np.arange(len(paths)), paths.counts)
    t = np.arange(len(path_id)) - paths.offsets[path_id]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "x", "y"])
        x, y = paths.points.T.tolist()
        writer.writerows(zip(path_id.tolist(), t.tolist(), map(repr, x), map(repr, y)))
