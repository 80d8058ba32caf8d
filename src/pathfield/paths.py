"""Random sampling paths over the unit square, drawn in batches.

Eight schemes are supported, all built from two primitives: a step rule that
advances by a Uniform(0, gamma) distance along some angle, and an affine
correction that pins a free random walk's endpoints to prescribed targets
(a discrete Brownian-bridge construction). Schemes differ in where endpoints
are drawn (boundary vs. interior), whether the walk direction is fixed or
random, and whether the path closes on itself (bee-and-hive loops).

A cell's m paths form one ragged `PathSet`: every path's points back to back
in one (P, 2) array, with `offsets` marking where each path starts; indexing
or iterating a set yields `SamplePath` views, slices of its arrays. A set
also gives the phasors of the locations a location-unaware reconstruction
assumes (`PathSet.stand_in_phasors`).

`generate_paths` is the one entry point. It draws a trial's paths in chunks
of CHUNK paths, each from its own generator, and a cell takes the first m, so
a cell's paths are a prefix of every larger cell's in the same trial. A `Draw`
carries the chunks, and what the last cell's operator kept, from one cell to
the next. The private generators take float (k, 2) arrays and trust the
parameters `SchemeConfig` has checked. Each draws its random numbers as whole
arrays for all k paths of a chunk at once, in the order its docstring states;
no Python loop runs once per path.
"""

import csv
import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "Scheme",
    "Draw",
    "SamplePath",
    "PathSet",
    "SchemeConfig",
    "ConfigurationError",
    "PathGenerationError",
    "POINT_SCHEMES",
    "UNAWARE_SCHEMES",
    "generate_paths",
    "paths_to_csv",
]

# Paths per chunk of a trial's draw: chunk c comes from the generator seeded
# by (the trial's entropy draw, c), whatever m a cell asks for.
CHUNK = 256
WALK_RETRIES = 200
# Each of the k random walks still running draws max(16, WALK_ROUND // k)
# steps per round: long rounds for the few heavy-tailed walks left at the end.
WALK_ROUND = 1024
# The most bytes a cell may ask for one array (`check_cell_bytes`, `_random_walks`).
CELL_BYTES = 2 ** 30


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


SCHEME_NAMES = [s.value for s in Scheme]


def _scheme(value) -> Scheme:
    """value if it is a Scheme, else the Scheme it names; a ConfigurationError
    for anything else."""
    try:
        return value if isinstance(value, Scheme) else Scheme(value)
    except ValueError:
        raise ConfigurationError(f"unknown scheme {value!r}; "
                                 f"valid schemes: {', '.join(SCHEME_NAMES)}") from None


def _integer(value) -> bool:
    """True for an integer that is not a bool; numpy integers pass."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value) -> bool:
    """True for a finite real number that is not a bool; numpy integers and floats pass.
    Only floats are tested with isfinite: an int is compared with the largest
    float, never converted, so one beyond the float range fails too."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -sys.float_info.max <= value <= sys.float_info.max)


def _flag(value) -> bool:
    """True for a bool or a numpy bool."""
    return isinstance(value, (bool, np.bool_))


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


@dataclass(slots=True)
class SamplePath:
    """One path of a `PathSet`: its ordered sampling locations (c, 2) plus the
    metadata a location-unaware reconstruction is allowed to use, its declared
    endpoints (2, 2) or hive center (2,). All three are views of the set's
    arrays, or None."""

    points: np.ndarray
    endpoints: np.ndarray | None = None
    hive: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class PathSet:
    """A cell's m paths in one ragged array.

    Path i is ``points[offsets[i]:offsets[i + 1]]``; the m + 1 offsets rise
    from 0 to P, by at least one point per path. ``endpoints`` (m, 2, 2) holds
    each path's declared start and end and ``hives`` (m, 2) each loop's
    center, or None. ``paths[i]`` is path i's `SamplePath` view, and
    iterating yields one view per path. The arrays are read-only views, so
    ``phasors`` and ``stand_in_phasors`` always match them; a `head` and the
    draw's next, larger set share ``cache``, each location kind's phasors so
    far, so the cells of one draw compute each location's once.
    """

    points: np.ndarray
    offsets: np.ndarray
    endpoints: np.ndarray | None = None
    hives: np.ndarray | None = None
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        offsets, points = np.asarray(self.offsets), np.asarray(self.points, dtype=float)
        if offsets.dtype.kind not in "iu" or len(offsets) < 2 or offsets[0] != 0 \
                or (np.diff(offsets) < 1).any() or points.shape != (offsets[-1], 2) \
                or not np.isfinite(points).all():
            raise ValueError("a PathSet needs finite (P, 2) points and integer offsets "
                             "rising from 0 to P by at least 1 per path")
        for name, value in (("points", points), ("offsets", offsets),
                            ("endpoints", self.endpoints), ("hives", self.hives)):
            if value is not None:
                value = np.asarray(value).view()
                value.setflags(write=False)
                object.__setattr__(self, name, value)

    @cached_property
    def phasors(self) -> np.ndarray:
        """exp(j 2 pi points), shape (P, 2): the one exponential per sample
        coordinate that every per-axis table of a trial is built from."""
        return self._cached("points", len(self.points), lambda done: self.points[done:])

    @cached_property
    def stand_in_phasors(self) -> np.ndarray:
        """The phasors of the locations an unaware reconstruction assumes: each
        hive (m, 2), else one per reading (P, 2), equispaced between its path's ends."""
        if self.hives is not None:
            return self._cached("hives", len(self), lambda done: self.hives[done:])
        if self.endpoints is None:
            raise ConfigurationError("location-unaware mode needs declared path endpoints")
        return self._cached("equispaced", len(self.points), self._equispaced)

    def _equispaced(self, done: int) -> np.ndarray:
        """The stand-in locations of the readings from `done`, a path's first, on."""
        first = int(np.searchsorted(self.offsets, done))
        counts, (start, end) = self.counts[first:], self.endpoints[first:].transpose(1, 0, 2)
        # Reading t of a path of c readings sits at start + t (end - start) / (c - 1).
        step = (end - start) / np.maximum(counts - 1, 1)[:, None]
        t = np.arange(done, len(self.points)) - np.repeat(self.offsets[first:-1], counts)
        return np.repeat(start, counts, axis=0) + t[:, None] * np.repeat(step, counts, axis=0)

    def _cached(self, kind: str, count: int, locations) -> np.ndarray:
        """The phasors of the first `count` locations of a kind. Those the cache
        lacks, ``locations(done)`` on, are computed and their locations dropped."""
        known = self.cache.get(kind, np.empty((0, 2), dtype=complex))
        if len(known) < count:
            new = 2j * np.pi * locations(len(known))
            np.exp(new, out=new)
            known = new if not len(known) else np.concatenate([known, new])
            known.setflags(write=False)
            self.cache[kind] = known
        return known[:count]

    def head(self, m: int) -> "PathSet":
        """The first m paths, views of this set's arrays that share its cache."""
        head = PathSet(self.points[:self.offsets[m]], self.offsets[:m + 1],
                       *(None if a is None else a[:m] for a in (self.endpoints, self.hives)))
        object.__setattr__(head, "cache", self.cache)
        return head

    @property
    def counts(self) -> np.ndarray:
        """Points per path."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i: int) -> SamplePath:
        i = range(len(self))[i]
        return SamplePath(self.points[self.offsets[i]:self.offsets[i + 1]],
                          None if self.endpoints is None else self.endpoints[i],
                          None if self.hives is None else self.hives[i])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selector plus every knob a single experiment cell needs.

    gamma bounds the Uniform(0, gamma) inter-sample spacing, p is the number
    of points in a directed walk, and m counts paths (or points, for the
    scattered benchmark). Only `UNAWARE_SCHEMES` may run location-unaware.
    A config is frozen, so what its checks admitted holds; vary one with
    `dataclasses.replace`.
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
        object.__setattr__(self, "scheme", _scheme(self.scheme))
        for name, (test, message) in CHECKS.items():
            if not test(getattr(self, name)):
                raise ConfigurationError(message)
        if not self.location_aware and self.scheme not in UNAWARE_SCHEMES:
            raise ConfigurationError(
                f"scheme {self.scheme.value} has no location-unaware variant; supported: "
                f"{', '.join(s.value for s in Scheme if s in UNAWARE_SCHEMES)}")

    def __str__(self) -> str:
        """The label messages give a sweep cell: scheme, b, m, gamma and, if set, unawareness."""
        return (f"cell ({self.scheme.value}, b={self.b}, m={self.m}, gamma={self.gamma:g}"
                f"{'' if self.location_aware else ', unaware'})")

    @property
    def n(self) -> int:
        return (2 * self.b + 1) ** 2

    @property
    def point_rows(self) -> bool:
        """Whether the cell's operator is one point row per location, not one mean
        row per path: for a point scheme, and for an unaware bee hive, whose one
        location per path is its hive."""
        return self.scheme in POINT_SCHEMES or (self.scheme is Scheme.BEE_HIVE
                                                and not self.location_aware)


# SchemeConfig field -> (the test its value must pass, the message if it fails).
CHECKS = {
    "m": (lambda v: _integer(v) and v >= 1, "m must be an integer >= 1"),
    "b": (lambda v: _integer(v) and v >= 0, "b must be an integer >= 0"),
    "gamma": (lambda v: _real(v) and v > 0, "gamma must be a finite number > 0"),
    "p": (lambda v: _integer(v) and v >= 2, "p must be an integer >= 2"),
    "noise_sigma": (lambda v: _real(v) and v >= 0, "noise_sigma must be a finite number >= 0"),
    "location_aware": (_flag, "location_aware must be a boolean"),
    "seed": (lambda v: _integer(v) and v >= 0, "seed must be an integer >= 0"),
}


def _boundary_points(count: int, rng: np.random.Generator) -> np.ndarray:
    """count points uniform over the unit-square perimeter, shape (count, 2).

    Each point's edge (bottom, right, top, left) has probability 1/4 and its
    offset along it is uniform; all edges are drawn first, then all offsets.
    """
    edge = rng.integers(0, 4, size=count)
    u = rng.random(count)
    along_x = edge % 2 == 0
    return np.column_stack([np.where(along_x, u, edge == 1), np.where(along_x, edge == 2, u)])


def _same_edge(p1, p2):
    """True where both points lie on a common edge of the unit square; points
    are (..., 2) arrays."""
    return ((p1 == p2) & ((p1 == 0.0) | (p1 == 1.0))).any(axis=-1)


def _step_axes(rng: np.random.Generator, gamma: float, shape: tuple) -> tuple:
    """Walk steps as (dx, dy), each of the given shape: all lengths
    Uniform(0, gamma), then all angles Uniform(0, 2pi)."""
    d = rng.uniform(0.0, gamma, size=shape)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    return d * np.cos(theta), d * np.sin(theta)


def _gap_width(gamma: float) -> int:
    """W = ceil(2.5 sqrt(2) / gamma) + 16 gaps per line (mean spacing gamma/2,
    chords up to sqrt(2)); a gamma so small that the ratio overflows counts as
    the largest float."""
    return math.ceil(min(2.5 * math.sqrt(2.0) / gamma, sys.float_info.max)) + 16


def check_cell_bytes(name: str, config: SchemeConfig, sensing: bool) -> None:
    """Refuse, from its settings alone, a cell that would ask for one array over
    CELL_BYTES. With `sensing` it builds an n x n Gram, m x n mean rows (8 B an
    entry) unless `SchemeConfig.point_rows`, and its points' phasors (32 B
    each). Its sample points take 16 B each, counted as `generate_paths` draws
    them, in whole chunks of k = CHUNK * ceil(m / CHUNK) paths: k W gaps for
    lines, k p for directed walks and bee hives, k for scattered. A random
    walk's length is random, so only its k starts count; `_random_walks` stops
    the rest."""
    n, m, scheme = config.n, config.m, config.scheme
    drawn = -(-m // CHUNK) * CHUNK
    if scheme in (Scheme.BEE_HIVE, Scheme.DIRECTED_BOUNDARY, Scheme.DIRECTED_INNER):
        drawn *= config.p
    elif scheme not in (Scheme.SCATTERED, Scheme.RANDOM_WALK):
        drawn *= _gap_width(config.gamma)
    arrays = (("n x n Gram", 8 * n * n, sensing),
              ("m x n mean rows", 8 * m * n, sensing and not config.point_rows),
              ("sample points", 16 * drawn, True), ("sample point phasors", 32 * drawn, sensing))
    for what, size, built in arrays:
        if built and size > CELL_BYTES:
            raise ConfigurationError(f"{name} needs {size} bytes for its {what}, "
                                     f"over the {CELL_BYTES}-byte budget")


def _line_paths(starts, ends, gamma: float, rng: np.random.Generator) -> PathSet:
    """Samples along each straight segment from starts[i] toward a distinct ends[i].

    A path's first sample sits at its start and consecutive spacings are
    i.i.d. Uniform(0, gamma); a step that would pass the end stops the path,
    so every sample lies on the segment and the end is generally not sampled.
    The gaps are one (m, W) draw (`_gap_width`); the rare paths still short of
    their end draw further (k, W) blocks together.
    """
    delta = ends - starts
    length = np.hypot(delta[:, 0], delta[:, 1])
    width = _gap_width(gamma)
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
    dist, counts = dist[np.argsort(owner, kind="stable")], np.bincount(owner)
    points = (np.repeat(starts, counts, axis=0)
              + dist[:, None] * np.repeat(delta / length[:, None], counts, axis=0))
    return PathSet(points, np.r_[0, np.cumsum(counts)], endpoints=np.stack([starts, ends], axis=1))


def _random_walks(starts, gamma: float, rng: np.random.Generator, drawn: int = 0) -> PathSet:
    """Free random walks, one from each start, each stopped at the region edge.

    Each step advances by Uniform(0, gamma) at an independent Uniform(0, 2pi)
    angle. The first point that would leave the unit square ends the walk and
    is discarded, so all returned points are in-region. A walk whose first
    step leaves is re-rolled from its start, up to WALK_RETRIES times, so every
    walk has at least two points. The walks still running draw their steps
    together, one round at a time. Once the points kept, with the `drawn`
    points of the cell's earlier chunks, would need more than CELL_BYTES for
    their phasors, 32 B each, the walks stop with a ConfigurationError: a small
    gamma has no other bound on their length.
    """
    m = len(starts)
    rows = np.arange(m)
    x0, y0 = starts.T.copy()  # each running walk's last point
    moved = np.zeros(m, dtype=bool)  # has a point besides its start
    failures = np.zeros(m, dtype=np.int64)
    owner, xs, ys = [rows], [starts[:, 0]], [starts[:, 1]]
    kept = drawn + m
    while rows.size:
        chunk = max(16, WALK_ROUND // rows.size)
        dx, dy = _step_axes(rng, gamma, (rows.size, chunk))
        x = x0[rows, None] + np.cumsum(dx, axis=1)
        y = y0[rows, None] + np.cumsum(dy, axis=1)
        inside = (x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)
        stay = inside.all(axis=1)
        exit_at = np.where(stay, chunk, inside.argmin(axis=1))
        keep = np.arange(chunk) < exit_at[:, None]
        owner.append(np.broadcast_to(rows[:, None], keep.shape)[keep])
        xs.append(x[keep])
        ys.append(y[keep])
        kept += len(xs[-1])
        if 32 * kept > CELL_BYTES:
            raise ConfigurationError(f"random walks at gamma={gamma:g} reached {kept} points, whose "
                                     f"phasors need {32 * kept} bytes, over the {CELL_BYTES}-byte "
                                     "budget")
        reroll = (exit_at == 0) & ~moved[rows]
        moved[rows] |= exit_at > 0
        failures[rows[reroll]] += 1
        if failures.max() >= WALK_RETRIES:
            raise PathGenerationError(
                f"random walk from {tuple(starts[failures.argmax()])} kept exiting "
                f"immediately ({WALK_RETRIES} attempts, gamma={gamma})")
        x0[rows[stay]], y0[rows[stay]] = x[stay, -1], y[stay, -1]
        rows = rows[stay | reroll]
    owner = np.concatenate(owner)
    order, counts = np.argsort(owner, kind="stable"), np.bincount(owner, minlength=m)
    del owner
    points = np.empty((len(order), 2))
    for axis, rounds in enumerate((xs, ys)):  # one axis at a time, each path's in order
        coords = np.concatenate(rounds)
        rounds.clear()
        points[:, axis] = coords[order]
    return PathSet(points, np.r_[0, np.cumsum(counts)])


def _directed_walks(starts, ends, p: int, gamma: float, rng: np.random.Generator,
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
    m = len(starts)
    steps = np.stack(_step_axes(rng, gamma, (m, p - 1)), axis=-1)
    free = np.cumsum(np.concatenate([starts[:, None], steps], axis=1), axis=1)
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
        pairs[redraw] = (_boundary_points(2 * k, rng) if boundary
                         else rng.random((2 * k, 2))).reshape(k, 2, 2)
        redraw = (pairs[:, 0] == pairs[:, 1]).all(axis=1)
        if reject_same_edge:
            redraw |= _same_edge(pairs[:, 0], pairs[:, 1])
    return pairs


@dataclass(eq=False)
class Draw:
    """The one value the cells of one curve and trial carry, each to the next,
    larger one: the paths drawn so far, whole chunks end to end in one set,
    keyed by the trial's entropy draw and the settings the generators and the
    operator read; and `kept`, the `sensing.Kept` the last cell's operator left.
    `generate_paths` extends the paths, so each chunk is drawn once, and
    `sensing.build_matrix` continues the kept sums and leaves its own."""

    key: tuple | None = None
    paths: PathSet | None = None
    kept: tuple | None = None

    @staticmethod
    def settings(config: SchemeConfig) -> tuple:
        """The key's settings: the scheme, gamma, p and awareness of the config."""
        return config.scheme, config.gamma, config.p, config.location_aware


def _joined(parts: list) -> PathSet:
    """The sets end to end as one, sharing the first's cache."""
    if len(parts) == 1:
        return parts[0]

    def cat(name):
        return None if getattr(parts[0], name) is None else np.concatenate(
            [getattr(part, name) for part in parts])

    whole = PathSet(cat("points"), np.r_[0, np.cumsum(cat("counts"))], cat("endpoints"),
                    cat("hives"))
    object.__setattr__(whole, "cache", parts[0].cache)
    return whole


def _chunk(config: SchemeConfig, rng: np.random.Generator, drawn: int) -> PathSet:
    """CHUNK paths of the config's scheme; `drawn` points came before them in the cell.

    Scattered points are one (CHUNK, 2) draw; random walks draw their boundary
    starts, bee hives their centers, and lines and directed walks their
    endpoint pairs, each before their gaps or steps. Same-edge boundary pairs
    are redrawn for directed boundary walks only; straight boundary lines keep
    them (they degenerate to sampling along one edge).
    """
    scheme, gamma = config.scheme, config.gamma
    if scheme is Scheme.SCATTERED:
        return PathSet(rng.random((CHUNK, 2)), np.arange(CHUNK + 1))
    if scheme is Scheme.RANDOM_WALK:
        return _random_walks(_boundary_points(CHUNK, rng), gamma, rng, drawn)
    if scheme is Scheme.BEE_HIVE:
        hives = rng.random((CHUNK, 2))
        return _directed_walks(hives, hives, config.p, gamma, rng, hives=hives)
    boundary = scheme in (Scheme.LINE_BOUNDARY_POINTS, Scheme.LINE_BOUNDARY_AVG,
                          Scheme.DIRECTED_BOUNDARY)
    pairs = _endpoint_pairs(CHUNK, rng, boundary,
                            reject_same_edge=scheme is Scheme.DIRECTED_BOUNDARY)
    if scheme in (Scheme.DIRECTED_BOUNDARY, Scheme.DIRECTED_INNER):
        return _directed_walks(pairs[:, 0], pairs[:, 1], config.p, gamma, rng)
    return _line_paths(pairs[:, 0], pairs[:, 1], gamma, rng)


def generate_paths(config: SchemeConfig, rng: np.random.Generator | None = None,
                   draw: Draw | None = None) -> PathSet:
    """All m sampling paths for one experiment cell: the first m of its trial's draw.

    With no explicit rng the stream is seeded from config.seed, so identical
    configs reproduce identical paths. The trial's rng gives one entropy draw;
    chunk c of CHUNK paths then comes from ``default_rng([entropy, c])``
    (`_chunk`), and the last chunk a cell needs is cut at m. So a cell's paths
    do not depend on its m beyond their count: they are the first m of any
    larger cell's. A `draw` passed from the last cell of the same trial (same
    entropy, scheme, gamma, p and awareness) keeps its chunks, and only new ones
    are drawn.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    entropy = int(rng.integers(2 ** 63))
    draw = Draw() if draw is None else draw
    key = (entropy, *Draw.settings(config))
    if draw.paths is not None and draw.key != key:
        raise ValueError("a Draw serves the cells of one trial and curve")
    draw.key = key
    parts = [] if draw.paths is None else [draw.paths]
    for c in range(sum(map(len, parts)) // CHUNK, -(-config.m // CHUNK)):
        drawn = sum(len(part.points) for part in parts)
        parts.append(_chunk(config, np.random.default_rng([entropy, c]), drawn))
    draw.paths = _joined(parts)
    return draw.paths.head(config.m)


def paths_to_csv(paths: PathSet, path) -> None:
    """Write paths as rows (path_id, t, x, y) for external plotting."""
    path_id = np.repeat(np.arange(len(paths)), paths.counts)
    t = np.arange(len(path_id)) - paths.offsets[path_id]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path_id", "t", "x", "y"])
        x, y = paths.points.T.tolist()
        writer.writerows(zip(path_id.tolist(), t.tolist(), map(repr, x), map(repr, y)))
