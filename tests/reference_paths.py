"""Per-path reference generators: one Python iteration per path.

These are the generators pathfield used before it drew all paths of a cell
in one batch. They draw in a different order, so they do not reproduce a
seed's paths; tests compare the two in distribution only.
"""

import numpy as np

from pathfield.paths import (
    PathGenerationError,
    PathSet,
    Point,
    SamplePath,
    Scheme,
    SchemeConfig,
    WALK_RETRIES,
    same_edge,
)


def sample_boundary_point(rng: np.random.Generator) -> Point:
    edge = int(rng.integers(0, 4))
    u = float(rng.random())
    return [Point(u, 0.0), Point(1.0, u), Point(u, 1.0), Point(0.0, u)][edge]


def line_path(b1, b2, gamma: float, rng: np.random.Generator) -> SamplePath:
    start = np.asarray(b1, dtype=float)
    end = np.asarray(b2, dtype=float)
    delta = end - start
    length = float(np.hypot(delta[0], delta[1]))
    theta = float(np.arctan2(delta[1], delta[0]))
    direction = np.array([np.cos(theta), np.sin(theta)])
    block = int(2.5 * length / gamma) + 16
    dist = np.cumsum(rng.uniform(0.0, gamma, size=block))
    while dist[-1] < length:
        dist = np.concatenate([dist, dist[-1] + np.cumsum(rng.uniform(0.0, gamma, size=block))])
    offsets = np.concatenate([[0.0], dist[dist <= length]])
    return SamplePath(points=start + offsets[:, None] * direction,
                      endpoints=(Point(*start), Point(*end)))


def _steps(rng: np.random.Generator, gamma: float, count: int) -> np.ndarray:
    d = rng.uniform(0.0, gamma, size=count)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.column_stack([d * np.cos(theta), d * np.sin(theta)])


def random_walk_path(b1, gamma: float, rng: np.random.Generator) -> SamplePath:
    start = np.asarray(b1, dtype=float)
    for _ in range(WALK_RETRIES):
        segments = [start[None, :]]
        current = start
        while True:
            pos = current + np.cumsum(_steps(rng, gamma, 64), axis=0)
            inside = ((pos >= 0.0) & (pos <= 1.0)).all(axis=1)
            if not inside.all():
                segments.append(pos[:int(np.argmin(inside))])
                break
            segments.append(pos)
            current = pos[-1]
        points = np.vstack(segments)
        if len(points) >= 2:
            return SamplePath(points=points)
    raise PathGenerationError("random walk kept exiting immediately")


def directed_walk(b1, b2, p: int, gamma: float, rng: np.random.Generator,
                  hive: Point | None = None) -> SamplePath:
    start = np.asarray(b1, dtype=float)
    end = np.asarray(b2, dtype=float)
    free = np.vstack([start[None, :], start + np.cumsum(_steps(rng, gamma, p - 1), axis=0)])
    points = free + np.linspace(0.0, 1.0, p)[:, None] * (end - free[-1])
    points[0] = start
    points[-1] = end
    return SamplePath(points=points, endpoints=(Point(*start), Point(*end)), hive=hive)


def _boundary_pair(rng, reject_same_edge: bool) -> tuple:
    while True:
        p1, p2 = sample_boundary_point(rng), sample_boundary_point(rng)
        if p1 != p2 and not (reject_same_edge and same_edge(p1, p2)):
            return p1, p2


def _interior_pair(rng) -> tuple:
    while True:
        p1, p2 = Point(*rng.random(2)), Point(*rng.random(2))
        if p1 != p2:
            return p1, p2


def as_pathset(paths: list) -> PathSet:
    """SamplePath values joined into one PathSet; endpoints and hives are kept
    when every path declares them."""
    ends, hives = [sp.endpoints for sp in paths], [sp.hive for sp in paths]
    return PathSet(np.vstack([sp.points for sp in paths]),
                   np.cumsum([0] + [len(sp) for sp in paths]),
                   None if None in ends else np.array(ends, dtype=float),
                   None if None in hives else np.array(hives, dtype=float))


def generate_paths(config: SchemeConfig, rng: np.random.Generator | None = None) -> PathSet:
    """All m paths of a cell, generated one at a time."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    scheme, gamma, p = config.scheme, config.gamma, config.p
    if scheme is Scheme.SCATTERED:
        return as_pathset([SamplePath(points=pt[None, :]) for pt in rng.random((config.m, 2))])
    out = []
    for _ in range(config.m):
        if scheme in (Scheme.LINE_BOUNDARY_POINTS, Scheme.LINE_BOUNDARY_AVG):
            out.append(line_path(*_boundary_pair(rng, False), gamma, rng))
        elif scheme is Scheme.LINE_INNER_AVG:
            out.append(line_path(*_interior_pair(rng), gamma, rng))
        elif scheme is Scheme.RANDOM_WALK:
            out.append(random_walk_path(sample_boundary_point(rng), gamma, rng))
        elif scheme is Scheme.DIRECTED_BOUNDARY:
            out.append(directed_walk(*_boundary_pair(rng, True), p, gamma, rng))
        elif scheme is Scheme.DIRECTED_INNER:
            out.append(directed_walk(*_interior_pair(rng), p, gamma, rng))
        else:
            hive = Point(*rng.random(2))
            out.append(directed_walk(hive, hive, p, gamma, rng, hive=hive))
    return as_pathset(out)
