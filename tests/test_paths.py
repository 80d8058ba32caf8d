import warnings

import numpy as np
import pytest

from pathfield.estimation import condition_number
from pathfield.paths import (
    ConfigurationError,
    PathGenerationError,
    Point,
    SamplePath,
    Scheme,
    SchemeConfig,
    directed_walk,
    generate_paths,
    line_path,
    paths_to_csv,
    random_walk_path,
    same_edge,
    sample_boundary_point,
    sample_scattered,
)
from pathfield.sensing import build_matrix


# ---------------------------------------------------------------- scattered

def test_scattered_support_and_shape():
    pts = sample_scattered(1, np.random.default_rng(0))
    assert pts.shape == (1, 2)
    assert (pts >= 0).all() and (pts <= 1).all()


def test_scattered_mean_at_desk_scale():
    pts = sample_scattered(100_000, np.random.default_rng(1))
    assert abs(pts[:, 0].mean() - 0.5) < 0.01
    assert abs(pts[:, 1].mean() - 0.5) < 0.01


def test_scattered_deterministic():
    a = sample_scattered(50, np.random.default_rng(9))
    b = sample_scattered(50, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_scattered_rejects_zero_count():
    with pytest.raises(ConfigurationError):
        sample_scattered(0, np.random.default_rng(0))


# ------------------------------------------------------------ boundary draw

def test_boundary_point_lies_on_perimeter():
    rng = np.random.default_rng(2)
    for _ in range(200):
        pt = sample_boundary_point(rng)
        assert pt.x in (0.0, 1.0) or pt.y in (0.0, 1.0)
        assert 0.0 <= pt.x <= 1.0 and 0.0 <= pt.y <= 1.0


def test_boundary_edge_frequencies():
    rng = np.random.default_rng(3)
    counts = np.zeros(4)
    draws = 100_000
    for _ in range(draws):
        pt = sample_boundary_point(rng)
        if pt.y == 0.0:
            counts[0] += 1
        elif pt.x == 1.0:
            counts[1] += 1
        elif pt.y == 1.0:
            counts[2] += 1
        else:
            counts[3] += 1
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)


def test_boundary_point_deterministic():
    p1 = sample_boundary_point(np.random.default_rng(4))
    p2 = sample_boundary_point(np.random.default_rng(4))
    assert p1 == p2


def test_same_edge_detection():
    assert same_edge(Point(0.2, 0.0), Point(0.9, 0.0))
    assert same_edge(Point(1.0, 0.1), Point(1.0, 0.8))
    assert not same_edge(Point(0.2, 0.0), Point(0.2, 1.0))
    assert same_edge(Point(0.0, 0.0), Point(1.0, 0.0))  # corner shares the bottom edge

    def edges(pt):
        """Edges 0..3 (bottom, right, top, left) the point lies on."""
        x, y = pt
        return {e for e, on in enumerate([y == 0.0, x == 1.0, y == 1.0, x == 0.0]) if on}

    lattice = [Point(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
    for p1 in lattice:
        for p2 in lattice:
            assert same_edge(p1, p2) == bool(edges(p1) & edges(p2)), (p1, p2)


# ----------------------------------------------------------------- line path

def test_line_path_collinear_diagonal():
    path = line_path(Point(0, 0), Point(1, 1), 0.07, np.random.default_rng(5))
    assert np.allclose(path.points[:, 0], path.points[:, 1], atol=1e-12)


def test_line_path_starts_at_b1_and_stays_on_segment():
    rng = np.random.default_rng(6)
    path = line_path(Point(0.1, 0.9), Point(0.8, 0.2), 0.05, rng)
    assert np.array_equal(path.points[0], [0.1, 0.9])
    assert path.endpoints == (Point(0.1, 0.9), Point(0.8, 0.2))
    # every point within the segment's bounding box and collinear
    p1 = np.array([0.1, 0.9])
    p2 = np.array([0.8, 0.2])
    direction = (p2 - p1) / np.linalg.norm(p2 - p1)
    rel = path.points - p1
    cross = rel[:, 0] * direction[1] - rel[:, 1] * direction[0]
    along = rel @ direction
    assert np.abs(cross).max() <= 1e-12
    assert along.min() >= 0.0
    assert along.max() <= np.linalg.norm(p2 - p1)


def test_line_path_consecutive_spacing_below_gamma():
    gamma = 0.09
    path = line_path(Point(0, 0), Point(1, 0), gamma, np.random.default_rng(7))
    steps = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
    assert (steps < gamma).all()


def test_line_path_expected_count():
    # unit chord with gamma=0.1: renewal theory gives ~20 spacings per path
    rng = np.random.default_rng(8)
    counts = [len(line_path(Point(0, 0), Point(1, 0), 0.1, rng)) for _ in range(10_000)]
    assert 18.0 <= np.mean(counts) <= 22.0


class _CountingGapRng:
    """Stub generator whose every gap is a tenth of the bound; counts draws."""

    def __init__(self):
        self.calls = 0

    def uniform(self, low, high, size=None):
        self.calls += 1
        return np.full(size, high / 10.0)


def test_line_path_draws_more_blocks_until_past_endpoint():
    # One block holds int(2.5 * 1 / 0.1) + 16 = 41 gaps of 0.01, so reaching
    # the far endpoint takes three blocks.
    rng = _CountingGapRng()
    path = line_path(Point(0, 0), Point(1, 0), 0.1, rng)
    assert rng.calls == 3
    assert len(path) == 100
    assert np.allclose(path.points[:, 1], 0.0)
    assert np.allclose(np.diff(path.points[:, 0]), 0.01)
    assert 1.0 - 0.01 <= path.points[-1, 0] <= 1.0


def test_line_path_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        line_path(Point(0, 0), Point(1, 0), 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        line_path(Point(0.5, 0.5), Point(0.5, 0.5), 0.1, np.random.default_rng(0))


# --------------------------------------------------------------- random walk

def test_random_walk_stays_inside_and_steps_bounded():
    gamma = 0.08
    path = random_walk_path(Point(0.0, 0.5), gamma, np.random.default_rng(10))
    assert len(path) >= 2
    assert (path.points >= 0).all() and (path.points <= 1).all()
    steps = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
    assert (steps < gamma).all()


def test_random_walk_small_gamma_walks_longer():
    rng = np.random.default_rng(11)
    short_steps = [len(random_walk_path(Point(0.0, 0.5), 0.2, rng)) for _ in range(1000)]
    long_steps = [len(random_walk_path(Point(0.0, 0.5), 0.01, rng)) for _ in range(1000)]
    assert np.mean(long_steps) > np.mean(short_steps)


class _OutwardRng:
    """Stub generator whose every step points out of the region."""

    def uniform(self, low, high, size=None):
        if high > 1.0:  # the angle draw
            return np.full(size, np.pi)  # straight toward negative x
        return np.full(size, high / 2.0)


def test_random_walk_retry_cap():
    with pytest.raises(PathGenerationError):
        random_walk_path(Point(0.0, 0.5), 0.1, _OutwardRng())


# ------------------------------------------------------------- directed walk

def test_directed_walk_endpoints_exact():
    rng = np.random.default_rng(12)
    b1, b2 = Point(0.1, 0.0), Point(1.0, 0.7)
    path = directed_walk(b1, b2, 25, 0.05, rng)
    assert len(path) == 25
    assert np.array_equal(path.points[0], [0.1, 0.0])
    assert np.array_equal(path.points[-1], [1.0, 0.7])


def test_directed_walk_degenerate_gamma_collapses_to_point():
    path = directed_walk(Point(0.5, 0.5), Point(0.5, 0.5), 20, 1e-12, np.random.default_rng(13))
    assert np.allclose(path.points, 0.5, atol=1e-11)


def test_directed_walk_correction_is_affine_in_t():
    # correction factors are equispaced: second differences of the shift vanish
    rng = np.random.default_rng(14)
    p = 12
    b1, b2 = Point(0.2, 0.2), Point(0.9, 0.4)
    state = rng.bit_generator.state
    path = directed_walk(b1, b2, p, 0.1, rng)
    rng2 = np.random.default_rng(14)
    rng2.bit_generator.state = state
    d = rng2.uniform(0.0, 0.1, size=p - 1)
    theta = rng2.uniform(0.0, 2.0 * np.pi, size=p - 1)
    free = np.vstack([[0.2, 0.2],
                      np.array([0.2, 0.2]) + np.cumsum(
                          np.column_stack([d * np.cos(theta), d * np.sin(theta)]), axis=0)])
    shift = path.points - free
    assert np.allclose(np.diff(shift, n=2, axis=0), 0.0, atol=1e-12)
    assert np.allclose(shift[-1], np.asarray(b2) - free[-1], atol=1e-12)


def test_directed_walk_rejects_short_walks():
    with pytest.raises(ConfigurationError):
        directed_walk(Point(0, 0), Point(1, 1), 1, 0.1, np.random.default_rng(0))


# ------------------------------------------------------------- scheme config

def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, gamma=0.0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, p=1)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, noise_sigma=-0.1)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, b=-1)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, seed=-1)


def test_config_accepts_scheme_name_string():
    config = SchemeConfig(scheme="bee_hive", m=3)
    assert config.scheme is Scheme.BEE_HIVE


def test_line_point_config_is_silent_and_its_draws_well_conditioned():
    # Singularity is judged per draw from the Gram, not guessed from m and
    # gamma: at gamma = 0.3 a line averages fewer than 2b+1 = 7 samples, yet
    # these m = 1.5n draws condition the system well.
    for seed in range(5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=74, b=3,
                                  gamma=0.3, seed=seed)
        assert condition_number(build_matrix(generate_paths(config), config)) < 10


# ------------------------------------------------------------ generate_paths

def test_scattered_generates_singleton_paths():
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=441, b=10)
    paths = generate_paths(config)
    assert len(paths) == 441
    assert all(len(p) == 1 for p in paths)


def test_bee_hive_paths_close_on_their_hive():
    config = SchemeConfig(scheme=Scheme.BEE_HIVE, m=20, gamma=0.05, p=15, seed=7)
    for path in generate_paths(config):
        assert path.hive is not None
        assert np.array_equal(path.points[0], np.asarray(path.hive))
        assert np.array_equal(path.points[-1], np.asarray(path.hive))


def test_directed_boundary_rejects_same_edge_pairs():
    config = SchemeConfig(scheme=Scheme.DIRECTED_BOUNDARY, m=500, gamma=0.05, p=10, seed=3)
    for path in generate_paths(config):
        b1, b2 = path.endpoints
        assert not same_edge(b1, b2)


def test_straight_boundary_lines_keep_same_edge_pairs():
    # rejection applies to directed boundary walks only; straight lines keep
    # same-edge chords, which show up as paths hugging one edge
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=400, gamma=0.05, seed=5)
    found = False
    for path in generate_paths(config):
        if same_edge(*path.endpoints):
            found = True
            break
    assert found


def test_line_schemes_carry_endpoints():
    for scheme in (Scheme.LINE_BOUNDARY_POINTS, Scheme.LINE_BOUNDARY_AVG, Scheme.LINE_INNER_AVG):
        config = SchemeConfig(scheme=scheme, m=10, b=1, gamma=0.1, seed=2)
        for path in generate_paths(config):
            assert path.endpoints is not None


def test_random_walk_paths_have_two_points_minimum():
    config = SchemeConfig(scheme=Scheme.RANDOM_WALK, m=50, gamma=0.1, seed=6)
    for path in generate_paths(config):
        assert len(path) >= 2


def test_generate_paths_deterministic_from_config_seed():
    config = SchemeConfig(scheme=Scheme.DIRECTED_INNER, m=12, gamma=0.07, p=9, seed=42)
    first = generate_paths(config)
    second = generate_paths(config)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.points, b.points)
        assert a.endpoints == b.endpoints


# -------------------------------------------------------------- serialization

def test_paths_to_csv_layout(tmp_path):
    config = SchemeConfig(scheme=Scheme.DIRECTED_INNER, m=3, gamma=0.05, p=4, seed=1)
    paths = generate_paths(config)
    target = tmp_path / "paths.csv"
    paths_to_csv(paths, target)
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "path_id,t,x,y"
    assert len(lines) == 1 + sum(len(p) for p in paths)
    pid, t, x, y = lines[1].split(",")
    assert (pid, t) == ("0", "0")
    assert float(x) == paths[0].points[0, 0]
    assert float(y) == paths[0].points[0, 1]


def test_sample_path_rejects_empty_points():
    with pytest.raises(ValueError):
        SamplePath(points=np.empty((0, 2)))
