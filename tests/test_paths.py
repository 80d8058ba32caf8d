import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_paths

from pathfield.estimation import condition_number
from pathfield.paths import (
    ConfigurationError,
    PathGenerationError,
    PathSet,
    Point,
    Scheme,
    SchemeConfig,
    directed_walks,
    generate_paths,
    line_paths,
    paths_to_csv,
    random_walks,
    same_edge,
    sample_boundary_points,
    sample_scattered,
)
from pathfield.sensing import build_matrix

# Properties run a fixed, derandomised set of examples and keep no database.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2 ** 32 - 1)
gammas = st.floats(0.01, 0.3)


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
    pts = sample_boundary_points(200, np.random.default_rng(2))
    assert pts.shape == (200, 2)
    assert (np.isin(pts[:, 0], (0.0, 1.0)) | np.isin(pts[:, 1], (0.0, 1.0))).all()
    assert ((pts >= 0.0) & (pts <= 1.0)).all()


def test_boundary_edge_frequencies():
    draws = 100_000
    x, y = sample_boundary_points(draws, np.random.default_rng(3)).T
    # bottom, then right, then top, the rest left: a corner counts once
    edge = np.select([y == 0.0, x == 1.0, y == 1.0], [0, 1, 2], default=3)
    counts = np.bincount(edge, minlength=4)
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)


def test_boundary_point_deterministic():
    p1 = sample_boundary_points(5, np.random.default_rng(4))
    p2 = sample_boundary_points(5, np.random.default_rng(4))
    assert np.array_equal(p1, p2)


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

def line_path(b1, b2, gamma, rng):
    """The one path of a batch of one."""
    (path,) = line_paths([b1], [b2], gamma, rng)
    return path


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
    paths = line_paths(np.zeros((10_000, 2)), np.tile([1.0, 0.0], (10_000, 1)), 0.1,
                       np.random.default_rng(8))
    assert 18.0 <= np.mean(paths.counts) <= 22.0


class _CountingGapRng:
    """Stub generator whose every gap is a tenth of the bound; counts draws."""

    def __init__(self):
        self.calls = 0

    def uniform(self, low, high, size=None):
        self.calls += 1
        return np.full(size, high / 10.0)


def test_line_path_draws_more_blocks_until_past_endpoint():
    # A block holds ceil(2.5 * sqrt(2) / 0.1) + 16 = 52 gaps of 0.01 per path,
    # so reaching the far endpoint takes a second block.
    rng = _CountingGapRng()
    path = line_path(Point(0, 0), Point(1, 0), 0.1, rng)
    assert rng.calls == 2
    assert len(path) == 100
    assert np.allclose(path.points[:, 1], 0.0)
    assert np.allclose(np.diff(path.points[:, 0]), 0.01)
    assert 1.0 - 0.01 <= path.points[-1, 0] <= 1.0


def test_line_path_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        line_path(Point(0, 0), Point(1, 0), 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        line_paths([Point(0, 0), Point(0.5, 0.5)], [Point(1, 0), Point(0.5, 0.5)], 0.1,
                   np.random.default_rng(0))


# --------------------------------------------------------------- random walk

def test_random_walk_stays_inside_and_steps_bounded():
    gamma = 0.08
    (path,) = random_walks([Point(0.0, 0.5)], gamma, np.random.default_rng(10))
    assert len(path) >= 2
    assert (path.points >= 0).all() and (path.points <= 1).all()
    steps = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
    assert (steps < gamma).all()


def test_random_walk_small_gamma_walks_longer():
    rng = np.random.default_rng(11)
    starts = np.tile([0.0, 0.5], (1000, 1))
    short_steps = random_walks(starts, 0.2, rng).counts
    long_steps = random_walks(starts, 0.01, rng).counts
    assert np.mean(long_steps) > np.mean(short_steps)


class _OutwardRng:
    """Stub generator whose every step points out of the region."""

    def uniform(self, low, high, size=None):
        if high > 1.0:  # the angle draw
            return np.full(size, np.pi)  # straight toward negative x
        return np.full(size, high / 2.0)


def test_random_walk_retry_cap():
    with pytest.raises(PathGenerationError):
        random_walks([Point(0.0, 0.5), Point(0.5, 0.5)], 0.1, _OutwardRng())


# ------------------------------------------------------------- directed walk

def test_directed_walk_endpoints_exact():
    rng = np.random.default_rng(12)
    b1, b2 = Point(0.1, 0.0), Point(1.0, 0.7)
    (path,) = directed_walks([b1], [b2], 25, 0.05, rng)
    assert len(path) == 25
    assert np.array_equal(path.points[0], [0.1, 0.0])
    assert np.array_equal(path.points[-1], [1.0, 0.7])


def test_directed_walk_degenerate_gamma_collapses_to_point():
    (path,) = directed_walks([Point(0.5, 0.5)], [Point(0.5, 0.5)], 20, 1e-12,
                             np.random.default_rng(13))
    assert np.allclose(path.points, 0.5, atol=1e-11)


def test_directed_walk_correction_is_affine_in_t():
    # correction factors are equispaced: second differences of the shift vanish
    rng = np.random.default_rng(14)
    p = 12
    b1, b2 = Point(0.2, 0.2), Point(0.9, 0.4)
    state = rng.bit_generator.state
    (path,) = directed_walks([b1], [b2], p, 0.1, rng)
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
        directed_walks([Point(0, 0)], [Point(1, 1)], 1, 0.1, np.random.default_rng(0))


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


def test_pathset_rejects_empty_or_non_finite_points():
    with pytest.raises(ValueError):
        PathSet(np.empty((0, 2)), np.zeros(1, dtype=int))
    with pytest.raises(ValueError):
        PathSet(np.array([[0.1, np.nan]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        PathSet(np.zeros((3, 2)), np.array([0, 2, 2, 3]))  # an empty path


# ------------------------------------------------- batched generator properties

def _ends(pathset):
    return pathset.points[pathset.offsets[:-1]], pathset.points[pathset.offsets[1:] - 1]


@PROPERTY
@given(seed=seeds, m=st.integers(1, 20), p=st.integers(2, 40), gamma=gammas)
def test_bridge_endpoints_are_exact(seed, m, p, gamma):
    rng = np.random.default_rng(seed)
    starts, ends = rng.random((m, 2)), rng.random((m, 2))
    paths = directed_walks(starts, ends, p, gamma, rng)
    first, last = _ends(paths)
    assert np.array_equal(first, starts) and np.array_equal(last, ends)
    assert np.array_equal(paths.counts, np.full(m, p))


@PROPERTY
@given(seed=seeds, m=st.integers(1, 20), gamma=gammas)
def test_line_samples_lie_on_the_segment_closer_than_gamma(seed, m, gamma):
    rng = np.random.default_rng(seed)
    starts, ends = rng.random((m, 2)), rng.random((m, 2))
    paths = line_paths(starts, ends, gamma, rng)
    assert np.array_equal(_ends(paths)[0], starts)
    for path, start, end in zip(paths, starts, ends):
        length = np.linalg.norm(end - start)
        direction = (end - start) / length
        rel = path.points - start
        assert np.abs(rel[:, 0] * direction[1] - rel[:, 1] * direction[0]).max() <= 1e-12
        along = rel @ direction
        assert along.min() >= 0.0 and along.max() <= length + 1e-12
        assert (np.diff(along) >= 0.0).all()
        assert (np.linalg.norm(np.diff(path.points, axis=0), axis=1) < gamma + 1e-12).all()


@PROPERTY
@given(seed=seeds, m=st.integers(1, 20), gamma=gammas)
def test_random_walk_points_stay_in_the_square(seed, m, gamma):
    rng = np.random.default_rng(seed)
    starts = sample_boundary_points(m, rng)
    paths = random_walks(starts, gamma, rng)
    assert np.array_equal(_ends(paths)[0], starts)
    assert ((paths.points >= 0.0) & (paths.points <= 1.0)).all()
    assert (paths.counts >= 2).all()
    steps = np.linalg.norm(np.diff(paths.points, axis=0), axis=1)
    within = np.ones(len(steps), dtype=bool)
    within[paths.offsets[1:-1] - 1] = False  # the step from one walk into the next
    assert (steps[within] < gamma + 1e-12).all()


@PROPERTY
@given(seed=seeds, scheme=st.sampled_from(list(Scheme)), m=st.integers(1, 30),
       p=st.integers(2, 12), gamma=gammas)
def test_offsets_are_consistent(seed, scheme, m, p, gamma):
    config = SchemeConfig(scheme=scheme, m=m, b=1, gamma=gamma, p=p, seed=seed)
    paths = generate_paths(config)
    offsets = paths.offsets
    assert len(paths) == m and offsets[0] == 0 and offsets[-1] == len(paths.points)
    assert (np.diff(offsets) >= 1).all()
    if scheme is Scheme.RANDOM_WALK:
        assert (paths.counts >= 2).all()
    assert sum(len(path) for path in paths) == len(paths.points)


# ------------------------------------------- against the per-path reference

def _draws(generate, scheme, seeds_=range(60)):
    """Point counts of every path, and the kappa of every draw, over seeds."""
    counts, kappas = [], []
    for seed in seeds_:
        config = SchemeConfig(scheme=scheme, m=50, b=2, gamma=0.08, p=9, seed=seed)
        paths = generate(config)
        counts += [len(path) for path in paths]
        kappas.append(condition_number(build_matrix(paths, config)))
    return np.array(counts, dtype=float), np.array(kappas)


def _agree(a, b) -> bool:
    """Sample statistics a and b (values, standard errors) within 5 joint standard errors."""
    (va, sa), (vb, sb) = a, b
    return abs(va - vb) <= 5.0 * np.hypot(sa, sb)


def _mean(x):
    return x.mean(), x.std() / np.sqrt(len(x))


def _var(x):
    centred = (x - x.mean()) ** 2
    return centred.mean(), centred.std() / np.sqrt(len(x))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_batched_generators_match_the_per_path_reference_in_distribution(scheme):
    counts, kappas = _draws(generate_paths, scheme)
    ref_counts, ref_kappas = _draws(reference_paths.generate_paths, scheme)
    assert _agree(_mean(counts), _mean(ref_counts))
    assert _agree(_var(counts), _var(ref_counts))
    # Each median kappa lies between the other sample's 15th and 85th percentiles.
    for k, other in ((kappas, ref_kappas), (ref_kappas, kappas)):
        low, high = np.percentile(other, [15, 85])
        assert low <= np.median(k) <= high
