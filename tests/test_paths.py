import hashlib
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_paths

from pathfield.paths import (
    CHUNK,
    ConfigurationError,
    Draw,
    PathGenerationError,
    PathSet,
    Scheme,
    SchemeConfig,
    _boundary_points,
    _directed_walks,
    _endpoint_pairs,
    _line_paths,
    _random_walks,
    _same_edge,
    generate_paths,
    paths_to_csv,
)
from pathfield.sensing import build_matrix, condition_number

# Properties run a fixed, derandomised set of examples and keep no database.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2 ** 32 - 1)
gammas = st.floats(0.01, 0.3)


# ---------------------------------------------------------------- scattered

def scattered(m, seed):
    """The points of a scattered cell of m points."""
    return generate_paths(SchemeConfig(scheme=Scheme.SCATTERED, m=m, seed=seed)).points


def test_scattered_support_and_shape():
    pts = scattered(1, 0)
    assert pts.shape == (1, 2)
    assert (pts >= 0).all() and (pts <= 1).all()


def test_scattered_mean_at_desk_scale():
    pts = scattered(100_000, 1)
    assert abs(pts[:, 0].mean() - 0.5) < 0.01
    assert abs(pts[:, 1].mean() - 0.5) < 0.01


def test_scattered_deterministic():
    a = scattered(50, 9)
    b = scattered(50, 9)
    assert np.array_equal(a, b)


# ------------------------------------------------------------ boundary draw

def test_boundary_point_lies_on_perimeter():
    pts = _boundary_points(200, np.random.default_rng(2))
    assert pts.shape == (200, 2)
    assert (np.isin(pts[:, 0], (0.0, 1.0)) | np.isin(pts[:, 1], (0.0, 1.0))).all()
    assert ((pts >= 0.0) & (pts <= 1.0)).all()


def test_boundary_edge_frequencies():
    draws = 100_000
    x, y = _boundary_points(draws, np.random.default_rng(3)).T
    # bottom, then right, then top, the rest left: a corner counts once
    edge = np.select([y == 0.0, x == 1.0, y == 1.0], [0, 1, 2], default=3)
    counts = np.bincount(edge, minlength=4)
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)


def test_boundary_point_deterministic():
    p1 = _boundary_points(5, np.random.default_rng(4))
    p2 = _boundary_points(5, np.random.default_rng(4))
    assert np.array_equal(p1, p2)


def same_edge(p1, p2):
    """`_same_edge` of two points given as tuples."""
    return _same_edge(np.array(p1), np.array(p2))


def test_same_edge_detection():
    assert same_edge((0.2, 0.0), (0.9, 0.0))
    assert same_edge((1.0, 0.1), (1.0, 0.8))
    assert not same_edge((0.2, 0.0), (0.2, 1.0))
    assert same_edge((0.0, 0.0), (1.0, 0.0))  # corner shares the bottom edge

    def edges(pt):
        """Edges 0..3 (bottom, right, top, left) the point lies on."""
        x, y = pt
        return {e for e, on in enumerate([y == 0.0, x == 1.0, y == 1.0, x == 0.0]) if on}

    lattice = [(x, y) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
    for p1 in lattice:
        for p2 in lattice:
            assert same_edge(p1, p2) == bool(edges(p1) & edges(p2)), (p1, p2)


class _RepeatThenUniformRng:
    """Stub generator whose first draw repeats one point; later draws are uniform."""

    def __init__(self):
        self.calls = 0
        self.uniform = np.random.default_rng(0)

    def random(self, size):
        self.calls += 1
        return np.full(size, 0.5) if self.calls == 1 else self.uniform.random(size)


def test_endpoint_pairs_redraws_equal_endpoints():
    # Lines rely on this: a segment needs two distinct endpoints.
    rng = _RepeatThenUniformRng()
    pairs = _endpoint_pairs(3, rng, boundary=False, reject_same_edge=False)
    assert rng.calls == 2
    assert (pairs[:, 0] != pairs[:, 1]).any(axis=1).all()


# ----------------------------------------------------------------- line path

def line_path(b1, b2, gamma, rng):
    """The one path of a batch of one."""
    (path,) = _line_paths(np.array([b1], dtype=float), np.array([b2], dtype=float), gamma, rng)
    return path


def test_line_path_collinear_diagonal():
    path = line_path((0, 0), (1, 1), 0.07, np.random.default_rng(5))
    assert np.allclose(path.points[:, 0], path.points[:, 1], atol=1e-12)


def test_line_path_starts_at_b1_and_stays_on_segment():
    rng = np.random.default_rng(6)
    path = line_path((0.1, 0.9), (0.8, 0.2), 0.05, rng)
    assert np.array_equal(path.points[0], [0.1, 0.9])
    assert np.array_equal(path.endpoints, ((0.1, 0.9), (0.8, 0.2)))
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
    path = line_path((0, 0), (1, 0), gamma, np.random.default_rng(7))
    steps = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
    assert (steps < gamma).all()


def test_line_path_expected_count():
    # unit chord with gamma=0.1: renewal theory gives ~20 spacings per path
    paths = _line_paths(np.zeros((10_000, 2)), np.tile([1.0, 0.0], (10_000, 1)), 0.1,
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
    path = line_path((0, 0), (1, 0), 0.1, rng)
    assert rng.calls == 2
    assert len(path) == 100
    assert np.allclose(path.points[:, 1], 0.0)
    assert np.allclose(np.diff(path.points[:, 0]), 0.01)
    assert 1.0 - 0.01 <= path.points[-1, 0] <= 1.0


# --------------------------------------------------------------- random walk

def test_random_walk_stays_inside_and_steps_bounded():
    gamma = 0.08
    (path,) = _random_walks(np.array([[0.0, 0.5]]), gamma, np.random.default_rng(10))
    assert len(path) >= 2
    assert (path.points >= 0).all() and (path.points <= 1).all()
    steps = np.linalg.norm(np.diff(path.points, axis=0), axis=1)
    assert (steps < gamma).all()


def test_random_walk_small_gamma_walks_longer():
    rng = np.random.default_rng(11)
    starts = np.tile([0.0, 0.5], (1000, 1))
    short_steps = _random_walks(starts, 0.2, rng).counts
    long_steps = _random_walks(starts, 0.01, rng).counts
    assert np.mean(long_steps) > np.mean(short_steps)


# (m, gamma, seed) -> sha256 of a random-walk cell's points, rounded to 10
# decimals as in test_stream (they go through sin/cos), and its offsets. Seed 3
# at gamma = 0.02 has a walk of 5377 points, longer than sensing.BLOCK; the
# last two cells span two chunks.
WALK_DIGESTS = {
    (49, 0.1, 1): "e6cb8ce804fc8ae50086ee9ca01ab9cdbfbebfe9104563524a8792662549592a",
    (392, 0.05, 2): "35d3c5a5a007e3a12fbac42412e7d7ede3a0894741ba7cad408adfce4fb2362a",
    (300, 0.02, 3): "a6e7b932c44ae6483bdd6aa295a8c55f53288a6b062cf3a43936f93365c0ce1b",
}


@pytest.mark.parametrize("m, gamma, seed", list(WALK_DIGESTS))
def test_random_walks_are_pinned(m, gamma, seed):
    paths = generate_paths(SchemeConfig(scheme=Scheme.RANDOM_WALK, m=m, gamma=gamma, seed=seed))
    digest = hashlib.sha256(np.round(paths.points, 10).tobytes())
    digest.update(paths.offsets.astype(np.int64).tobytes())
    assert digest.hexdigest() == WALK_DIGESTS[m, gamma, seed]


def test_random_walks_stop_once_their_phasors_pass_the_cell_budget(monkeypatch):
    # A walk's length is random, so the walks count their points as they draw
    # them, every walk of the chunk the cell's 49 are cut from: one phasor byte
    # over the budget refuses the cell, naming the budget and the count, and a
    # budget that fits leaves the points as they are.
    config = SchemeConfig(scheme=Scheme.RANDOM_WALK, m=49, gamma=0.1, seed=1)
    points = generate_paths(config).points
    total = len(generate_paths(replace(config, m=CHUNK)).points)  # the chunk's every walk
    assert total > len(points)
    monkeypatch.setattr("pathfield.paths.CELL_BYTES", 32 * total - 1)
    with pytest.raises(ConfigurationError, match=f"reached {total} points, whose phasors need "
                                                 f"{32 * total} bytes, over the {32 * total - 1}-byte"):
        generate_paths(config)
    monkeypatch.setattr("pathfield.paths.CELL_BYTES", 32 * total)
    assert np.array_equal(generate_paths(config).points, points)


def test_random_walks_peak_below_four_times_their_points():
    # The walks keep each round's points per axis and gather them into one
    # (P, 2) array, one axis at a time, so the peak stays under 4x the
    # points' own 16 B each.
    config = SchemeConfig(scheme=Scheme.RANDOM_WALK, m=392, b=3, gamma=0.05, seed=7)
    tracemalloc.start()
    try:
        points = generate_paths(config).points
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.0 * points.nbytes


class _OutwardRng:
    """Stub generator whose every step points out of the region."""

    def uniform(self, low, high, size=None):
        if high > 1.0:  # the angle draw
            return np.full(size, np.pi)  # straight toward negative x
        return np.full(size, high / 2.0)


def test_random_walk_retry_cap():
    with pytest.raises(PathGenerationError):
        _random_walks(np.array([[0.0, 0.5], [0.5, 0.5]]), 0.1, _OutwardRng())


# ------------------------------------------------------------- directed walk

def test_directed_walk_endpoints_exact():
    rng = np.random.default_rng(12)
    b1, b2 = (0.1, 0.0), (1.0, 0.7)
    (path,) = _directed_walks(np.array([b1]), np.array([b2]), 25, 0.05, rng)
    assert len(path) == 25
    assert np.array_equal(path.points[0], [0.1, 0.0])
    assert np.array_equal(path.points[-1], [1.0, 0.7])


def test_directed_walk_degenerate_gamma_collapses_to_point():
    (path,) = _directed_walks(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]), 20, 1e-12,
                              np.random.default_rng(13))
    assert np.allclose(path.points, 0.5, atol=1e-11)


def test_directed_walk_correction_is_affine_in_t():
    # correction factors are equispaced: second differences of the shift vanish
    rng = np.random.default_rng(14)
    p = 12
    b1, b2 = (0.2, 0.2), (0.9, 0.4)
    state = rng.bit_generator.state
    (path,) = _directed_walks(np.array([b1]), np.array([b2]), p, 0.1, rng)
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


# ------------------------------------------------------------- scheme config

def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=0)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, gamma=0.0)
    with pytest.raises(ConfigurationError, match="finite"):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, gamma=np.inf)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, p=1)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, noise_sigma=-0.1)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, b=-1)
    with pytest.raises(ConfigurationError):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, seed=-1)


@pytest.mark.parametrize("setting", [dict(m=2.5), dict(b=1.5), dict(p=3.5), dict(seed=1.5),
                                     dict(m=True), dict(b=True), dict(p=True), dict(seed=True)],
                         ids=repr)
def test_config_integer_settings_refuse_floats_and_bools(setting):
    # A float would fail deep inside numpy with a TypeError, or pass silently.
    (name,) = setting
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
        SchemeConfig(scheme=Scheme.SCATTERED, **{"m": 5, **setting})


@pytest.mark.parametrize("setting", [
    dict(gamma=True), dict(gamma=np.True_), dict(gamma="0.1"), dict(noise_sigma=True),
    dict(noise_sigma="0.1"), pytest.param(dict(gamma=10 ** 400), id="{'gamma': 10 ** 400}"),
    pytest.param(dict(noise_sigma=10 ** 400), id="{'noise_sigma': 10 ** 400}")], ids=repr)
def test_config_real_settings_refuse_bools_and_strings(setting):
    # gamma=True once ran as gamma = 1, and a string raised a TypeError; an int
    # beyond the float range raised an OverflowError.
    (name,) = setting
    with pytest.raises(ConfigurationError, match=f"^{name} must be a finite number "):
        SchemeConfig(scheme=Scheme.SCATTERED, m=5, **setting)
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=5, gamma=np.float32(0.5),
                          noise_sigma=np.int64(0))
    assert (config.gamma, config.noise_sigma) == (0.5, 0)


@pytest.mark.parametrize("setting, message", [
    (dict(scheme="foo"), "unknown scheme 'foo'; valid schemes: scattered, line_boundary_points, "
                         "line_boundary_avg, line_inner_avg, random_walk, directed_boundary, "
                         "directed_inner, bee_hive"),
    (dict(location_aware="false"), "location_aware must be a boolean"),
    (dict(location_aware=1), "location_aware must be a boolean")], ids=repr)
def test_config_refuses_an_unknown_scheme_and_a_non_boolean_awareness(setting, message):
    # location_aware="false" once ran location-aware, read as its truth value.
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        SchemeConfig(**{"scheme": Scheme.LINE_BOUNDARY_AVG, "m": 5, **setting})
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=5, location_aware=np.False_)
    assert not config.location_aware


def test_config_accepts_numpy_integers():
    config = SchemeConfig(scheme=Scheme.DIRECTED_INNER, m=np.int64(3), b=np.int32(1),
                          p=np.int64(4), seed=np.uint8(2))
    paths = generate_paths(config)
    assert np.array_equal(paths.points, generate_paths(
        SchemeConfig(scheme=Scheme.DIRECTED_INNER, m=3, b=1, p=4, seed=2)).points)


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
        assert np.array_equal(a.endpoints, b.endpoints)


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


def test_path_views_are_slices_of_the_set():
    for scheme in Scheme:
        paths = generate_paths(SchemeConfig(scheme=scheme, m=12, b=1, gamma=0.1, p=7, seed=4))
        views = list(paths)
        assert len(views) == len(paths)
        for i, view in enumerate(views):
            assert np.array_equal(view.points,
                                  paths.points[paths.offsets[i]:paths.offsets[i + 1]])
            for name, whole, shape in (("points", paths.points, (len(view), 2)),
                                       ("endpoints", paths.endpoints, (2, 2)),
                                       ("hive", paths.hives, (2,))):
                got, indexed = getattr(view, name), getattr(paths[i], name)
                if whole is None:
                    assert got is None and indexed is None, (scheme, name)
                else:
                    assert got.shape == shape and np.array_equal(got, indexed)
                    assert np.shares_memory(got, whole), (scheme, name)


def test_pathset_rejects_empty_or_non_finite_points():
    with pytest.raises(ValueError):
        PathSet(np.empty((0, 2)), np.zeros(1, dtype=int))
    with pytest.raises(ValueError):
        PathSet(np.array([[0.1, np.nan]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        PathSet(np.zeros((3, 2)), np.array([0, 2, 2, 3]))  # an empty path
    with pytest.raises(ValueError):
        PathSet(np.zeros((5, 2)), np.array([0, 2.5, 5]))  # a path would end mid-point
    with pytest.raises(ValueError):
        PathSet(np.zeros((5, 2)), np.array([0.0, 2.0, 5.0]))  # not usable as slice bounds


@pytest.mark.parametrize("scheme", list(Scheme), ids=str)
def test_a_cells_paths_are_the_first_m_of_its_trials_draw(scheme):
    # Chunk c of CHUNK paths comes from its own generator, so a smaller cell's
    # paths, endpoints and hives are the first of a larger cell's, across a
    # chunk boundary too, and the heads of the larger cell's Draw are the same.
    # The draw keeps its m paths, not the whole last chunk.
    config = SchemeConfig(scheme=scheme, m=CHUNK + 40, b=1, gamma=0.1, p=7, seed=8)
    large = generate_paths(config)
    draw = Draw(config)
    for m in (30, CHUNK, CHUNK + 40):
        for small in (generate_paths(replace(config, m=m)),
                      generate_paths(replace(config, m=m), draw=draw)):
            end = small.offsets[-1]
            assert np.array_equal(small.offsets, large.offsets[:m + 1])
            assert small.points.tobytes() == large.points[:end].tobytes()
            for name in ("endpoints", "hives"):
                mine, theirs = getattr(small, name), getattr(large, name)
                assert (mine is None) == (theirs is None)
                assert mine is None or mine.tobytes() == theirs[:m].tobytes()
    assert len(draw.paths) == CHUNK + 40


def test_a_draw_serves_one_trial():
    # A Draw keeps the paths of one trial's largest cell: another seed, scheme,
    # gamma or b would read paths it did not draw, and a larger m paths it has not.
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=10, seed=1)
    draw = Draw(replace(config, m=20))
    generate_paths(config, draw=draw)
    for change in (dict(seed=2), dict(scheme=Scheme.LINE_BOUNDARY_AVG), dict(gamma=0.1),
                   dict(b=4), dict(m=21)):
        with pytest.raises(ValueError, match="one trial"):
            generate_paths(replace(config, **change), draw=draw)
    generate_paths(replace(config, m=20), draw=draw)


def _counted_exp(monkeypatch) -> list:
    """The sizes of the arrays np.exp is called on from now on, in call order."""
    exponentiated = []
    real_exp = np.exp

    def exp(x, *args, **kwargs):
        exponentiated.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", exp)
    return exponentiated


def test_cells_of_one_draw_exponentiate_each_point_once(monkeypatch):
    # A draw's paths are its largest cell's, cut from their last chunk. The
    # first cell to read its phasors exponentiates exactly those points, later
    # cells none, and the last chunk's other paths never: each cell's phasors
    # are a head of the whole set's.
    config = SchemeConfig(scheme=Scheme.DIRECTED_INNER, m=CHUNK + 1, p=5, seed=3)
    real_exp = np.exp
    exponentiated = _counted_exp(monkeypatch)
    draw = Draw(config)
    for m, new in ((100, 5 * (CHUNK + 1)), (CHUNK + 1, 0), (50, 0)):
        paths = generate_paths(replace(config, m=m), draw=draw)
        before = sum(exponentiated)
        phasors = paths.phasors
        assert sum(exponentiated) - before == 2 * new
        assert phasors.tobytes() == real_exp(2j * np.pi * paths.points).tobytes()
        assert not phasors.flags.writeable


def _equispaced(paths: PathSet) -> np.ndarray:
    """One location per reading of the whole set, reading t of a path of c at
    start + t (end - start) / max(c - 1, 1) between its declared endpoints."""
    counts, start, end = paths.counts, paths.endpoints[:, 0], paths.endpoints[:, 1]
    step = (end - start) / np.maximum(counts - 1, 1)[:, None]
    t = np.arange(len(paths.points)) - np.repeat(paths.offsets[:-1], counts)
    return np.repeat(start, counts, axis=0) + t[:, None] * np.repeat(step, counts, axis=0)


@pytest.mark.parametrize("scheme", [Scheme.LINE_INNER_AVG, Scheme.BEE_HIVE])
def test_cells_of_one_draw_exponentiate_each_stand_in_once(monkeypatch, scheme):
    # The same for the locations an unaware reconstruction assumes, one per
    # reading of a line or one hive per loop: the first cell to read them
    # exponentiates exactly the largest cell's, later cells none. Each cell's
    # are those of its own set, computed at once.
    config = SchemeConfig(scheme=scheme, m=CHUNK + 1, p=5, location_aware=False, seed=3)
    real_exp = np.exp
    exponentiated = _counted_exp(monkeypatch)
    draw = Draw(config)
    for m in (100, CHUNK + 1, 50):
        paths = generate_paths(replace(config, m=m), draw=draw)
        whole = draw.paths.hives if scheme is Scheme.BEE_HIVE else _equispaced(draw.paths)
        locations = paths.hives if scheme is Scheme.BEE_HIVE else _equispaced(paths)
        before = sum(exponentiated)
        phasors = paths.stand_in_phasors
        assert sum(exponentiated) - before == (2 * len(whole) if m == 100 else 0)
        assert phasors.tobytes() == real_exp(2j * np.pi * locations).tobytes()
        assert not phasors.flags.writeable
    assert len(whole) > len(locations)
    with pytest.raises(TypeError):
        PathSet(paths.points, paths.offsets, whole=draw.paths)


def test_pathset_arrays_are_read_only_and_its_phasors_cached():
    # A bee-hive set carries all four arrays. They are read-only views, so the
    # phasors computed on first use stay those of the points.
    paths = generate_paths(SchemeConfig(scheme=Scheme.BEE_HIVE, m=5, b=1, p=7, seed=4))
    with pytest.raises(ValueError):
        paths.points[0, 0] = 0.5
    for name in ("offsets", "endpoints", "hives", "phasors"):
        assert not getattr(paths, name).flags.writeable, name
    phasors = paths.phasors
    assert phasors.tobytes() == np.exp(2j * np.pi * paths.points).tobytes()
    assert paths.phasors is phasors
    # The caller's own array stays writable.
    points = np.random.default_rng(5).random((4, 2))
    PathSet(points, np.array([0, 4]))
    points[0, 0] = 0.5


# ------------------------------------------------- batched generator properties

def _ends(pathset):
    return pathset.points[pathset.offsets[:-1]], pathset.points[pathset.offsets[1:] - 1]


@PROPERTY
@given(seed=seeds, m=st.integers(1, 20), p=st.integers(2, 40), gamma=gammas)
def test_bridge_endpoints_are_exact(seed, m, p, gamma):
    rng = np.random.default_rng(seed)
    starts, ends = rng.random((m, 2)), rng.random((m, 2))
    paths = _directed_walks(starts, ends, p, gamma, rng)
    first, last = _ends(paths)
    assert np.array_equal(first, starts) and np.array_equal(last, ends)
    assert np.array_equal(paths.counts, np.full(m, p))


@PROPERTY
@given(seed=seeds, m=st.integers(1, 20), gamma=gammas)
def test_line_samples_lie_on_the_segment_closer_than_gamma(seed, m, gamma):
    rng = np.random.default_rng(seed)
    starts, ends = rng.random((m, 2)), rng.random((m, 2))
    paths = _line_paths(starts, ends, gamma, rng)
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
    starts = _boundary_points(m, rng)
    paths = _random_walks(starts, gamma, rng)
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
