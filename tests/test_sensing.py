import numpy as np
import pytest

from pathfield.field import harmonics, phasors
from pathfield.paths import (
    POINT_SCHEMES,
    UNAWARE_SCHEMES,
    ConfigurationError,
    Point,
    PathSet,
    Scheme,
    SchemeConfig,
    generate_paths,
    line_paths,
)
from pathfield import sensing
from pathfield.sensing import Sensing, build_matrix, point_rows

EPS = np.finfo(float).eps


def averaged_matrix(points, b):
    """The one-row sensing matrix of a single averaging path over `points`."""
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=1, b=b)
    return build_matrix(PathSet(points, np.array([0, len(points)])), config).dense()


# ------------------------------------------------------------------ rows

def test_point_row_at_origin_is_all_ones():
    row = point_rows([Point(0.0, 0.0)], 3)[0]
    assert row.shape == (49,)
    assert np.allclose(row, 1.0, atol=1e-12)


def test_point_row_alternates_with_k_at_half_x():
    row = point_rows([Point(0.5, 0.0)], 1)[0]
    expected = np.array([(-1.0) ** k for k, _ in harmonics(1)])
    assert np.allclose(row, expected, atol=1e-12)


def test_point_rows_unit_modulus():
    pts = np.random.default_rng(0).random((200, 2))
    rows = point_rows(pts, 2)
    assert np.allclose(np.abs(rows), 1.0, atol=1e-12)


def test_averaged_row_of_single_point_equals_point_row():
    points = np.array([[0.3, 0.7]])
    assert np.array_equal(averaged_matrix(points, 2), point_rows(points, 2))


def test_averaged_row_two_point_cancellation():
    row = averaged_matrix(np.array([[0.0, 0.0], [0.5, 0.0]]), 1)[0]
    kl = [tuple(pair) for pair in harmonics(1)]
    assert abs(row[kl.index((1, 0))]) < 1e-12
    assert abs(row[kl.index((-1, 0))]) < 1e-12
    assert row[kl.index((0, 0))] == pytest.approx(1.0)


def test_averaged_row_modulus_at_most_one():
    rng = np.random.default_rng(1)
    assert (np.abs(averaged_matrix(rng.random((40, 2)), 3)) <= 1.0 + 1e-12).all()


# ------------------------------------------------------------ build_matrix

def test_scattered_matrix_is_point_exact():
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=30, b=2, seed=0)
    paths = generate_paths(config)
    X = build_matrix(paths, config).dense()
    assert X.shape == (30, 25)
    assert np.array_equal(X, point_rows(np.vstack([p.points for p in paths]), 2))
    assert np.allclose(np.abs(X), 1.0, atol=1e-12)


def test_line_points_matrix_has_row_per_sample():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=10, b=1, gamma=0.05, seed=1)
    paths = generate_paths(config)
    X = build_matrix(paths, config).dense()
    assert X.shape == (sum(len(p) for p in paths), 9)
    assert np.array_equal(X, point_rows(np.vstack([p.points for p in paths]), 1))


@pytest.mark.parametrize("scheme", [
    Scheme.LINE_BOUNDARY_AVG, Scheme.LINE_INNER_AVG, Scheme.RANDOM_WALK,
    Scheme.DIRECTED_BOUNDARY, Scheme.DIRECTED_INNER, Scheme.BEE_HIVE,
])
def test_averaging_schemes_have_row_per_path(scheme):
    config = SchemeConfig(scheme=scheme, m=12, b=1, gamma=0.08, p=8, seed=2)
    paths = generate_paths(config)
    X = build_matrix(paths, config).dense()
    assert X.shape == (12, 9)
    assert (np.abs(X) <= 1.0 + 1e-12).all()
    for row, path in zip(X, paths):
        assert np.abs(row - point_rows(path.points, 1).mean(axis=0)).max() <= 4 * EPS


def test_column_count_for_every_kind():
    for scheme, aware in [
        (Scheme.SCATTERED, True), (Scheme.LINE_BOUNDARY_POINTS, True),
        (Scheme.LINE_BOUNDARY_POINTS, False), (Scheme.LINE_BOUNDARY_AVG, False),
        (Scheme.BEE_HIVE, True), (Scheme.BEE_HIVE, False),
    ]:
        config = SchemeConfig(scheme=scheme, m=9, b=2, gamma=0.1, p=6,
                              location_aware=aware, seed=3)
        X = build_matrix(generate_paths(config), config).dense()
        assert X.shape[1] == 25
        # Columns follow harmonics(2): the (0, 0) column is the constant mean.
        assert np.allclose(X[:, 12], 1.0, atol=1e-12)


def test_unaware_line_points_rows_match_sample_counts():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=8, b=1, gamma=0.05,
                          location_aware=False, seed=4)
    paths = generate_paths(config)
    X = build_matrix(paths, config).dense()
    assert X.shape[0] == sum(len(p) for p in paths)
    first = paths[0]
    expected = point_rows(np.linspace(*first.endpoints, len(first)), 1)
    assert np.array_equal(X[:len(first)], expected)


def test_unaware_averaged_kind():
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=7, b=1, gamma=0.05,
                          location_aware=False, seed=5)
    paths = generate_paths(config)
    X = build_matrix(paths, config).dense()
    assert X.shape == (7, 9)
    for row, path in zip(X, paths):
        expected = point_rows(np.linspace(*path.endpoints, len(path)), 1).mean(axis=0)
        assert np.abs(row - expected).max() <= 4 * EPS


def test_unaware_hive_matrix_equals_scattered_matrix_at_hives():
    config = SchemeConfig(scheme=Scheme.BEE_HIVE, m=25, b=2, gamma=0.04, p=12,
                          location_aware=False, seed=6)
    paths = generate_paths(config)
    X = build_matrix(paths, config).dense()
    hives = np.asarray([p.hive for p in paths], dtype=float)
    assert np.array_equal(X, point_rows(hives, 2))


@pytest.mark.parametrize("scheme", [
    Scheme.SCATTERED, Scheme.RANDOM_WALK, Scheme.DIRECTED_BOUNDARY, Scheme.DIRECTED_INNER,
])
def test_unaware_mode_rejected_where_undefined(scheme):
    config = SchemeConfig(scheme=scheme, m=5, b=1, gamma=0.1, p=6,
                          location_aware=False, seed=7)
    paths = generate_paths(config)
    with pytest.raises(ConfigurationError, match="unaware"):
        build_matrix(paths, config)


def test_unaware_mode_requires_endpoint_metadata():
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=2, b=1, gamma=0.1,
                          location_aware=False, seed=8)
    bare = PathSet(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0, 2]))
    with pytest.raises(ConfigurationError, match="endpoints"):
        build_matrix(bare, config)


def test_build_matrix_rejects_empty_path_list():
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=1, b=1)
    with pytest.raises(ValueError):
        build_matrix(PathSet(np.empty((0, 2)), np.zeros(1, dtype=int)), config)


# ------------------------------------- aware/unaware convergence (oracle)

def test_averaged_row_converges_to_unaware_row_as_gamma_shrinks():
    """Dense-quadrature oracle: as spacing shrinks, the random-point mean and
    the equispaced mean both approach the segment's exact phasor integral."""
    b = 2
    b1, b2 = Point(0.05, 0.1), Point(0.9, 0.85)
    quad = point_rows(np.linspace(b1, b2, 20_001), b).mean(axis=0)
    gaps_aware = []
    gaps_oracle = []
    for i, gamma in enumerate((0.05, 0.01, 0.002)):
        (path,) = line_paths([b1], [b2], gamma, np.random.default_rng(100 + i))
        aware = averaged_matrix(path.points, b)[0]
        unaware = point_rows(np.linspace(b1, b2, len(path)), b).mean(axis=0)
        gaps_aware.append(np.abs(aware - unaware).max())
        gaps_oracle.append(np.abs(aware - quad).max())
    assert gaps_aware[0] > gaps_aware[1] > gaps_aware[2]
    assert gaps_oracle[0] > gaps_oracle[1] > gaps_oracle[2]


# ---------------------------------------------- differential (dense oracle)

def dense_rows(locations, b):
    """exp(j 2 pi (k x + l y)) over harmonics(b), one exponential per entry."""
    kl = harmonics(b).astype(float)
    return np.array([[np.exp(2j * np.pi * (k * x + l * y)) for k, l in kl]
                     for x, y in np.atleast_2d(locations)])


def oracle_locations(path, scheme, aware):
    if aware:
        return path.points
    if scheme is Scheme.BEE_HIVE:
        return np.array([path.hive])
    start, end = (np.asarray(p, dtype=float) for p in path.endpoints)
    count = len(path)
    if count == 1:
        return start[None, :]
    return np.array([start + t / (count - 1) * (end - start) for t in range(count)])


def oracle_matrix(paths, config):
    locations = [oracle_locations(sp, config.scheme, config.location_aware) for sp in paths]
    if config.scheme in POINT_SCHEMES:
        return dense_rows(np.vstack(locations), config.b)
    return np.array([dense_rows(loc, config.b).mean(axis=0) for loc in locations])


@pytest.mark.parametrize("b", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("scheme, aware", [(s, True) for s in Scheme] + [
    (s, False) for s in Scheme if s in UNAWARE_SCHEMES])
def test_build_matrix_matches_dense_oracle(scheme, aware, b):
    config = SchemeConfig(scheme=scheme, m=10, b=b, gamma=0.1, p=7,
                          location_aware=aware, seed=40 + b)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    expected = oracle_matrix(paths, config)
    assert X.shape == expected.shape
    assert np.abs(X.dense() - expected).max() <= 1e-12
    # The operator without the matrix: Gram, X* g and X* (g - X a).
    rng = np.random.default_rng(b)
    a = rng.standard_normal(X.shape[1]) + 1j * rng.standard_normal(X.shape[1])
    g = rng.standard_normal(X.shape[0])
    for got, want in [(X.gram, expected.conj().T @ expected),
                      (X.adjoint(g), expected.conj().T @ g),
                      (X.adjoint(g * 1j), expected.conj().T @ (g * 1j)),
                      (X.adjoint(g, a), expected.conj().T @ (g - expected @ a))]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_unaware_single_sample_path_is_pinned_to_first_endpoint():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=1, b=2,
                          location_aware=False)
    path = PathSet(np.array([[0.4, 0.6]]), np.array([0, 1]),
                   endpoints=np.array([[[0.1, 0.0], [0.9, 1.0]]]))
    X = build_matrix(path, config).dense()
    assert np.array_equal(X, point_rows([Point(0.1, 0.0)], 2))


def test_point_tables_are_slices_of_the_double_bandwidth_tables():
    t = np.random.default_rng(78).random(500)
    for b in range(6):
        assert np.array_equal(phasors(t, 2 * b)[:, b:3 * b + 1], phasors(t, b))



# ------------------------------------------------ blocked kernel (oracles)

@pytest.mark.parametrize("b", [1, 3])
def test_point_gram_does_not_depend_on_the_block_size(monkeypatch, b):
    pts = np.random.default_rng(80).random((300, 2))
    dense = point_rows(pts, b)
    rng = np.random.default_rng(81)
    a = rng.standard_normal(dense.shape[1]) + 1j * rng.standard_normal(dense.shape[1])
    g = rng.standard_normal(len(pts))
    results = {}
    for block in (1, 7, len(pts)):
        monkeypatch.setattr(sensing, "BLOCK", block)
        X = Sensing.from_points(pts, b)
        results[block] = X.gram
        # X* g and the fused X* (g - X a) agree with the dense matrix at every block size.
        for got, want in [(X.adjoint(g), dense.conj().T @ g),
                          (X.adjoint(g, a), dense.conj().T @ (g - dense @ a))]:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for block in (1, 7):
        assert np.abs(results[block] - results[len(pts)]).max() <= EPS * len(pts)


@pytest.mark.parametrize("block", [48, sensing.BLOCK])
def test_blocked_mean_rows_match_per_path_means(monkeypatch, block):
    # A 48-point block is a group of three 16-point sub-blocks: paths straddle
    # groups, and most paths end in a zero-padded sub-block.
    monkeypatch.setattr(sensing, "BLOCK", block)
    for scheme in [s for s in Scheme if s not in POINT_SCHEMES]:
        config = SchemeConfig(scheme=scheme, m=15, b=3, gamma=0.04, p=21, seed=82)
        paths = generate_paths(config)
        X = build_matrix(paths, config).dense()
        for row, path in zip(X, paths):
            assert np.abs(row - point_rows(path.points, 3).mean(axis=0)).max() <= 4 * EPS
