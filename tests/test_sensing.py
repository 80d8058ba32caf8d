import numpy as np
import pytest

from pathfield.field import harmonics
from pathfield.paths import (
    POINT_SCHEMES,
    UNAWARE_SCHEMES,
    ConfigurationError,
    Point,
    SamplePath,
    Scheme,
    SchemeConfig,
    generate_paths,
    line_path,
)
from pathfield.sensing import (
    SensingMatrix,
    build_matrix,
    point_rows,
    unaware_locations,
)


def averaged_matrix(points, b):
    """The one-row sensing matrix of a single averaging path over `points`."""
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=1, b=b)
    return build_matrix([SamplePath(points=points)], config).entries


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


# ------------------------------------------------------- unaware locations

def test_unaware_locations_endpoints_and_midpoint():
    locs = unaware_locations(Point(0, 0), Point(1, 0), 3)
    assert np.array_equal(locs, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])


def test_unaware_locations_equispaced():
    locs = unaware_locations(Point(0.12, 0.9), Point(0.77, 0.05), 17)
    diffs = np.diff(locs, axis=0)
    assert np.allclose(diffs, diffs[0], atol=1e-15)
    assert np.array_equal(locs[0], [0.12, 0.9])
    assert np.array_equal(locs[-1], [0.77, 0.05])


def test_unaware_locations_needs_two_points():
    with pytest.raises(ConfigurationError):
        unaware_locations(Point(0, 0), Point(1, 1), 1)


# ------------------------------------------------------------ build_matrix

def test_scattered_matrix_is_point_exact():
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=30, b=2, seed=0)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    assert X.shape == (30, 25)
    assert np.array_equal(X.entries, point_rows(np.vstack([p.points for p in paths]), 2))
    assert np.allclose(np.abs(X.entries), 1.0, atol=1e-12)


def test_line_points_matrix_has_row_per_sample():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=10, b=1, gamma=0.05, seed=1)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    assert X.shape == (sum(len(p) for p in paths), 9)
    assert np.array_equal(X.entries, point_rows(np.vstack([p.points for p in paths]), 1))


@pytest.mark.parametrize("scheme", [
    Scheme.LINE_BOUNDARY_AVG, Scheme.LINE_INNER_AVG, Scheme.RANDOM_WALK,
    Scheme.DIRECTED_BOUNDARY, Scheme.DIRECTED_INNER, Scheme.BEE_HIVE,
])
def test_averaging_schemes_have_row_per_path(scheme):
    config = SchemeConfig(scheme=scheme, m=12, b=1, gamma=0.08, p=8, seed=2)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    assert X.shape == (12, 9)
    assert (np.abs(X.entries) <= 1.0 + 1e-12).all()
    for row, path in zip(X.entries, paths):
        assert np.array_equal(row, point_rows(path.points, 1).mean(axis=0))


def test_column_count_for_every_kind():
    for scheme, aware in [
        (Scheme.SCATTERED, True), (Scheme.LINE_BOUNDARY_POINTS, True),
        (Scheme.LINE_BOUNDARY_POINTS, False), (Scheme.LINE_BOUNDARY_AVG, False),
        (Scheme.BEE_HIVE, True), (Scheme.BEE_HIVE, False),
    ]:
        config = SchemeConfig(scheme=scheme, m=9, b=2, gamma=0.1, p=6,
                              location_aware=aware, seed=3)
        X = build_matrix(generate_paths(config), config)
        assert X.entries.shape[1] == 25
        # Columns follow harmonics(2): the (0, 0) column is the constant mean.
        assert np.allclose(X.entries[:, 12], 1.0, atol=1e-12)


def test_unaware_line_points_rows_match_sample_counts():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=8, b=1, gamma=0.05,
                          location_aware=False, seed=4)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    assert X.shape[0] == sum(len(p) for p in paths)
    first = paths[0]
    expected = point_rows(unaware_locations(*first.endpoints, len(first)), 1)
    assert np.array_equal(X.entries[:len(first)], expected)


def test_unaware_averaged_kind():
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=7, b=1, gamma=0.05,
                          location_aware=False, seed=5)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    assert X.shape == (7, 9)
    for row, path in zip(X.entries, paths):
        expected = point_rows(unaware_locations(*path.endpoints, len(path)), 1).mean(axis=0)
        assert np.array_equal(row, expected)


def test_unaware_hive_matrix_equals_scattered_matrix_at_hives():
    config = SchemeConfig(scheme=Scheme.BEE_HIVE, m=25, b=2, gamma=0.04, p=12,
                          location_aware=False, seed=6)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    hives = np.asarray([p.hive for p in paths], dtype=float)
    assert np.array_equal(X.entries, point_rows(hives, 2))


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
    bare = [SamplePath(points=np.array([[0.1, 0.2], [0.3, 0.4]]))]
    with pytest.raises(ConfigurationError, match="endpoints"):
        build_matrix(bare, config)


def test_build_matrix_rejects_empty_path_list():
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=1, b=1)
    with pytest.raises(ValueError):
        build_matrix([], config)


# ------------------------------------- aware/unaware convergence (oracle)

def test_averaged_row_converges_to_unaware_row_as_gamma_shrinks():
    """Dense-quadrature oracle: as spacing shrinks, the random-point mean and
    the equispaced mean both approach the segment's exact phasor integral."""
    b = 2
    b1, b2 = Point(0.05, 0.1), Point(0.9, 0.85)
    quad = point_rows(unaware_locations(b1, b2, 20_001), b).mean(axis=0)
    gaps_aware = []
    gaps_oracle = []
    for i, gamma in enumerate((0.05, 0.01, 0.002)):
        path = line_path(b1, b2, gamma, np.random.default_rng(100 + i))
        aware = averaged_matrix(path.points, b)[0]
        unaware = point_rows(unaware_locations(b1, b2, len(path)), b).mean(axis=0)
        gaps_aware.append(np.abs(aware - unaware).max())
        gaps_oracle.append(np.abs(aware - quad).max())
    assert gaps_aware[0] > gaps_aware[1] > gaps_aware[2]
    assert gaps_oracle[0] > gaps_oracle[1] > gaps_oracle[2]


# ------------------------------------------------------------ serialization

def test_matrix_csv_export(tmp_path):
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=4, b=1, seed=9)
    X = build_matrix(generate_paths(config), config)
    target = tmp_path / "matrix.csv"
    X.to_csv(target)
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 1 + 4 * 9
    row, col, re, im = lines[1].split(",")
    assert (row, col) == ("0", "0")
    assert complex(float(re), float(im)) == X.entries[0, 0]


def test_sensing_matrix_shape_validation():
    with pytest.raises(ValueError):
        SensingMatrix(entries=np.ones((3, 5), dtype=complex), b=1)


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
    assert np.abs(X.entries - expected).max() <= 1e-12


def test_unaware_single_sample_path_is_pinned_to_first_endpoint():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=1, b=2,
                          location_aware=False)
    path = SamplePath(points=[[0.4, 0.6]], endpoints=(Point(0.1, 0.0), Point(0.9, 1.0)))
    X = build_matrix([path], config)
    assert np.array_equal(X.entries, point_rows([Point(0.1, 0.0)], 2))
