import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from pathfield.field import cos_sin, generate_random_field, real_sum, weights
from pathfield.paths import (
    POINT_SCHEMES,
    UNAWARE_SCHEMES,
    ConfigurationError,
    PathSet,
    Scheme,
    SchemeConfig,
    _line_paths,
    generate_paths,
)
from pathfield import sensing
from pathfield.sensing import Sensing, build_matrix
from real_basis import (complex_rows, dense_matrix, harmonics, point_rows, power_table, real_basis,
                        real_rows)

EPS = np.finfo(float).eps


def averaged_matrix(points, b):
    """The one-row sensing matrix of a single averaging path over `points`,
    in phasor coordinates."""
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=1, b=b)
    paths = PathSet(points, np.array([0, len(points)]))
    return complex_rows(dense_matrix(build_matrix(paths, config)))


def point_sensing(locations, b):
    """The point-row operator at (m, 2) `locations`."""
    return Sensing.from_phasors(np.exp(2j * np.pi * np.atleast_2d(locations)), b)


def point_matrix(locations, b):
    """Point rows at `locations` in the operator's real coordinates."""
    return dense_matrix(point_sensing(locations, b))


def one_location_row(location, b):
    """W (t_x t_y^T) raveled, from the `cos_sin` tables at one (x, y): the mean
    row of a path whose one location it is, bit for bit."""
    tx, ty = cos_sin(np.exp(2j * np.pi * np.asarray(location, dtype=float)), b)
    return (weights(b) * np.outer(tx, ty)).ravel()


# ------------------------------------------------------- real coordinates

@pytest.mark.parametrize("b", [0, 1, 2, 3, 4])
def test_real_basis_is_unitary_and_makes_field_coefficients_real(b):
    n = (2 * b + 1) ** 2
    Q = real_basis(n)
    assert np.abs(Q.conj().T @ Q - np.eye(n)).max() <= 1e-15
    a = generate_random_field(b, np.random.default_rng(b)).coeffs.ravel()
    coords = Q.conj().T @ a
    assert np.abs(coords.imag).max() <= 1e-15 * np.abs(a).max()
    assert np.linalg.norm(coords.real) == pytest.approx(np.linalg.norm(a), rel=1e-14)


def test_point_rows_in_real_coordinates_are_cos_const_sin():
    # A phasor row maps to phi(x) phi(y)^T, raveled, with the per-axis basis
    # phi = [1; sqrt 2 cos 2 pi k t; sqrt 2 sin 2 pi k t] for k = 1, 2.
    x, y = 0.3, 0.7
    phi = [np.r_[1.0, np.sqrt(2) * np.cos(2 * np.pi * np.r_[1, 2] * t),
                 np.sqrt(2) * np.sin(2 * np.pi * np.r_[1, 2] * t)] for t in (x, y)]
    expected = np.outer(*phi).ravel()
    assert np.abs(point_matrix([(x, y)], 2)[0] - expected).max() <= 1e-14
    # The operator never forms the row; R^T g with g = [1] at one point is that row.
    row = point_sensing([(x, y)], 2).adjoint(np.ones(1))
    assert np.abs(row - expected).max() <= 1e-14


@pytest.mark.parametrize("b", range(7))
def test_map_and_its_transpose_match_the_dense_rows(monkeypatch, b):
    # R^T g with g = [1] at one point reads that point's row of R off its
    # product t_x^T t_y, scaled by W. R^T (g - R a) forms R a as t_x (W * a) t_y^T;
    # real_sum's values are R a.
    rng = np.random.default_rng(90 + b)
    points = rng.random((20, 2))
    dense = real_rows(point_rows(points, b, power_table))
    for point, want in zip(points, dense):
        assert np.abs(point_sensing(point, b).adjoint(np.ones(1)) - want).max() <= 4 * EPS
    readings = []

    def recorded(*args):
        readings.append(real_sum(*args))
        return readings[-1]

    monkeypatch.setattr(sensing, "real_sum", recorded)
    a = rng.standard_normal(dense.shape[1])
    point_sensing(points, b).adjoint(np.zeros(len(points)), a)
    (got,) = readings
    assert (np.abs(got - dense @ a) <= 4 * EPS * (np.abs(dense) @ np.abs(a))).all()


def test_rows_must_be_real():
    with pytest.raises(TypeError, match="real"):
        Sensing.from_rows(point_rows([(0.3, 0.4)], 1))


# ------------------------------------------------------------------ rows

def test_point_row_at_origin_is_all_ones():
    row = point_rows([(0.0, 0.0)], 3)[0]
    assert row.shape == (49,)
    assert np.allclose(row, 1.0, atol=1e-12)


def test_point_row_alternates_with_k_at_half_x():
    row = point_rows([(0.5, 0.0)], 1)[0]
    expected = np.array([(-1.0) ** k for k, _ in harmonics(1)])
    assert np.allclose(row, expected, atol=1e-12)


def test_point_rows_unit_modulus():
    pts = np.random.default_rng(0).random((200, 2))
    rows = point_rows(pts, 2)
    assert np.allclose(np.abs(rows), 1.0, atol=1e-12)


def test_averaged_row_of_single_point_equals_point_row():
    # An averaging path of one reading still makes a mean row, the point row
    # of its one location.
    points = np.array([[0.3, 0.7]])
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=1, b=2)
    X = dense_matrix(build_matrix(PathSet(points, np.array([0, 1])), config))
    assert np.array_equal(X[0], one_location_row(points[0], 2))
    assert np.abs(X - point_matrix(points, 2)).max() <= 4 * EPS


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
    X = dense_matrix(build_matrix(paths, config))
    assert X.shape == (30, 25)
    assert np.array_equal(X, point_matrix(np.vstack([p.points for p in paths]), 2))
    assert np.allclose(np.abs(complex_rows(X)), 1.0, atol=1e-12)


def test_line_points_matrix_has_row_per_sample():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=10, b=1, gamma=0.05, seed=1)
    paths = generate_paths(config)
    X = dense_matrix(build_matrix(paths, config))
    assert X.shape == (sum(len(p) for p in paths), 9)
    assert np.array_equal(X, point_matrix(np.vstack([p.points for p in paths]), 1))


@pytest.mark.parametrize("scheme", [
    Scheme.LINE_BOUNDARY_AVG, Scheme.LINE_INNER_AVG, Scheme.RANDOM_WALK,
    Scheme.DIRECTED_BOUNDARY, Scheme.DIRECTED_INNER, Scheme.BEE_HIVE,
])
def test_averaging_schemes_have_row_per_path(scheme):
    config = SchemeConfig(scheme=scheme, m=12, b=1, gamma=0.08, p=8, seed=2)
    paths = generate_paths(config)
    X = complex_rows(dense_matrix(build_matrix(paths, config)))
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
        X = dense_matrix(build_matrix(generate_paths(config), config))
        assert X.shape[1] == 25
        # Column 0 is phi_0(x) phi_0(y) = 1, so mean rows read 1 there too.
        assert np.allclose(X[:, 0], 1.0, atol=1e-12)


def test_unaware_line_points_rows_match_sample_counts():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=8, b=1, gamma=0.05,
                          location_aware=False, seed=4)
    paths = generate_paths(config)
    X = dense_matrix(build_matrix(paths, config))
    assert X.shape[0] == sum(len(p) for p in paths)
    first = paths[0]
    expected = point_matrix(np.linspace(*first.endpoints, len(first)), 1)
    assert np.array_equal(X[:len(first)], expected)


def test_unaware_averaged_kind():
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=7, b=1, gamma=0.05,
                          location_aware=False, seed=5)
    paths = generate_paths(config)
    X = complex_rows(dense_matrix(build_matrix(paths, config)))
    assert X.shape == (7, 9)
    for row, path in zip(X, paths):
        expected = point_rows(np.linspace(*path.endpoints, len(path)), 1).mean(axis=0)
        assert np.abs(row - expected).max() <= 4 * EPS


def test_the_config_alone_decides_point_or_mean_rows():
    # SchemeConfig.point_rows is the one row-type rule. At gamma = 100 each
    # line has one reading, so every path one location, aware or not, and its
    # cell still makes mean rows.
    configs = [SchemeConfig(scheme=scheme, m=9, b=1, gamma=0.1, p=6, location_aware=aware, seed=2)
               for aware in (True, False) for scheme in Scheme
               if aware or scheme in UNAWARE_SCHEMES]
    one_reading = [SchemeConfig(scheme="line_inner_avg", m=9, b=1, gamma=100.0, seed=2,
                                location_aware=aware) for aware in (True, False)]
    for config in configs + one_reading:
        paths = generate_paths(config)
        assert (build_matrix(paths, config).rows is None) == config.point_rows, str(config)
        assert config not in one_reading or (paths.counts == 1).all()
    assert [(c.scheme, c.location_aware) for c in configs if c.point_rows] == [
        (Scheme.SCATTERED, True), (Scheme.LINE_BOUNDARY_POINTS, True),
        (Scheme.LINE_BOUNDARY_POINTS, False), (Scheme.BEE_HIVE, False)]


def test_unaware_hive_matrix_equals_scattered_matrix_at_hives():
    config = SchemeConfig(scheme=Scheme.BEE_HIVE, m=25, b=2, gamma=0.04, p=12,
                          location_aware=False, seed=6)
    paths = generate_paths(config)
    X = dense_matrix(build_matrix(paths, config))
    hives = np.asarray([p.hive for p in paths], dtype=float)
    assert np.array_equal(X, point_matrix(hives, 2))


@pytest.mark.parametrize("scheme", [
    Scheme.SCATTERED, Scheme.RANDOM_WALK, Scheme.DIRECTED_BOUNDARY, Scheme.DIRECTED_INNER,
])
def test_unaware_mode_rejected_where_undefined(scheme):
    # The config itself refuses, so no paths are drawn for a build that cannot
    # run; it is frozen, so build_matrix never meets an unaware config of these.
    message = (f"^scheme {scheme.value} has no location-unaware variant; supported: "
               "line_boundary_points, line_boundary_avg, line_inner_avg, bee_hive$")
    with pytest.raises(ConfigurationError, match=message):
        SchemeConfig(scheme=scheme, m=5, b=1, gamma=0.1, p=6, location_aware=False, seed=7)
    config = SchemeConfig(scheme=scheme, m=5, b=1, gamma=0.1, p=6, seed=7)
    with pytest.raises(ConfigurationError, match=message):
        replace(config, location_aware=False)
    with pytest.raises(FrozenInstanceError):
        config.location_aware = False


def test_unaware_mode_requires_endpoint_metadata():
    bare = PathSet(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([0, 2]))
    for scheme, message in ((Scheme.LINE_INNER_AVG, "endpoints"),
                            (Scheme.BEE_HIVE, "bee-and-hive paths must carry their hive center")):
        config = SchemeConfig(scheme=scheme, m=2, b=1, gamma=0.1, location_aware=False, seed=8)
        with pytest.raises(ConfigurationError, match=message):
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
    b1, b2 = (0.05, 0.1), (0.9, 0.85)
    quad = point_rows(np.linspace(b1, b2, 20_001), b).mean(axis=0)
    gaps_aware = []
    gaps_oracle = []
    for i, gamma in enumerate((0.05, 0.01, 0.002)):
        (path,) = _line_paths(np.array([b1]), np.array([b2]), gamma,
                              np.random.default_rng(100 + i))
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
    Q = real_basis(expected.shape[1])
    assert X.shape == expected.shape
    # The phasor matrix is real in the tensor cos/sin coordinates.
    assert np.abs((expected @ Q).imag).max() <= 1e-12
    assert np.abs(dense_matrix(X) - (expected @ Q).real).max() <= 1e-12
    # The operator without the matrix: Gram, R^T g and R^T (g - R a), each the
    # complex oracle pushed through Q.
    rng = np.random.default_rng(b)
    a = rng.standard_normal(X.shape[1])
    g = rng.standard_normal(X.shape[0])
    back = Q.conj().T
    for got, want in [(X.gram, back @ expected.conj().T @ expected @ Q),
                      (X.adjoint(g), back @ expected.conj().T @ g),
                      (X.adjoint(g, a), back @ expected.conj().T @ (g - expected @ Q @ a))]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_unaware_single_sample_path_is_pinned_to_first_endpoint():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=1, b=2,
                          location_aware=False)
    path = PathSet(np.array([[0.4, 0.6]]), np.array([0, 1]),
                   endpoints=np.array([[[0.1, 0.0], [0.9, 1.0]]]))
    X = dense_matrix(build_matrix(path, config))
    assert np.array_equal(X[0], one_location_row((0.1, 0.0), 2))
    assert np.abs(X - point_matrix([(0.1, 0.0)], 2)).max() <= 4 * EPS


def test_point_tables_are_slices_of_the_double_bandwidth_tables():
    # The Gram's bandwidth-2b tables hold the adjoint's bandwidth-b tables as
    # their first cosine and sine columns.
    u = np.exp(2j * np.pi * np.random.default_rng(78).random(500))
    for b in range(6):
        double = cos_sin(u, 2 * b)
        assert np.array_equal(np.c_[double[:, :b + 1], double[:, 2 * b + 1:3 * b + 1]],
                              cos_sin(u, b))



# ------------------------------------------------ blocked kernel (oracles)

@pytest.mark.parametrize("b", [1, 3])
def test_point_gram_does_not_depend_on_the_block_size(monkeypatch, b):
    pts = np.random.default_rng(80).random((300, 2))
    dense = real_rows(point_rows(pts, b))
    rng = np.random.default_rng(81)
    a = rng.standard_normal(dense.shape[1])
    g = rng.standard_normal(len(pts))
    results = {}
    for block in (1, 7, len(pts)):
        monkeypatch.setattr(sensing, "BLOCK", block)
        X = point_sensing(pts, b)
        results[block] = X.gram
        # X* g and the fused X* (g - X a) agree with the dense matrix at every block size.
        for got, want in [(X.adjoint(g), dense.T @ g),
                          (X.adjoint(g, a), dense.T @ (g - dense @ a))]:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for block in (1, 7):
        assert np.abs(results[block] - results[len(pts)]).max() <= EPS * len(pts)


@pytest.mark.parametrize("block", [48, sensing.BLOCK])
def test_blocked_mean_rows_match_per_path_means(monkeypatch, block):
    # With a 48-point block, two 21-point walks share a group and the shorter
    # line paths are zero-padded to their group's longest; every path over 48
    # points (up to 709 in the first case, 281 lines in the second) is cut
    # into 48-point pieces that add into its row. The second case, m = 8n at
    # gamma = 0.02, has a 2632-point walk, which the default block also cuts,
    # where a sum that is not blocked drifts past the bound.
    monkeypatch.setattr(sensing, "BLOCK", block)
    for m, gamma, seed in ((15, 0.04, 82), (392, 0.02, 83)):
        for scheme in [s for s in Scheme if s not in POINT_SCHEMES]:
            config = SchemeConfig(scheme=scheme, m=m, b=3, gamma=gamma, p=21, seed=seed)
            paths = generate_paths(config)
            X = complex_rows(dense_matrix(build_matrix(paths, config)))
            for row, path in zip(X, paths):
                want = point_rows(path.points, 3, power_table).mean(axis=0)
                assert np.abs(row - want).max() <= 4 * EPS


def test_mean_rows_of_a_long_path_stay_within_a_few_block_tables():
    # One path of about 10 BLOCK points at b = 10: its whole per-axis tables
    # would take 10 times both axes' BLOCK-point tables. The kernel holds a
    # few of those at a time, however long the path.
    P = 10 * sensing.BLOCK + 7
    paths = PathSet(np.random.default_rng(84).random((P, 2)), np.array([0, P]))
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=1, b=10)
    paths.phasors  # the trial's one exponential per coordinate, made before the build
    tracemalloc.start()
    try:
        X = build_matrix(paths, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.shape == (1, 441)
    assert peak < 4 * (2 * sensing.BLOCK * 21 * 8)


def test_mean_rows_peak_below_twice_the_rows():
    # b = 10, m = 8n: the 3528 x 441 rows take 12.4 MB. Each group of paths
    # adds its real coordinates into its own rows, so the peak stays near the
    # rows themselves (1.3 times here; 3.1 when the sums were complex halves).
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_AVG, m=8 * 441, b=10, gamma=0.05, seed=85)
    paths = generate_paths(config)
    phasors = paths.phasors
    tracemalloc.start()
    try:
        rows = np.empty((len(paths), config.n))
        sensing._mean_rows(phasors, paths.offsets, config.b, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (8 * 441, 441)
    assert peak < 2 * rows.nbytes
