import tracemalloc

import numpy as np
import pytest

from pathfield.estimation import (
    SINGULAR_RATIO,
    SingularSystemError,
    condition_number,
    measure,
    reconstruct_and_score,
)
from pathfield.field import BandlimitedField, fourier_sum, generate_random_field
from pathfield.paths import (
    POINT_SCHEMES,
    UNAWARE_SCHEMES,
    PathSet,
    Scheme,
    SchemeConfig,
    generate_paths,
)
from pathfield.sensing import build_matrix, point_rows

EPS = np.finfo(float).eps


def constant_field(b, value):
    size = 2 * b + 1
    grid = np.zeros((size, size), dtype=complex)
    grid[b, b] = value
    return BandlimitedField(b=b, coeffs=grid)


def uniform_grid_points(b):
    """The (2b+1) x (2b+1) grid with spacing 1/(2b+1)."""
    side = 2 * b + 1
    axis = np.arange(side) / side
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


# ------------------------------------------------------------------ measure

def test_measure_constant_field_noiseless():
    fld = constant_field(2, 3.25)
    for scheme in (Scheme.SCATTERED, Scheme.LINE_INNER_AVG, Scheme.BEE_HIVE):
        config = SchemeConfig(scheme=scheme, m=6, b=2, gamma=0.1, p=5, seed=0)
        paths = generate_paths(config)
        meas = measure(fld, paths, config, np.random.default_rng(0))
        assert np.allclose(meas, 3.25, atol=1e-10)


def test_measure_point_scheme_matches_evaluate():
    fld = generate_random_field(2, np.random.default_rng(1))
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=40, b=2, seed=2)
    paths = generate_paths(config)
    meas = measure(fld, paths, config, np.random.default_rng(3))
    pts = np.vstack([p.points for p in paths])
    assert np.array_equal(meas, fld.evaluate(pts[:, 0], pts[:, 1]))


def test_measure_length_matches_rows():
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=9, b=1, gamma=0.05, seed=4)
    paths = generate_paths(config)
    fld = generate_random_field(1, np.random.default_rng(5))
    meas = measure(fld, paths, config, np.random.default_rng(6))
    X = build_matrix(paths, config)
    assert len(meas) == X.shape[0]


def test_path_averaging_shrinks_noise_variance():
    # zero field, pure noise: the per-path mean of p readings has variance
    # sigma^2 / p
    p = 16
    sigma = 0.5
    fld = constant_field(0, 0.0)
    path = PathSet(np.random.default_rng(7).random((p, 2)), np.array([0, p]))
    config = SchemeConfig(scheme=Scheme.LINE_INNER_AVG, m=1, b=0, gamma=0.1,
                          noise_sigma=sigma, seed=8)
    rng = np.random.default_rng(9)
    draws = np.array([measure(fld, path, config, rng)[0] for _ in range(10_000)])
    expected = sigma ** 2 / p
    assert abs(draws.var() - expected) < 0.1 * expected


def test_measure_evaluates_the_field_in_blocks():
    # ~52k readings at b = 10: one whole per-axis table of them would take
    # P x 21 x 16 B = ~17 MB. measure works through the kernel's blocks.
    config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=1764, b=10, gamma=0.05,
                          noise_sigma=0.01, seed=30)
    paths = generate_paths(config)
    fld = generate_random_field(10, np.random.default_rng(31))
    tracemalloc.start()
    try:
        meas = measure(fld, paths, config, np.random.default_rng(32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(meas) == len(paths.points)
    assert peak < len(paths.points) * 21 * 16 / 2


def loop_measure(fld, paths, config, rng):
    """Reference: evaluate, add noise and average path by path."""
    sigma = config.noise_sigma
    per_path = []
    for sp in paths:
        readings = np.atleast_1d(fld.evaluate(sp.points[:, 0], sp.points[:, 1]))
        if sigma > 0:
            readings = readings + rng.normal(0.0, sigma, size=readings.shape)
        per_path.append(readings if config.scheme in POINT_SCHEMES else [readings.mean()])
    return np.concatenate(per_path)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_measure_matches_per_path_loop_and_rng_stream(scheme):
    fld = generate_random_field(2, np.random.default_rng(23))
    config = SchemeConfig(scheme=scheme, m=12, b=2, gamma=0.08, p=9,
                          noise_sigma=0.05, seed=24)
    paths = generate_paths(config)
    rng, ref_rng = np.random.default_rng(25), np.random.default_rng(25)
    meas = measure(fld, paths, config, rng)
    expected = loop_measure(fld, paths, config, ref_rng)
    assert meas.shape == expected.shape
    assert np.abs(meas - expected).max() <= 1e-12
    assert rng.random() == ref_rng.random()


# --------------------------------------------------------------- estimation

def test_exact_recovery_from_synthetic_measurements():
    rng = np.random.default_rng(10)
    fld = generate_random_field(1, rng)
    X = point_rows(rng.random((50, 2)), 1)
    g = (X @ fld.vector()).real
    assert reconstruct_and_score(fld, X, g) <= 1e-8


def test_square_orthogonal_case_matches_adjoint_formula():
    # on the uniform grid X*X = m I, so the estimate is X*g/m; for real g
    # those coefficients are conjugate symmetric, i.e. a real field
    b = 1
    X = point_rows(uniform_grid_points(b), b)
    rng = np.random.default_rng(11)
    g = rng.standard_normal(X.shape[0])
    adjoint = (X.conj().T @ g / X.shape[0]).reshape(2 * b + 1, 2 * b + 1)
    fld = BandlimitedField(b=b, coeffs=adjoint)
    assert reconstruct_and_score(fld, X, g) <= 1e-12


def test_underdetermined_rejected():
    rng = np.random.default_rng(12)
    X = point_rows(rng.random((5, 2)), 1)  # 5 rows, 9 cols
    with pytest.raises(ValueError, match="underdetermined"):
        reconstruct_and_score(generate_random_field(1, rng), X, np.zeros(5))


def test_measurement_length_mismatch_rejected():
    rng = np.random.default_rng(13)
    X = point_rows(rng.random((12, 2)), 1)
    with pytest.raises(ValueError, match="measurements"):
        reconstruct_and_score(generate_random_field(1, rng), X, np.zeros(11))


def test_rank_deficient_system_raises():
    # one location repeated: rank-1 matrix
    X = np.tile(point_rows(np.array([[0.3, 0.4]]), 1), (12, 1))
    fld = generate_random_field(1, np.random.default_rng(28))
    with pytest.raises(SingularSystemError):
        reconstruct_and_score(fld, X, np.zeros(12))


# --------------------------------------------------------- condition number

def test_condition_of_unitary_scaled_matrix_is_one():
    b = 2
    X = point_rows(uniform_grid_points(b), b)
    assert condition_number(X) == pytest.approx(1.0, abs=1e-10)


def test_condition_of_diagonal_matrix():
    assert condition_number(np.diag([2.0, 1.0])) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_dft_grid_orthogonality_oracle(b):
    # the uniform grid makes X*X exactly m I, hence condition number 1
    X = point_rows(uniform_grid_points(b), b)
    m, n = X.shape
    gram = X.conj().T @ X
    assert np.abs(gram - m * np.eye(n)).max() <= 1e-10 * m
    assert abs(condition_number(X) - 1.0) <= 1e-10


def test_gram_route_matches_svd_route():
    rng = np.random.default_rng(14)
    for _ in range(50):
        A = rng.standard_normal((50, 9)) + 1j * rng.standard_normal((50, 9))
        sv = np.linalg.svd(A, compute_uv=False)
        direct = sv.max() / sv.min()
        assert abs(condition_number(A) - direct) <= 1e-6 * direct


def test_condition_number_sentinel_for_singular():
    X = np.tile(point_rows(np.array([[0.3, 0.4]]), 1), (12, 1))
    assert condition_number(X) == np.inf


def test_one_singularity_rule_for_condition_and_solve():
    # diag(1, r) has sigma ratio r; the 9 x 9 diag(1, ..., 1, r) has the same
    # ratio and the column count of a b = 1 field, so the solve can be scored
    fld = generate_random_field(1, np.random.default_rng(29))

    def diag(ratio):
        return np.diag([1.0] * 8 + [ratio])

    # sigma ratio 2e-7 lies above the 1e-7 rule on both routes
    assert condition_number(np.diag([1.0, 2e-7])) == pytest.approx(5e6, rel=1e-9)
    assert condition_number(diag(2e-7)) == pytest.approx(5e6, rel=1e-9)
    assert reconstruct_and_score(fld, diag(2e-7), diag(2e-7) @ fld.vector()) <= 1e-8
    # sigma ratios 5e-8 and 1e-8 lie below it on both routes
    for ratio in (5e-8, 1e-8):
        assert condition_number(np.diag([1.0, ratio])) == np.inf
        assert condition_number(diag(ratio)) == np.inf
        with pytest.raises(SingularSystemError):
            reconstruct_and_score(fld, diag(ratio), np.ones(9))
    with pytest.raises(SingularSystemError):
        reconstruct_and_score(fld, np.zeros((9, 9)), np.zeros(9))
    assert condition_number(np.diag([1.0, 1e-6])) == pytest.approx(1e6, rel=1e-9)


def test_condition_number_rejects_zero_matrix():
    with pytest.raises(ValueError):
        condition_number(np.zeros((4, 4)))


def test_condition_number_at_least_one():
    rng = np.random.default_rng(15)
    for _ in range(20):
        X = point_rows(rng.random((30, 2)), 1)
        assert condition_number(X) >= 1.0


# ---------------------------------------------------- reconstruct_and_score

def test_noiseless_reconstruction_report():
    rng = np.random.default_rng(16)
    fld = generate_random_field(2, rng)
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=100, b=2, seed=17)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    meas = measure(fld, paths, config, np.random.default_rng(18))
    rel = reconstruct_and_score(fld, X, meas)
    assert condition_number(X) >= 1.0
    assert rel <= 1e-8
    assert rel * np.linalg.norm(fld.vector()) <= 1e-8


def test_noisy_reconstruction_has_positive_rmse():
    rng = np.random.default_rng(19)
    fld = generate_random_field(1, rng)
    config = SchemeConfig(scheme=Scheme.SCATTERED, m=60, b=1, noise_sigma=0.05, seed=20)
    paths = generate_paths(config)
    X = build_matrix(paths, config)
    meas = measure(fld, paths, config, np.random.default_rng(21))
    assert reconstruct_and_score(fld, X, meas) > 0.0


@pytest.mark.parametrize("scheme", [Scheme.SCATTERED, Scheme.DIRECTED_INNER])
def test_field_rmse_matches_grid_rmse(scheme):
    """Parseval oracle: rel * ||a|| is the RMSE over a 64 x 64 grid, exact for b < 32."""
    rng = np.random.default_rng(26)
    fld = generate_random_field(3, rng)
    config = SchemeConfig(scheme=scheme, m=120, b=3, gamma=0.05, noise_sigma=0.05, seed=27)
    paths = generate_paths(config, rng)
    X = build_matrix(paths, config)
    g = measure(fld, paths, config, rng)
    rel = reconstruct_and_score(fld, X, g)
    estimate = np.linalg.lstsq(X.dense(), g, rcond=None)[0].reshape(7, 7)
    axis = np.arange(64) / 64
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    gap = fourier_sum(estimate, gx, gy).real - fld.evaluate(gx, gy)
    grid_rmse = np.sqrt(np.mean(gap ** 2))
    assert rel * np.linalg.norm(fld.vector()) == pytest.approx(grid_rmse, rel=1e-10)


def test_noise_error_scales_with_pseudoinverse_norm():
    """LS error covariance oracle: E||a_hat - a||^2 = sigma^2 ||X^+||_F^2."""
    rng = np.random.default_rng(22)
    fld = generate_random_field(1, rng)
    X = point_rows(rng.random((40, 2)), 1)
    clean = (X @ fld.vector()).real
    norm = np.linalg.norm(fld.vector())
    pinv_norm_sq = np.linalg.norm(np.linalg.pinv(X), "fro") ** 2
    trials = 2000
    mses = {}
    for sigma in (0.01, 0.02, 0.04):
        sq = np.empty(trials)
        for t in range(trials):
            noisy = clean + rng.normal(0.0, sigma, size=clean.shape)
            sq[t] = (reconstruct_and_score(fld, X, noisy) * norm) ** 2
        mses[sigma] = sq.mean()
        assert abs(mses[sigma] - sigma ** 2 * pinv_norm_sq) <= 0.2 * sigma ** 2 * pinv_norm_sq
    assert abs(mses[0.04] / mses[0.01] - 16.0) <= 0.2 * 16.0


def oracle_check(config):
    """Check one trial's Gram, kappa and score against dense oracles; return
    the SVD kappa. The score must be within max(1e-10, 100 eps kappa) of
    lstsq's, the problem's own conditioning, as the solve is not lstsq."""
    rng = np.random.default_rng(config.seed)
    fld = generate_random_field(config.b, rng)
    paths = generate_paths(config, rng)
    X = build_matrix(paths, config)
    g = measure(fld, paths, config, rng)
    dense = X.dense()
    assert np.abs(X.gram - dense.conj().T @ dense).max() <= 1e-12 * len(dense)
    sv = np.linalg.svd(dense, compute_uv=False)
    kappa = sv[0] / sv[-1]
    cond = condition_number(X)
    if kappa * SINGULAR_RATIO > 1.0:
        assert cond == np.inf
        return kappa
    assert abs(cond - kappa) <= max(1e-12, 10 * EPS * kappa ** 2) * kappa
    truth = fld.vector()
    estimate = np.linalg.lstsq(dense, g, rcond=None)[0]
    oracle = np.linalg.norm(estimate - truth) / np.linalg.norm(truth)
    tol = max(1e-10, 100 * EPS * kappa)
    assert abs(reconstruct_and_score(fld, X, g) - oracle) <= tol * oracle, (config, kappa)
    return kappa


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_score_equals_lstsq_oracle(b):
    n = (2 * b + 1) ** 2
    cases = [(scheme, True) for scheme in Scheme]
    cases += [(scheme, False) for scheme in Scheme if scheme in UNAWARE_SCHEMES]
    for i, (scheme, aware) in enumerate(cases):
        for mult in (1.5, 2.0, 4.0):
            oracle_check(SchemeConfig(scheme=scheme, m=int(round(mult * n)), b=b, gamma=0.05,
                                      p=25, noise_sigma=0.01, location_aware=aware,
                                      seed=600 + i))


def test_score_matches_lstsq_on_ill_conditioned_walks():
    # b = 4 random walks at m = 1.5n reach kappa of 1e4 to 1e7
    kappas = [oracle_check(SchemeConfig(scheme=Scheme.RANDOM_WALK, m=122, b=4, gamma=0.05,
                                        noise_sigma=0.01, seed=seed))
              for seed in range(10)]
    assert max(kappas) > 1e6


def test_unaware_error_does_not_grow_with_more_paths():
    # doubling the path count on average helps the location-unaware solve
    def mean_err(m, trials=50):
        errs = []
        for t in range(trials):
            config = SchemeConfig(scheme=Scheme.LINE_BOUNDARY_POINTS, m=m, b=2,
                                  gamma=0.05, location_aware=False, seed=1000 + t)
            rng = np.random.default_rng(1000 + t)
            fld = generate_random_field(2, rng)
            paths = generate_paths(config, rng)
            X = build_matrix(paths, config)
            meas = measure(fld, paths, config, rng)
            errs.append(reconstruct_and_score(fld, X, meas))
        return np.mean(errs)

    assert mean_err(100) <= mean_err(50) * 1.02
