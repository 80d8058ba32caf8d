import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathfield.field import (BandlimitedField, cos_sin, generate_random_field, product_map,
                             real_sum, weights)
from real_basis import point_rows, power_table, real_coeffs

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def make_field(b, assignments):
    """Field with the given {(k, l): value} coefficients, mirror filled in."""
    size = 2 * b + 1
    grid = np.zeros((size, size), dtype=complex)
    for (k, l), v in assignments.items():
        grid[k + b, l + b] = v
        grid[-k + b, -l + b] = np.conj(v)
    return BandlimitedField(b=b, coeffs=grid)


def test_negative_bandwidth_rejected():
    # A float or bool b once passed, and evaluate or the draw then raised a TypeError.
    for b in (-1, 1.5, True, 2.0):
        with pytest.raises(ValueError, match="^bandwidth b must be an integer >= 0$"):
            generate_random_field(b, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^bandwidth b must be an integer >= 0$"):
            BandlimitedField(b=b, coeffs=np.zeros((4, 4)))
    assert BandlimitedField(b=np.int64(0), coeffs=np.ones((1, 1))).evaluate(0.3, 0.4) == 1.0


def test_b0_field_is_single_real_coefficient():
    field = generate_random_field(0, np.random.default_rng(5))
    assert field.coeffs.shape == (1, 1)
    assert field.coeffs[0, 0].imag == 0.0
    assert field.n == 1


def test_b1_conjugate_symmetry():
    field = generate_random_field(1, np.random.default_rng(7))
    a = field.coeffs
    assert a[0, 0] == np.conj(a[2, 2])  # a[-1,-1] = conj(a[1,1])
    assert np.array_equal(a, a[::-1, ::-1].conj())


def test_same_seed_is_bitwise_identical():
    f1 = generate_random_field(4, np.random.default_rng(123))
    f2 = generate_random_field(4, np.random.default_rng(123))
    assert np.array_equal(f1.coeffs, f2.coeffs)


def test_different_seeds_differ():
    f1 = generate_random_field(2, np.random.default_rng(1))
    f2 = generate_random_field(2, np.random.default_rng(2))
    assert not np.array_equal(f1.coeffs, f2.coeffs)


def test_constant_field():
    field = make_field(2, {(0, 0): 1.0})
    pts = np.random.default_rng(0).random((20, 2))
    values = field.evaluate(pts[:, 0], pts[:, 1])
    assert np.allclose(values, 1.0, atol=1e-12)


def test_single_cosine():
    field = make_field(1, {(1, 0): 0.5})
    assert field.evaluate(0.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert field.evaluate(0.25, 0.0) == pytest.approx(0.0, abs=1e-12)
    x = np.linspace(0, 1, 17)
    assert np.allclose(field.evaluate(x, np.zeros_like(x)), np.cos(2 * np.pi * x), atol=1e-12)


def test_origin_value_is_coefficient_sum():
    field = generate_random_field(3, np.random.default_rng(11))
    total = field.coeffs.ravel().sum()
    assert field.evaluate(0.0, 0.0) == pytest.approx(total.real, abs=1e-10)
    assert abs(total.imag) < 1e-12


def test_periodicity():
    field = generate_random_field(3, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    pts = rng.random((100, 2)) * 3.0 - 1.0
    base = field.evaluate(pts[:, 0], pts[:, 1])
    assert np.allclose(field.evaluate(pts[:, 0] + 1.0, pts[:, 1]), base, atol=1e-10)
    assert np.allclose(field.evaluate(pts[:, 0], pts[:, 1] + 1.0), base, atol=1e-10)


def test_imaginary_residual_bound():
    field = generate_random_field(4, np.random.default_rng(9))
    rng = np.random.default_rng(10)
    pts = rng.random((1000, 2))
    residual = np.abs((point_rows(pts, 4) @ field.coeffs.ravel()).imag)
    bound = 1e-10 * field.n * np.abs(field.coeffs).max()
    assert residual.max() <= bound


def test_linearity():
    rng = np.random.default_rng(21)
    f1 = generate_random_field(2, rng)
    f2 = generate_random_field(2, rng)
    alpha, beta = 0.7, -1.3
    combined = BandlimitedField(b=2, coeffs=alpha * f1.coeffs + beta * f2.coeffs)
    pts = np.random.default_rng(22).random((50, 2))
    lhs = combined.evaluate(pts[:, 0], pts[:, 1])
    rhs = alpha * f1.evaluate(pts[:, 0], pts[:, 1]) + beta * f2.evaluate(pts[:, 0], pts[:, 1])
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_asymmetric_coefficients_rejected():
    def grid(entries):
        values = np.zeros((3, 3), dtype=complex)
        for index, value in entries.items():
            values[index] = value
        return values

    for coeffs in [
        grid({(2, 2): 1.0 + 1.0j}),  # mirror at [0, 0] left at zero
        # An infinite coefficient once made the tolerance infinite: this
        # asymmetric grid was accepted, and evaluate returned nan.
        grid({(0, 0): np.inf, (0, 2): np.inf, (2, 0): np.inf, (2, 2): np.inf, (0, 1): 1.0,
              (2, 1): 5.0}),
        grid({(0, 0): np.inf, (2, 2): np.inf}),  # symmetric, but not finite
        grid({(1, 1): np.nan}),
    ]:
        with pytest.raises(ValueError, match="symmetric"):
            BandlimitedField(b=1, coeffs=coeffs)


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        BandlimitedField(b=1, coeffs=np.zeros((2, 2), dtype=complex))


def test_coefficients_are_immutable():
    field = generate_random_field(1, np.random.default_rng(4))
    with pytest.raises(ValueError):
        field.coeffs[0, 0] = 0.0


@pytest.mark.parametrize("b", [0, 1, 3, 10, 20])
def test_phasors_match_the_exponential_oracle(b):
    # The real table cos/sin 2 pi k t comes from the phasor exp(j 2 pi t) by a
    # recurrence whose error grows with k like the angle rounding of the
    # direct 2 pi t k product: both stay below 1e-13 for |t| <= 2, k <= 20.
    k = np.arange(b + 1)
    t = np.random.default_rng(b).uniform(-1.0, 2.0, 2000)
    table = cos_sin(np.exp(2j * np.pi * t), b)
    assert table.shape == (2000, 2 * b + 1)
    angles = 2 * np.pi * np.multiply.outer(t, k)
    assert np.abs(table - np.c_[np.cos(angles), np.sin(angles[:, 1:])]).max() <= 1e-13
    scalar = cos_sin(np.exp(2j * np.pi * t[7]), b)
    assert scalar.shape == (2 * b + 1,)
    assert np.array_equal(scalar, table[7])
    # Harmonic 0 is exactly cos 0 = 1; sin 0 = 0 has no column.
    assert np.array_equal(table[:, 0], np.ones(2000))


def test_half_tables_are_the_nonnegative_columns_of_the_full_tables():
    # A narrower table is the k <= b cosine and sine columns of a wider one,
    # bit for bit, whatever the shape of the phasors.
    u = np.exp(2j * np.pi * np.random.default_rng(79).uniform(-1.0, 2.0, 500))
    wide = cos_sin(u, 5)
    for b in range(6):
        assert np.array_equal(cos_sin(u, b), np.c_[wide[:, :b + 1], wide[:, 6:6 + b]])
    grid = u.reshape(20, 25)
    assert np.array_equal(cos_sin(grid, 3), cos_sin(u, 3).reshape(20, 25, 7))
    assert np.array_equal(cos_sin(u[4], 3), cos_sin(u, 3)[4])


@pytest.mark.parametrize("b", range(5))
def test_coordinates_are_the_dense_real_coefficients(b):
    # Re(V a V^T), against the dense unitary Q = (V kron V)* of tests/real_basis.py.
    field = generate_random_field(b, np.random.default_rng(30 + b))
    a = field.coeffs.ravel()
    assert np.abs(field.coordinates - real_coeffs(a)).max() <= 1e-15 * np.abs(a).max()
    with pytest.raises(ValueError):
        field.coordinates[0] = 0.0


@pytest.mark.parametrize("b", range(5))
def test_coordinates_keep_the_norm(b):
    # V is unitary, so the real coordinates keep ||a|| (Parseval).
    field = generate_random_field(b, np.random.default_rng(60 + b))
    norm = np.linalg.norm(field.coeffs)
    assert abs(np.linalg.norm(field.coordinates) - norm) <= 4 * EPS * norm


def test_real_sum_at_b0_is_the_constant_field():
    # The one coordinate at b = 0 is a[0, 0], the field's value at every point.
    u = np.exp(2j * np.pi * np.random.default_rng(31).uniform(-1.0, 2.0, (2, 50)))
    assert np.array_equal(real_sum(np.array([3.25]), *cos_sin(u, 0)), np.full(50, 3.25))


@pytest.mark.parametrize("b", range(5))
def test_tensor_basis_is_orthonormal(b):
    # phi_i(x) phi_j(y), the rows W * (t_x^T t_y), on the (4b+2)^2 grid whose
    # mean is the exact integral of a degree-2b trigonometric polynomial.
    N = 4 * b + 2
    tables = cos_sin(np.exp(2j * np.pi * np.arange(N) / N), b)
    rows = (weights(b) * tables[:, None, :, None] * tables[None, :, None, :]).reshape(N * N, -1)
    assert np.abs(rows.T @ rows / N ** 2 - np.eye((2 * b + 1) ** 2)).max() <= 1e-13


@pytest.mark.parametrize("b", [0, 1, 3, 10])
def test_product_map_is_the_product_to_sum_identities(b):
    A = product_map(b)
    assert A.shape == ((2 * b + 1) ** 2, 4 * b + 1)
    assert set(np.unique(A)) <= {-0.5, 0.0, 0.5, 1.0}
    u = np.exp(2j * np.pi * np.random.default_rng(70 + b).uniform(-1.0, 2.0, 300))
    t, t2 = cos_sin(u, b), cos_sin(u, 2 * b)
    products = (t[:, :, None] * t[:, None, :]).reshape(len(u), -1)
    assert np.abs(products - t2 @ A.T).max() <= 8 * EPS
    with pytest.raises(ValueError):
        A[0, 0] = 0.0


# (x shape, y shape) pairs: scalars, one array against a scalar, and a broadcast grid.
SHAPES = [((), ()), ((7,), ()), ((), (5,)), ((3, 1), (4,)), ((6,), (6,))]


@PROPERTY
@given(b=st.integers(0, 6), seed=st.integers(0, 2**32 - 1), shapes=st.sampled_from(SHAPES))
def test_evaluate_matches_the_full_table_oracle(b, seed, shapes):
    # evaluate contracts the cos/sin tables with W times the field's real
    # coordinates; the oracle sums every (k, l) term of the complex tables and
    # drops the imaginary part.
    rng = np.random.default_rng(seed)
    field = generate_random_field(b, rng)
    x, y = (rng.uniform(-1.0, 2.0, shape) if shape else float(rng.uniform(-1.0, 2.0))
            for shape in shapes)
    got = field.evaluate(x, y)
    grid_x, grid_y = np.broadcast_arrays(x, y)
    points = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    want = (point_rows(points, b, power_table) @ field.coeffs.ravel()).real.reshape(grid_x.shape)
    if not shapes[0] and not shapes[1]:
        assert type(got) is float
    else:
        assert got.shape == np.broadcast_shapes(*shapes)
    scale = np.abs(field.coeffs).sum()
    assert np.abs(got - want).max() <= 4 * EPS * scale
    # Against one np.exp per entry the angles round apart too, by at most
    # eps |2 pi k t| per axis in each table.
    dense = (point_rows(points, b) @ field.coeffs.ravel()).real.reshape(grid_x.shape)
    assert np.abs(got - dense).max() <= (4 + 16 * np.pi * b) * EPS * scale
