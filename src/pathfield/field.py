"""2D bandlimited field represented by a finite Fourier series, and its real basis.

The field is

    g(x, y) = sum_{k=-b..b} sum_{l=-b..b} a[k,l] exp(j 2 pi (k x + l y))

with conjugate-symmetric coefficients, a[-k,-l] = conj(a[k,l]), so the series
is real valued on the whole plane. A bandwidth-b field carries (2b+1)^2
independent real parameters. The series is 1-periodic in both coordinates, so
evaluation outside the unit square uses the periodic extension.

This module owns the real basis every other module works in. Harmonic i of
``harmonics(b)`` pairs with its mirror n-1-i, and with c = (n-1)/2 the index of
(0, 0) the coefficients' real coordinates are ``BandlimitedField.coordinates``,
Q* a = [sqrt 2 Re a_i; a_c; sqrt 2 Im a_i] over i < c. `cos_sin` makes the real
per-axis tables cos 2 pi k t and sin 2 pi k t, k = 0..K, from powers of the
phasors u = exp(j 2 pi t). One index map per b (`pairs`) reads real coordinates
off the product of two such tables, and its transpose (`coordinate_matrix`)
turns coordinates into the matrix M with t_x M t_y^T their series at each point
(`real_sum`): `evaluate`, sensing's readings and its R a share that M. The
dense Q and complex series they are checked against are ``tests/real_basis.py``.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = ["BandlimitedField", "coordinate_matrix", "cos_sin", "generate_random_field", "harmonics",
           "pairs", "real_sum"]

_SQRT_2 = math.sqrt(2.0)


def harmonics(b: int) -> np.ndarray:
    """All (k, l) harmonic pairs of a bandwidth-b field, shape ((2b+1)^2, 2).

    Row-major with k as the outer index, k and l each running -b..b: the
    order of ``BandlimitedField.coeffs.ravel()``. The real coordinates pair
    harmonic i with its mirror n-1-i (`pairs`).
    """
    if b < 0:
        raise ValueError("bandwidth b must be >= 0")
    k = np.arange(-b, b + 1)
    kk, ll = np.meshgrid(k, k, indexing="ij")
    return np.column_stack([kk.ravel(), ll.ravel()])


def cos_sin(u, K: int) -> np.ndarray:
    """Real per-axis table [cos 2 pi k t; sin 2 pi k t] for k = 0..K from
    u = exp(j 2 pi t): shape u.shape + (2K+2,), the K+1 cosines first.

    Power k of u is power k-1 times u, one contiguous table row per k, so a
    value gets the same arithmetic wherever it sits and a wider table's cosines
    and sines k = 0..K equal this one's exactly.
    """
    u = np.asarray(u)
    flat = u.ravel()
    table = np.empty((2 * K + 2, flat.size))
    table[0], table[K + 1] = 1.0, 0.0
    power = np.ones(flat.size, dtype=complex)
    for k in range(1, K + 1):
        power = power * flat
        table[k], table[K + 1 + k] = power.real, power.imag
    return table.T.reshape(u.shape + (2 * K + 2,))


@lru_cache
def pairs(b: int) -> tuple:
    """The map from a kernel product to real coordinates at bandwidth b: the
    (2b+2)^2 product P of the ``cos_sin`` tables, raveled, gives coordinate j as
    w[j] (P[i1[j]] + s[j] P[i2[j]]): sqrt 2 (CC -+ SS) for a cosine, sqrt 2
    (SC +- CS) for a sine and CC - SS at (0, 0). Returns read-only (i1, i2, s, w)."""
    c, W = (2 * b + 1) ** 2 // 2, 2 * b + 2
    u, v = harmonics(b)[::-1][:c + 1].T  # the mirrors n-1-i of i < c, then (0, 0)
    cos, sin = u * W + abs(v), (b + 1 + u) * W + abs(v)  # CC, SC; SS, CS lie b+1 on
    sign = np.where(v < 0, 1.0, -1.0)  # D[u, +-v] = CC -+ SS + j (SC +- CS)
    i1, i2 = np.concatenate([cos, sin[:c]]), np.concatenate([sin, cos[:c]]) + b + 1
    s, w = np.concatenate([sign, -sign[:c]]), np.where(np.arange(2 * c + 1) == c, 1.0, _SQRT_2)
    for array in (i1, i2, s, w):
        array.setflags(write=False)  # shared by every call at this b
    return i1, i2, s, w


def coordinate_matrix(a) -> np.ndarray:
    """The real (2b+2) x (2b+2) M with t_x M t_y^T the series of real
    coordinates a at each point, for the ``cos_sin`` tables t_x, t_y of x and y:
    a through the transpose of `pairs`' map, two bincounts."""
    b = (math.isqrt(len(a)) - 1) // 2
    i1, i2, s, w = pairs(b)
    size = (2 * b + 2) ** 2
    return (np.bincount(i1, w * a, size) + np.bincount(i2, w * s * a, size)).reshape(2 * b + 2, -1)


def real_sum(M: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """t_x M t_y^T per row: at each point, the series of the coordinates M came from."""
    return np.einsum("pi,pi->p", tx @ M, ty)


@dataclass(frozen=True)
class BandlimitedField:
    """Bandwidth parameter plus the complex coefficient grid a[k+b, l+b]."""

    b: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.b < 0:
            raise ValueError("bandwidth b must be >= 0")
        coeffs = np.array(self.coeffs, dtype=complex)
        size = 2 * self.b + 1
        if coeffs.shape != (size, size):
            raise ValueError(f"expected a {size}x{size} coefficient grid, got {coeffs.shape}")
        scale = float(np.abs(coeffs).max())  # not finite if a coefficient is not
        if not math.isfinite(scale) or (np.abs(coeffs - coeffs[::-1, ::-1].conj()).max()
                                        > 1e-12 * max(1.0, scale)):
            raise ValueError("coefficient grid must be finite and conjugate symmetric")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        """Coefficient count (2b+1)^2: the degree-of-freedom count of the field."""
        return (2 * self.b + 1) ** 2

    @cached_property
    def coordinates(self) -> np.ndarray:
        """Q* a, the coefficients in real coordinates (module docstring); read-only."""
        a, c = self.coeffs.ravel(), self.n // 2
        h = a[:c:-1]
        coords = np.concatenate([h.real * _SQRT_2, [a[c].real], -h.imag * _SQRT_2])
        coords.setflags(write=False)
        return coords

    def evaluate(self, x, y):
        """Real field value g(x, y); scalars or broadcastable arrays."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        u = np.exp(2j * np.pi * np.stack([x.ravel(), y.ravel()]))
        vals = real_sum(coordinate_matrix(self.coordinates), *cos_sin(u, self.b))
        return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


def generate_random_field(b: int, rng: np.random.Generator) -> BandlimitedField:
    """Random field with standard-normal real and imaginary coefficient parts.

    The half grid with (k, l) lexicographically above (0, 0) is drawn
    independently and mirrored by conjugation; a[0, 0] keeps only its real
    part. No magnitude decay is applied across harmonics: conditioning
    studies depend on sample locations only, and the flat profile keeps
    every harmonic equally weighted in recovery-error metrics.
    """
    if b < 0:
        raise ValueError("bandwidth b must be >= 0")
    size = 2 * b + 1
    draw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    k = np.arange(-b, b + 1)
    mirror = (k[:, None] < 0) | ((k[:, None] == 0) & (k < 0))  # [k, l] by broadcasting
    coeffs = draw.copy()
    coeffs[b, b] = draw[b, b].real
    coeffs[mirror] = coeffs[::-1, ::-1].conj()[mirror]
    return BandlimitedField(b=b, coeffs=coeffs)
