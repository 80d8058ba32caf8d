"""2D bandlimited field represented by a finite Fourier series, and its real basis.

The field is

    g(x, y) = sum_{k=-b..b} sum_{l=-b..b} a[k,l] exp(j 2 pi (k x + l y))

with conjugate-symmetric coefficients, a[-k,-l] = conj(a[k,l]), so the series
is real valued on the whole plane. A bandwidth-b field carries (2b+1)^2
independent real parameters. The series is 1-periodic in both coordinates, so
evaluation outside the unit square uses the periodic extension.

This module owns the real basis every other module works in: the tensor
product phi_i(x) phi_j(y) of one orthonormal basis per axis,
phi = [1, sqrt 2 cos 2 pi k t, sqrt 2 sin 2 pi k t] for k = 1..b. `cos_sin`
makes the per-axis table t = [1, cos 2 pi k t, sin 2 pi k t] from powers of the
phasor u = exp(j 2 pi t), so the basis at a point is the outer product
t_x^T t_y scaled by W = w^T w, w = [1, sqrt 2, ..., sqrt 2] (`weights`). With
the per-axis unitary V of exp(j 2 pi k t) = sum_i V[i, k] phi_i(t), a field's
real coordinates are T = Re(V a V^T) (``BandlimitedField.coordinates``), and
its value at a point is t_x (W * T) t_y^T (`real_sum`). A product of two
entries of one table is a sum of entries of the table at twice the bandwidth
(`product_map`). The dense Q = (V kron V)* and complex series all this is
checked against are ``tests/real_basis.py``.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .paths import _integer

__all__ = ["BandlimitedField", "cos_sin", "generate_random_field", "product_map", "real_sum",
           "weights"]

_SQRT_2 = math.sqrt(2.0)


def cos_sin(u, K: int) -> np.ndarray:
    """Real per-axis table [1; cos 2 pi k t; sin 2 pi k t] for k = 1..K from
    u = exp(j 2 pi t): shape u.shape + (2K+1,), the K+1 cosines (k = 0..K) first.

    Power k of u is power k-1 times u, one contiguous table row per k, so a
    value gets the same arithmetic wherever it sits and a wider table's cosines
    and sines k <= K equal this one's exactly.
    """
    u = np.asarray(u)
    flat = u.ravel()
    table = np.empty((2 * K + 1, flat.size))
    table[0] = 1.0
    power = np.ones(flat.size, dtype=complex)
    for k in range(1, K + 1):
        power = power * flat
        table[k], table[K + k] = power.real, power.imag
    return table.T.reshape(u.shape + (2 * K + 1,))


@lru_cache
def weights(b: int) -> np.ndarray:
    """W = w^T w for w = [1, sqrt 2, ..., sqrt 2] (2b+1 entries), the norms that make
    the ``cos_sin`` tables orthonormal: 1 at (0, 0), sqrt 2 on the rest of row
    and column 0, and 2 elsewhere. Read-only."""
    W = np.full((2 * b + 1, 2 * b + 1), 2.0)
    W[0], W[:, 0], W[0, 0] = _SQRT_2, _SQRT_2, 1.0
    W.setflags(write=False)  # shared by every call at this b
    return W


@lru_cache
def product_map(b: int) -> np.ndarray:
    """The ((2b+1)^2, 4b+1) A with t[i] t[j] = sum_g A[(i, j), g] t2[g] for the
    ``cos_sin`` tables t at b and t2 at 2b of one point, entries 0, +-1/2 and 1
    (the product-to-sum identities). A product has frequencies up to 2b, so on
    the N = 4b+1 points s/N, where the columns of t2 are orthogonal with squared
    norms N (the constant) and N/2, it is its own projection onto t2; A is that
    projection rounded to halves. Read-only."""
    N = 4 * b + 1
    u = np.exp(2j * np.pi * np.arange(N) / N)
    t, t2 = cos_sin(u, b), cos_sin(u, 2 * b)
    norms = np.full(N, N / 2)
    norms[0] = N
    products = (t[:, :, None] * t[:, None, :]).reshape(N, -1)
    A = np.round(2 * (products.T @ t2) / norms) / 2 + 0.0  # + 0.0 turns -0.0 into 0.0
    A.setflags(write=False)  # shared by every call at this b
    return A


@lru_cache
def _axis_basis(b: int) -> np.ndarray:
    """The unitary V[i, k + b] with exp(j 2 pi k t) = sum_i V[i, k + b] phi_i(t):
    exp(+-j 2 pi k t) = (sqrt 2 cos 2 pi k t +- j sqrt 2 sin 2 pi k t) / sqrt 2."""
    k = np.arange(1, b + 1)
    V = np.zeros((2 * b + 1, 2 * b + 1), dtype=complex)
    V[0, b] = 1.0
    V[k, b + k] = V[k, b - k] = 1 / _SQRT_2
    V[b + k, b + k], V[b + k, b - k] = 1j / _SQRT_2, -1j / _SQRT_2
    V.setflags(write=False)
    return V


def real_sum(a: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """The series of real coordinates a at each point, t_x (W * T) t_y^T per row
    of the ``cos_sin`` tables tx and ty, with T the (2b+1) x (2b+1) grid of a."""
    W = weights(tx.shape[-1] // 2)
    return np.einsum("pi,pi->p", tx @ (W * a.reshape(W.shape)), ty)


def _check_bandwidth(b) -> None:
    if not (_integer(b) and b >= 0):
        raise ValueError("bandwidth b must be an integer >= 0")


@dataclass(frozen=True)
class BandlimitedField:
    """Bandwidth parameter plus the complex coefficient grid a[k+b, l+b]."""

    b: int
    coeffs: np.ndarray

    def __post_init__(self):
        _check_bandwidth(self.b)
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
        """T = Re(V a V^T) raveled, the coefficients in real coordinates (module
        docstring); read-only."""
        V = _axis_basis(self.b)
        coords = (V @ self.coeffs @ V.T).real.ravel()
        coords.setflags(write=False)
        return coords

    def evaluate(self, x, y):
        """Real field value g(x, y); scalars or broadcastable arrays."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        u = np.exp(2j * np.pi * np.stack([x.ravel(), y.ravel()]))
        vals = real_sum(self.coordinates, *cos_sin(u, self.b))
        return float(vals[0]) if x.ndim == 0 else vals.reshape(x.shape)


def generate_random_field(b: int, rng: np.random.Generator) -> BandlimitedField:
    """Random field with standard-normal real and imaginary coefficient parts.

    The half grid with (k, l) lexicographically above (0, 0) is drawn
    independently and mirrored by conjugation; a[0, 0] keeps only its real
    part. No magnitude decay is applied across harmonics: conditioning
    studies depend on sample locations only, and the flat profile keeps
    every harmonic equally weighted in recovery-error metrics.
    """
    _check_bandwidth(b)
    size = 2 * b + 1
    draw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    k = np.arange(-b, b + 1)
    mirror = (k[:, None] < 0) | ((k[:, None] == 0) & (k < 0))  # [k, l] by broadcasting
    coeffs = draw.copy()
    coeffs[b, b] = draw[b, b].real
    coeffs[mirror] = coeffs[::-1, ::-1].conj()[mirror]
    return BandlimitedField(b=b, coeffs=coeffs)
