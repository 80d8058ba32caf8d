"""2D bandlimited field represented by a finite Fourier series.

The field is

    g(x, y) = sum_{k=-b..b} sum_{l=-b..b} a[k,l] exp(j 2 pi (k x + l y))

with conjugate-symmetric coefficients, a[-k,-l] = conj(a[k,l]), so the series
is real valued on the whole plane. A bandwidth-b field carries (2b+1)^2
independent real parameters. The series is 1-periodic in both coordinates, so
evaluation outside the unit square uses the periodic extension.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["BandlimitedField", "generate_random_field", "harmonics", "phasors", "fourier_sum"]


def harmonics(b: int) -> np.ndarray:
    """All (k, l) harmonic pairs of a bandwidth-b field, shape ((2b+1)^2, 2).

    Row-major with k as the outer index, k and l each running -b..b. Sensing
    matrices use the same ordering for their columns, so coefficient vectors
    obtained from ``BandlimitedField.vector()`` line up with matrix columns.
    """
    if b < 0:
        raise ValueError("bandwidth b must be >= 0")
    k = np.arange(-b, b + 1)
    kk, ll = np.meshgrid(k, k, indexing="ij")
    return np.column_stack([kk.ravel(), ll.ravel()])


def phasors(t, b: int) -> np.ndarray:
    """Per-axis phasor table exp(j 2 pi t k) for k = -b..b, shape t.shape + (2b+1,).

    Every Fourier evaluation in the package is built from this table: a 2-D
    phasor exp(j 2 pi (k x + l y)) is the product of the x table's k entry and
    the y table's l entry.
    """
    k = np.arange(-b, b + 1)
    table = 2j * np.pi * np.multiply.outer(np.asarray(t, dtype=float), k)
    return np.exp(table, out=table)


def fourier_sum(coeffs: np.ndarray, x, y):
    """Unreduced complex series value at (x, y) for a (2b+1)x(2b+1) grid.

    Broadcasts over array inputs; returns a complex scalar for scalar inputs.
    The grid is indexed as coeffs[k + b, l + b].
    """
    coeffs = np.asarray(coeffs)
    size = coeffs.shape[0]
    if coeffs.shape != (size, size) or size % 2 == 0:
        raise ValueError("coefficient grid must be square with odd side")
    b = (size - 1) // 2
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    xf = np.broadcast_to(x, shape).ravel()
    yf = np.broadcast_to(y, shape).ravel()
    vals = ((phasors(xf, b) @ coeffs) * phasors(yf, b)).sum(axis=1)
    if shape == ():
        return complex(vals[0])
    return vals.reshape(shape)


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
        scale = max(1.0, float(np.abs(coeffs).max()))
        if not np.allclose(coeffs, coeffs[::-1, ::-1].conj(), rtol=0.0, atol=1e-12 * scale):
            raise ValueError("coefficient grid is not conjugate symmetric")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        """Coefficient count (2b+1)^2: the degree-of-freedom count of the field."""
        return (2 * self.b + 1) ** 2

    def vector(self) -> np.ndarray:
        """Coefficients flattened in the canonical ``harmonics`` ordering."""
        return self.coeffs.ravel()

    def evaluate(self, x, y):
        """Real field value g(x, y); scalars or broadcastable arrays."""
        return fourier_sum(self.coeffs, x, y).real


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
    kk, ll = np.meshgrid(k, k, indexing="ij")
    mirror = (kk < 0) | ((kk == 0) & (ll < 0))
    coeffs = draw.copy()
    coeffs[b, b] = draw[b, b].real
    coeffs[mirror] = coeffs[::-1, ::-1].conj()[mirror]
    return BandlimitedField(b=b, coeffs=coeffs)
