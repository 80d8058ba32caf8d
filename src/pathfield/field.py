"""2D bandlimited field represented by a finite Fourier series.

The field is

    g(x, y) = sum_{k=-b..b} sum_{l=-b..b} a[k,l] exp(j 2 pi (k x + l y))

with conjugate-symmetric coefficients, a[-k,-l] = conj(a[k,l]), so the series
is real valued on the whole plane. A bandwidth-b field carries (2b+1)^2
independent real parameters. The series is 1-periodic in both coordinates, so
evaluation outside the unit square uses the periodic extension.

A value is summed over the coefficient rows k >= 0 only, with rows k > 0
doubled (`real_sum`). The full complex series it is checked against, one
phasor row per point times ``coeffs.ravel()``, lives in ``tests/real_basis.py``.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["BandlimitedField", "generate_random_field", "harmonics", "half_phasors", "phasors",
           "real_sum"]


def harmonics(b: int) -> np.ndarray:
    """All (k, l) harmonic pairs of a bandwidth-b field, shape ((2b+1)^2, 2).

    Row-major with k as the outer index, k and l each running -b..b: the
    order of ``BandlimitedField.coeffs.ravel()``. Sensing pairs harmonic i
    with its mirror n-1-i to form its real cos/sin coordinates.
    """
    if b < 0:
        raise ValueError("bandwidth b must be >= 0")
    k = np.arange(-b, b + 1)
    kk, ll = np.meshgrid(k, k, indexing="ij")
    return np.column_stack([kk.ravel(), ll.ravel()])


def _powers(table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row k = exp(j 2 pi t)^k, made as row k - 1 times exp(j 2 pi t): one
    contiguous row per k, so a value gets the same arithmetic wherever it sits."""
    table[0] = 1.0
    step = np.exp(2j * np.pi * t)
    for k in range(1, len(table)):
        np.multiply(table[k - 1], step, out=table[k])
    return table


def half_phasors(t, b: int) -> np.ndarray:
    """Columns k = 0..b of ``phasors(t, b)``, bit for bit: shape t.shape + (b+1,)."""
    t = np.asarray(t, dtype=float)
    table = _powers(np.empty((b + 1, t.size), dtype=complex), t.ravel())
    return table.T.reshape(t.shape + (b + 1,))


def phasors(t, b: int) -> np.ndarray:
    """Per-axis phasor table exp(j 2 pi t k) for k = -b..b, shape t.shape + (2b+1,).

    A 2-D phasor exp(j 2 pi (k x + l y)) is the product of the x table's k
    entry and the y table's l entry; sums over a real field's harmonics take
    ``half_phasors`` for x (``real_sum``). Column k > 0 is column k - 1 times
    exp(j 2 pi t) and column -k its conjugate, so a wider table's columns -b..b
    equal this one exactly.
    """
    t = np.asarray(t, dtype=float)
    table = np.empty((2 * b + 1, t.size), dtype=complex)
    _powers(table[b:], t.ravel())
    np.conjugate(table[:b:-1], out=table[:b])
    return table.T.reshape(t.shape + (2 * b + 1,))


def real_sum(half: np.ndarray, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
    """Re sum_{k,l} a[k,l] ex[k] ey[l] per row for conjugate-symmetric a, from its
    rows k = 0..b (``half``, (b+1) x (2b+1)) and a half x table ``ex``: a's (-k, -l)
    term conjugates its (k, l) term, so rows k > 0 count twice."""
    folded = half * np.r_[1.0, np.full(len(half) - 1, 2.0)][:, None]
    return np.einsum("pl,pl->p", ex @ folded, ey).real


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

    def evaluate(self, x, y):
        """Real field value g(x, y); scalars or broadcastable arrays."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        vals = real_sum(self.coeffs[self.b:], half_phasors(x.ravel(), self.b),
                        phasors(y.ravel(), self.b))
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
    kk, ll = np.meshgrid(k, k, indexing="ij")
    mirror = (kk < 0) | ((kk == 0) & (ll < 0))
    coeffs = draw.copy()
    coeffs[b, b] = draw[b, b].real
    coeffs[mirror] = coeffs[::-1, ::-1].conj()[mirror]
    return BandlimitedField(b=b, coeffs=coeffs)
