"""2D bandlimited field represented by a finite Fourier series.

The field is

    g(x, y) = sum_{k=-b..b} sum_{l=-b..b} a[k,l] exp(j 2 pi (k x + l y))

with conjugate-symmetric coefficients, a[-k,-l] = conj(a[k,l]), so the series
is real valued on the whole plane. A bandwidth-b field carries (2b+1)^2
independent real parameters. The series is 1-periodic in both coordinates, so
evaluation outside the unit square uses the periodic extension.

Values are computed from the phasors u = exp(j 2 pi (x, y)) of the points:
`cos_sin` makes the real per-axis tables cos 2 pi k t and sin 2 pi k t, k >= 0,
from powers of u; `fold` turns the coefficient rows k >= 0, rows k > 0
doubled, into one real matrix M, and `real_sum` puts M between the x and y
tables. The full complex series it is checked against, one phasor row per
point times ``coeffs.ravel()``, lives in ``tests/real_basis.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["BandlimitedField", "cos_sin", "fold", "generate_random_field", "harmonics", "real_sum"]


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


def fold(half: np.ndarray) -> np.ndarray:
    """The real (2b+2) x (2b+2) matrix M with t_x M t_y^T = Re sum_{k,l} a[k,l]
    exp(j 2 pi (k x + l y)) for conjugate-symmetric a, from its rows k = 0..b
    (``half``, (b+1) x (2b+1)) and the ``cos_sin`` tables t_x, t_y of x and y:
    a's (-k, -l) term conjugates its (k, l) term, so rows k > 0 count twice."""
    b = len(half) - 1
    folded = half * np.where(np.arange(b + 1) > 0, 2.0, 1.0)[:, None]
    pos, neg = folded[:, b:], np.zeros((b + 1, b + 1), dtype=complex)  # l = 0..b
    neg[:, 1:] = folded[:, :b][:, ::-1]  # l = 0, -1..-b
    # Re(a exp(j(kx + ly))) for l = +-v in cos/sin products of kx and vy.
    return np.concatenate([np.concatenate([pos.real + neg.real, neg.imag - pos.imag], 1),
                           np.concatenate([-pos.imag - neg.imag, neg.real - pos.real], 1)])


def real_sum(M: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """t_x M t_y^T per row: the series of ``fold``'s coefficients at each point."""
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

    def evaluate(self, x, y):
        """Real field value g(x, y); scalars or broadcastable arrays."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        u = np.exp(2j * np.pi * np.stack([x.ravel(), y.ravel()]))
        vals = real_sum(fold(self.coeffs[self.b:]), *cos_sin(u, self.b))
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
