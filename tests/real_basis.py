"""Dense oracles for the phasor rows and the real coordinates of the sensing operator.

Q is built here from its definition, not from pathfield. Per axis the real
basis is phi = [1, sqrt 2 cos 2 pi k t, sqrt 2 sin 2 pi k t] for k = 1..b, and
the unitary V[i, k + b] gives exp(j 2 pi k t) = sum_i V[i, k + b] phi_i(t):
exp(+-j 2 pi k t) = (phi_k +- j phi_{b+k}) / sqrt 2. The harmonics (k, l) are
ordered k-major as ``coeffs.ravel()``, the real coordinates (i, j) i-major,
and Q = (V kron V)*. Q is unitary, so the sensing matrix R = X Q has the
singular values of the complex phasor matrix X, its rows are
phi_i(x) phi_j(y), and the coordinates of a coefficient vector a are Q* a.

``point_rows`` forms the complex phasor rows that pathfield never forms, from
one ``np.exp`` per entry (``exp_table``), and ``dense_matrix`` a `Sensing`
value's whole real matrix R from them. Checks of summation error alone take
``power_table``, which repeats the arithmetic of pathfield's tables.
"""

import math

import numpy as np


def harmonics(b: int) -> np.ndarray:
    """All (k, l) harmonic pairs of a bandwidth-b field, shape ((2b+1)^2, 2),
    k-major: the order of ``BandlimitedField.coeffs.ravel()``."""
    k = np.arange(-b, b + 1)
    return np.column_stack([np.repeat(k, len(k)), np.tile(k, len(k))])


def axis_basis(b: int) -> np.ndarray:
    """The per-axis unitary V, (2b+1) x (2b+1)."""
    V = np.zeros((2 * b + 1, 2 * b + 1), dtype=complex)
    V[0, b] = 1.0
    for k in range(1, b + 1):
        V[k, b + k] = V[k, b - k] = 1 / np.sqrt(2)
        V[b + k, b + k], V[b + k, b - k] = 1j / np.sqrt(2), -1j / np.sqrt(2)
    return V


def real_basis(n: int) -> np.ndarray:
    """The unitary n x n Q = (V kron V)*, for n = (2b+1)^2."""
    V = axis_basis((math.isqrt(n) - 1) // 2)
    return np.kron(V, V).conj().T


# The tables below are (len(t), 2b+1) views of k-major arrays, and so are the
# rows made from them: a mean over points runs along memory, as numpy's
# pairwise sum, whose error stays at eps level for thousands of points.

def exp_table(t, b: int) -> np.ndarray:
    """exp(j 2 pi k t) for k = -b..b and a 1-D t, one np.exp per entry."""
    return np.exp(2j * np.pi * np.multiply.outer(np.arange(-b, b + 1), t)).T


def power_table(t, b: int) -> np.ndarray:
    """``exp_table`` as powers of u = exp(j 2 pi t): entry k > 0 is entry k-1
    times u and entry -k its conjugate, as pathfield builds its tables."""
    u = np.exp(2j * np.pi * np.asarray(t, dtype=float))
    powers = [np.ones_like(u)]
    for _ in range(b):
        powers.append(powers[-1] * u)
    half = np.array(powers)
    return np.concatenate([half[:0:-1].conj(), half]).T


def point_rows(points, b: int, table=exp_table) -> np.ndarray:
    """Phasor rows exp(j 2 pi (k x + l y)) over `harmonics` (b) for points of shape (m, 2)."""
    ex, ey = (table(t, b) for t in np.atleast_2d(np.asarray(points, dtype=float)).T)
    return (ex[:, :, None] * ey[:, None, :]).reshape(len(ex), -1)


def dense_matrix(S) -> np.ndarray:
    """The m x n matrix R of a `Sensing` value: its mean rows as they are, or its
    point rows, at the locations (mod 1) its phasors give, pushed through Q."""
    if S.rows is not None:
        return S.rows
    points = np.angle(S.phasors) / (2 * np.pi)
    return real_rows(point_rows(points, (math.isqrt(S.shape[1]) - 1) // 2))


def real_rows(X) -> np.ndarray:
    """X Q for complex phasor rows X, whose imaginary part vanishes."""
    R = np.asarray(X) @ real_basis(np.shape(X)[-1])
    assert np.abs(R.imag).max() <= 1e-12
    return R.real


def complex_rows(R) -> np.ndarray:
    """R Q*: rows in real coordinates back in phasor coordinates."""
    return np.asarray(R) @ real_basis(np.shape(R)[-1]).conj().T


def real_coeffs(a) -> np.ndarray:
    """Q* a for conjugate-symmetric coefficients a, whose result is real."""
    c = real_basis(len(a)).conj().T @ a
    assert np.abs(c.imag).max() <= 1e-12 * max(1.0, np.abs(a).max())
    return c.real


def complex_coeffs(c) -> np.ndarray:
    """Q c: coefficients in phasor coordinates from real coordinates c."""
    return real_basis(len(c)) @ c


def realified(A) -> np.ndarray:
    """The real matrix [[Re A, -Im A], [Im A, Re A]]: A's singular values, each twice."""
    return np.block([[A.real, -A.imag], [A.imag, A.real]])
