"""Hot numeric kernels: batched Horner evaluation and grid sweeps.

The kernels are plain numpy.  They keep their historical ``*_numpy`` names,
which the benchmark's trace wraps; the plain names are aliases.
"""

import numpy as np


def polyval_grid_numpy(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate K padded polynomials at M points: (K, L) x (M,) -> (K, M).

    Coefficients are ascending; rows may be zero-padded on the right.
    """
    K, L = coeffs.shape
    out = np.zeros((K, pts.shape[0]), dtype=np.complex128)
    for l in range(L - 1, -1, -1):
        out *= pts[None, :]
        out += coeffs[:, l][:, None]
    return out


def fs_derivative_grid_numpy(comp: np.ndarray, dcomp: np.ndarray,
                             pts: np.ndarray) -> np.ndarray:
    """Fubini-Study derivative of a curve at M points.

    ``comp``/``dcomp`` hold the n+1 component polynomials and their formal
    derivatives, zero-padded to a common length.  The numerator is the
    cross-term (Lagrange identity) form, which is exact when curve and
    derivative are parallel; the naive norm-product form loses half the
    digits to cancellation there.
    """
    v = polyval_grid_numpy(comp, pts)
    dv = polyval_grid_numpy(dcomp, pts)
    P = v.shape[0]
    num = np.zeros(pts.shape[0], dtype=np.float64)
    for i in range(P):
        for j in range(i + 1, P):
            cross = v[i] * dv[j] - v[j] * dv[i]
            num += np.abs(cross) ** 2
    s2 = np.sum(np.abs(v) ** 2, axis=0)
    return np.sqrt(num) / s2


def pairwise_fs_grid_numpy(vals_a: np.ndarray, vals_b: np.ndarray) -> np.ndarray:
    """Fubini-Study distance between two sampled curves, pointwise.

    Inputs are (n+1, M) arrays of homogeneous coordinates.
    """
    P = vals_a.shape[0]
    num = np.zeros(vals_a.shape[1], dtype=np.float64)
    for i in range(P):
        for j in range(i + 1, P):
            cross = vals_a[i] * vals_b[j] - vals_a[j] * vals_b[i]
            num += np.abs(cross) ** 2
    na = np.sqrt(np.sum(np.abs(vals_a) ** 2, axis=0))
    nb = np.sqrt(np.sum(np.abs(vals_b) ** 2, axis=0))
    return np.sqrt(num) / (na * nb)


polyval_grid = polyval_grid_numpy
fs_derivative_grid = fs_derivative_grid_numpy
pairwise_fs_grid = pairwise_fs_grid_numpy
