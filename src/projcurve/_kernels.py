"""Hot numeric kernels: batched Horner evaluation and grid sweeps.

The kernels are plain numpy.  They keep their historical ``*_numpy`` names,
which the benchmark's trace wraps; the plain names are aliases.

The kernels take whole families on a batch axis: ``polyval_grid`` takes
(K, L) rows, ``fs_derivative_grid`` (B, P, L) curves and
``pairwise_fs_grid`` (..., P, M) sampled curves.  The grid sweeps of
``position`` and ``normality``, the Zalcman samples and the hyperplane
normalization cut a family into blocks of at most ``_EVAL_BLOCK`` complex
values per ``polyval_grid`` call.  A kernel works elementwise along the
batch and reduces only along other axes, so no bit of an item depends on
the batch it rides in.
"""

import numpy as np

# Complex values one polyval_grid call of a grid sweep may produce (256 KiB):
# whole hyperplane tuples (subsets x points) or whole curves (curve and
# derivative rows, or components, x points) per block, at least one.  Small
# enough that a block stays in cache: a blow-up family of n = 3 at 81 x 81
# points sweeps one curve per block.
_EVAL_BLOCK = 1 << 14


def pow2_factors(top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each modulus in ``top`` is finite and positive, and the
    power of two 2**-e that brings such a top into [0.5, 1), 1.0 for the
    others.  e is clamped at -1021 so that 2**-e stays finite, which leaves
    a subnormal top in [2**-53, 0.5).

    Scaling by a power of two is exact, and the Fubini-Study quantities do
    not depend on scale, so the kernels keep every bit while tiny or huge
    coordinates no longer underflow or overflow in the squared norms.
    """
    finite = (0.0 < top) & (top < np.inf)
    e = np.maximum(np.frexp(np.where(finite, top, 0.5))[1], -1021)
    return finite, np.ldexp(1.0, -e)


def polyval_grid_numpy(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Evaluate K padded polynomials at M points: (K, L) x (M,) -> (K, M),
    every row at the same points; or (K, L) x (K, M) -> (K, M), row k at
    its own points ``pts[k]``.

    Coefficients are ascending; rows may be zero-padded on the right.
    """
    K, L = coeffs.shape
    out = np.zeros((K, pts.shape[-1]), dtype=np.complex128)
    for l in range(L - 1, -1, -1):
        out *= pts
        out += coeffs[:, l, None]
    return out


def _cross_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{i<j} |a_i b_j - a_j b_i|^2 over the rows (axis -2) of two
    (..., P, M) arrays."""
    P = a.shape[-2]
    num = np.zeros(a[..., 0, :].shape, dtype=np.float64)
    for i in range(P):
        for j in range(i + 1, P):
            cross = a[..., i, :] * b[..., j, :] - a[..., j, :] * b[..., i, :]
            num += np.abs(cross) ** 2
    return num


def fs_derivative_grid_numpy(comp: np.ndarray, dcomp: np.ndarray,
                             pts: np.ndarray) -> np.ndarray:
    """Fubini-Study derivative of B curves at M points: (B, P, L) and
    (B, P, L-1) x (M,) -> (B, M).

    ``comp``/``dcomp`` hold each curve's n+1 = P component polynomials and
    their formal derivatives, zero-padded to a common length.  Both are
    evaluated with one ``polyval_grid`` call, the derivatives padded by a
    zero column, which changes no bit; one allocation for both keeps the
    allocator from returning and re-faulting the pages of each call.  The
    numerator is the cross-term (Lagrange identity) form, which is exact
    when curve and derivative are parallel; the naive norm-product form
    loses half the digits to cancellation there.
    """
    B, P, L = comp.shape
    rows = np.zeros((2, B, P, L), dtype=np.complex128)
    rows[0] = comp
    rows[1, :, :, :dcomp.shape[2]] = dcomp
    v, dv = polyval_grid_numpy(rows.reshape(2 * B * P, L),
                               pts).reshape(2, B, P, -1)
    s2 = np.sum(np.abs(v) ** 2, axis=1)
    return np.sqrt(_cross_terms(v, dv)) / s2


def pairwise_fs_grid_numpy(vals_a: np.ndarray, vals_b: np.ndarray) -> np.ndarray:
    """Fubini-Study distance between sampled curves, pointwise:
    (..., P, M) x (..., P, M) -> (..., M), item by item along the batch.

    An item is the (P, M) homogeneous coordinates of one curve at M points.
    Each item is scaled first by its own ``pow2_factors`` power of two; an
    item whose largest modulus is 0 or not finite is left as it is.
    """
    scaled = []
    for vals in (vals_a, vals_b):
        finite, factor = pow2_factors(np.abs(vals).max(
            axis=(-2, -1), keepdims=True, initial=0.0))
        scaled.append(np.where(finite, vals * factor, vals))
    a, b = scaled
    na = np.sqrt(np.sum(np.abs(a) ** 2, axis=-2))
    nb = np.sqrt(np.sum(np.abs(b) ** 2, axis=-2))
    return np.sqrt(_cross_terms(a, b)) / (na * nb)


polyval_grid = polyval_grid_numpy
fs_derivative_grid = fs_derivative_grid_numpy
pairwise_fs_grid = pairwise_fs_grid_numpy
