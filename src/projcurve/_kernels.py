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

A Fubini-Study sweep allocates its block arrays once and every block
reuses them: ``polyval_grid`` writes into a caller's ``out``,
``fs_derivative_grid`` takes the arrays of ``fs_workspace``, and the
Zalcman samples are scaled in place by ``fs_scale`` and measured by
``fs_distance``, whose composition is ``pairwise_fs_grid``.  Each buffer
is filled by in-place ufuncs that give the bits of the plain expressions
they replace.
"""

import numpy as np

# Complex values one polyval_grid call of a grid sweep may produce (256 KiB):
# whole hyperplane tuples (subsets x points) or whole curves (components,
# or curve and derivative rows, x points) per block, at least one.  Small
# enough that a block stays in cache.  A curve larger than a block makes a
# block of its own: a blow-up curve of n = 3 at 81 x 81 points is 52,488
# values, about 3.2 blocks, and the sweep reuses its buffers from curve to
# curve.
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


def polyval_grid_numpy(coeffs: np.ndarray, pts: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate K padded polynomials at M points: (K, L) x (M,) -> (K, M),
    every row at the same points; or (K, L) x (K, M) -> (K, M), row k at
    its own points ``pts[k]``.  The values go into ``out``, a (K, M)
    complex array, when it is given.

    Coefficients are ascending; rows may be zero-padded on the right.
    Horner starts from the leading column, so a row of length 0 is 0.
    """
    K, L = coeffs.shape
    if out is None:
        out = np.empty((K, pts.shape[-1]), dtype=np.complex128)
    if L == 0:
        out[...] = 0.0
        return out
    out[...] = coeffs[:, L - 1, None]
    for l in range(L - 2, -1, -1):
        out *= pts
        out += coeffs[:, l, None]
    return out


def _cross_terms(a: np.ndarray, b: np.ndarray, prods: np.ndarray,
                 term: np.ndarray) -> np.ndarray:
    """sum_{i<j} |a_i b_j - a_j b_i|^2 over the rows (axis 1) of two
    (B, P, M) arrays, as a new (B, M) array.  ``prods`` (2, B', M) complex
    and ``term`` (B', M) real, B' >= B, hold one pair's products and
    squared modulus."""
    B, P, _ = a.shape
    t, s, term = prods[0, :B], prods[1, :B], term[:B]
    num = np.zeros(term.shape)
    for i in range(P):
        for j in range(i + 1, P):
            np.multiply(a[:, i], b[:, j], out=t)
            np.multiply(a[:, j], b[:, i], out=s)
            np.subtract(t, s, out=t)
            np.abs(t, out=term)
            np.square(term, out=term)
            num += term
    return num


def _sum_sq(vals: np.ndarray, mods: np.ndarray, out: np.ndarray) -> None:
    """sum_i |v_i|^2 over axis 1 of a (B, P, M) array into ``out``, (B, M),
    through ``mods``, a real array of the shape of ``vals``."""
    np.abs(vals, out=mods)
    np.square(mods, out=mods)
    np.sum(mods, axis=1, out=out)


def fs_workspace(B: int, P: int, M: int) -> tuple[np.ndarray, ...]:
    """The block arrays of ``fs_derivative_grid`` for up to B curves of P
    components at M points: curve and derivative values, the moduli of the
    curve values, their squared norms, and one cross term's products and
    squared modulus."""
    return (np.empty((2, B * P, M), dtype=np.complex128),
            np.empty((B, P, M)), np.empty((B, M)),
            np.empty((2, B, M), dtype=np.complex128), np.empty((B, M)))


def fs_derivative_grid_numpy(comp: np.ndarray, dcomp: np.ndarray,
                             pts: np.ndarray,
                             work: tuple | None = None) -> np.ndarray:
    """Fubini-Study derivative of B curves at M points: (B, P, L) and
    (B, P, L-1) x (M,) -> (B, M).

    ``comp``/``dcomp`` hold each curve's n+1 = P component polynomials and
    their formal derivatives, zero-padded to a common length.  Each is
    evaluated at its own length into the arrays of ``work``, from
    ``fs_workspace`` for at least B curves, or of a new workspace.  The
    numerator is the cross-term (Lagrange identity) form, which is exact
    when curve and derivative are parallel; the naive norm-product form
    loses half the digits to cancellation there.
    """
    B, P, L = comp.shape
    M = pts.shape[-1]
    vals, mods, s2, prods, term = work or fs_workspace(B, P, M)
    v = polyval_grid_numpy(comp.reshape(B * P, L), pts,
                           out=vals[0, :B * P]).reshape(B, P, M)
    dv = polyval_grid_numpy(dcomp.reshape(B * P, dcomp.shape[2]), pts,
                            out=vals[1, :B * P]).reshape(B, P, M)
    s2 = s2[:B]
    _sum_sq(v, mods[:B], s2)
    num = _cross_terms(v, dv, prods, term)
    np.sqrt(num, out=num)
    num /= s2
    return num


def fs_scale(vals: np.ndarray, mods: np.ndarray, norms: np.ndarray) -> None:
    """Scale each item of a (B, P, M) stack of sampled curves in place by
    its own ``pow2_factors`` power of two, an item whose largest modulus is
    0 or not finite left as it is, and write the items' norms
    sqrt(sum_i |v_i|^2), (B, M), into ``norms``.  ``mods`` is a real array
    of the shape of ``vals``."""
    np.abs(vals, out=mods)
    finite, factor = pow2_factors(
        mods.max(axis=(1, 2), keepdims=True, initial=0.0))
    np.multiply(vals, factor, out=vals, where=finite)
    _sum_sq(vals, mods, norms)
    np.sqrt(norms, out=norms)


def fs_distance(a: np.ndarray, b: np.ndarray, na: np.ndarray,
                nb: np.ndarray, prods: np.ndarray,
                term: np.ndarray) -> np.ndarray:
    """Fubini-Study distance between two (B, P, M) stacks scaled by
    ``fs_scale``, with norms ``na``/``nb``, pointwise: a new (B, M) array.
    ``prods`` and ``term`` are as for ``_cross_terms``."""
    num = _cross_terms(a, b, prods, term)
    np.sqrt(num, out=num)
    num /= na * nb
    return num


def pairwise_fs_grid_numpy(vals_a: np.ndarray, vals_b: np.ndarray) -> np.ndarray:
    """Fubini-Study distance between sampled curves, pointwise:
    (..., P, M) x (..., P, M) -> (..., M), item by item along the batch.

    An item is the (P, M) homogeneous coordinates of one curve at M points.
    Each item is scaled first by its own ``pow2_factors`` power of two; an
    item whose largest modulus is 0 or not finite is left as it is.  This
    is ``fs_scale`` of copies of both stacks, then ``fs_distance``.
    """
    *batch, P, M = vals_a.shape
    a, b = (np.array(v, dtype=np.complex128).reshape(-1, P, M)
            for v in (vals_a, vals_b))
    B = a.shape[0]
    mods = np.empty(a.shape)
    na, nb = np.empty((2, B, M))
    fs_scale(a, mods, na)
    fs_scale(b, mods, nb)
    dist = fs_distance(a, b, na, nb, np.empty((2, B, M), dtype=np.complex128),
                       np.empty((B, M)))
    return dist.reshape(*batch, M)


polyval_grid = polyval_grid_numpy
fs_derivative_grid = fs_derivative_grid_numpy
pairwise_fs_grid = pairwise_fs_grid_numpy
