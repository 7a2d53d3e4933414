"""Hot numeric kernels: batched Horner evaluation and grid sweeps.

The kernels are plain numpy.  They keep their historical ``*_numpy`` names,
which the benchmark's trace wraps; the plain names are aliases.

The kernels take whole families on a batch axis: ``polyval_grid`` takes
(K, L) rows, ``fs_derivative_grid`` (B, P, L) curves and
``pairwise_fs_grid`` (..., P, M) sampled curves.  The grid sweeps of
``position`` and ``normality``, the Zalcman samples and the hyperplane
normalization cut a family into blocks of at most ``_EVAL_BLOCK`` complex
values per ``polyval_grid`` call.  A kernel works elementwise along the
batch and the points and reduces only along other axes, one row after
another (``np.sum`` would add a contiguous axis pairwise, so a call at one
point would round differently), so no bit of an item at a point depends on
the batch or the other points it rides with.

Every rounding bound of the package comes from one centre-0 enclosure
family, in midpoint-radius (ball) arithmetic (Rump, Acta Numerica 19,
2010; Johansson, "Arb", IEEE TC 66, 2017): ``majorants``, ``horner_error``
and ``ball``, whose rounding and underflow terms are derived once, in
their docstrings, and ``enclose``, which builds a ``ball`` from its
majorants.

A kernel allocates its own arrays: ``fs_derivative_grid`` evaluates a
block into new arrays, and the Zalcman samples are scaled in place by
``fs_scale``, which returns their norms, and measured by ``fs_distance``,
whose composition is ``pairwise_fs_grid``.  Inside a call, each array is
filled by in-place ufuncs that give the bits of the plain expressions they
replace; ``polyval_grid`` writes into a caller's ``out`` when it is given.
"""

import functools

import numpy as np

# Complex values one polyval_grid call of a grid sweep may produce (256 KiB):
# whole curves (components, or curve and derivative rows, x points) per
# block, or hyperplane subsets x points, of whole tuples or of one tuple's
# subsets, where the general-position sweep takes at most as many
# determinants per block too; at least one item.  Small enough that a
# block stays in cache.  The Marty sweep splits a curve
# larger than a block into runs of points: a blow-up curve of n = 3 at
# 81 x 81 points is 52,488 values, four runs of at most 2,048 points.
_EVAL_BLOCK = 1 << 14

# Unit roundoff of float64, and eta, over twice the error (2**-1075 at most)
# of an operation whose result underflows: the smallest normal, not
# subnormal, so that no bound computes on a subnormal, which x86 runs about
# ten times slower.
_U = 2.0 ** -53
_ETA = 2.0 ** -1022


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


@functools.cache
def _taylor_index(L: int) -> tuple[np.ndarray, np.ndarray]:
    """For Taylor coefficients of length L: entry [j, t] of the first array
    is C(t + j, j), 0 where t + j >= L, and of the second the coefficient
    index min(t + j, L - 1) it multiplies.

    Row j is the running sum of row j - 1 (Pascal's rule), which is exact
    while the entries stay below 2**53, as they do for L <= 57, and inf
    where a binomial passes the float range."""
    binom = np.ones((L, L))
    with np.errstate(over="ignore"):
        for j in range(1, L):
            np.cumsum(binom[j - 1], out=binom[j])
    index = np.add.outer(np.arange(L), np.arange(L))
    binom[index >= L] = 0.0
    return binom, np.minimum(index, L - 1)


def _taylor(coeffs: np.ndarray, k: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Row r: the ascending coefficients of p^(j[r])/j[r]!, zero-padded,
    for the polynomial p in row k[r] of ``coeffs``."""
    L = coeffs.shape[1]
    binom, index = _taylor_index(L)
    return binom[j] * coeffs.ravel()[index[j] + L * k[:, None]]


def reach(centres: np.ndarray, radii) -> np.ndarray:
    """|c| + r rounded up, an R with D(c, r) inside D(0, R): the modulus
    and the sum each round once, and the factor covers both."""
    return (np.abs(centres) + radii) * (1 + 8 * _U)


def majorants(rows: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """sum_m |a_m| R^m for each row of ascending coefficients a, rounded
    up, which bounds |p| on D(0, R).  (..., L) rows and (C,) ``radii``
    shared by them give (..., C), one product of the moduli with the powers
    R^t; (K, L) rows and (K, C) ``radii``, each row at its own, give (K, C)
    by Horner's scheme on the moduli.

    It bounds every row within u |a_m| of the given a_m (one more rounding
    of the coefficients, as of a derivative's m a_m).  Each operation on
    the nonnegative terms is exact up to a factor within u of 1, or adds
    eta/2 where it underflows (u = 2**-53, eta = 2**-1022).  The product
    form rounds each power up first (+ L eta, times 1 + (L + 2) u) and its
    products add at most L eta/2; in Horner's form each step's eta/2 is
    carried by at most L powers of max(1, R).  Either sum, with the
    moduli's rounding, is within (2L + 6) u relative of the exact one; the
    result adds the absolute term and takes 1 + (2L + 12) u, which covers
    its own roundings too.  A sum past the float range is inf, or NaN where
    an inf power meets a zero coefficient, and no comparison passes on it.

    ``normality._cell_bounds`` takes the product form, its rows sharing the
    cells' radii.  ``enclose`` at rows' own centres (``projective``'s
    exclusion test) and the slack of ``position.position_sweeps``, one
    R = 1 per subset, take Horner's form, whose row has the same bits
    whatever rows ride with it; a product may sum a row in another order
    when the rows beside it change.
    """
    L = rows.shape[-1]
    with np.errstate(all="ignore"):
        mods = np.abs(rows)
        if radii.ndim == 1:
            powers = np.empty((L, radii.size))
            powers[:1] = 1.0
            for t in range(1, L):
                np.multiply(powers[t - 1], radii, out=powers[t])
            powers += L * _ETA
            powers *= 1 + (L + 2) * _U
            total = mods @ powers
            total += L * _ETA
        else:
            total = polyval_grid_numpy(mods, radii, out=np.empty(radii.shape))
            total += L * _ETA * np.maximum(1.0, radii) ** L
        total *= 1 + (2 * L + 12) * _U
    return total


def horner_error(major: np.ndarray, L: int, far) -> np.ndarray:
    """A bound on |polyval_grid(row, z) - p(z)| on |z| <= R = far for rows
    of (padded) length L with ``majorants`` ``major`` at R; 0 for L <= 1,
    as evaluating a constant rounds nothing.

    Horner's bound (Higham, Accuracy and Stability, 2nd ed., section 5.1):
    a complex product is within 2 sqrt(2) u of its exact value and a sum
    within u, so the L - 1 steps stay within 4 L u of the majorant, and a
    product that underflows adds at most sqrt(2) eta, carried by at most L
    powers of max(1, R).  (8L + 8) u major + 4 L eta max(1, R)^L is over
    twice that, which covers its own rounding.
    """
    if L <= 1:
        return np.zeros(np.broadcast_shapes(np.shape(major), np.shape(far)))
    with np.errstate(all="ignore"):
        return ((8 * L + 8) * _U * major
                + 4 * L * _ETA * np.maximum(1.0, far) ** L)


def enclose(rows: np.ndarray, centres: np.ndarray, radii
            ) -> tuple[np.ndarray, np.ndarray]:
    """Balls (mid, rad), (K, C), of K rows (ascending, zero-padded) on the
    discs D(c, r): (C,) centres shared by the rows or (K, C) ones, each row
    at its own, and radii that broadcast against them.

    The ``ball`` of each row from its ``majorants`` and those of its
    derivative at R = ``reach(c, r)``, all in one call.
    """
    K, L = rows.shape
    with np.errstate(all="ignore"):
        far = reach(centres, radii)
        slopes = np.zeros_like(rows)
        np.multiply(rows[:, 1:], np.arange(1, L), out=slopes[:, :-1])
        major = majorants(np.concatenate([rows, slopes]), far
                          if far.ndim == 1 else np.concatenate([far, far]))
    return ball(rows, centres, radii, far, major[:K], major[K:])


def ball(rows: np.ndarray, centres: np.ndarray, radii, far: np.ndarray,
         major: np.ndarray, slope_major: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """The balls (mid, rad) of ``enclose`` from majorants already built:
    ``major`` of the rows and ``slope_major`` of their derivatives, both
    (K, C) ``majorants`` at R = ``far``, which is ``reach(c, r)`` or
    larger.  A majorant of a row zero-padded to any width bounds it too.

    mid is ``polyval_grid`` at c, and for every z in the disc both p(z) and
    the value ``polyval_grid`` computes at z lie within rad of it: r times
    the majorant of p' at R (the mean-value bound, as [c, z] lies in
    D(0, R)), plus twice ``horner_error`` at R, for mid and for the value
    at z, plus 2u |mid|, so that np.abs(mid) > rad proves p has no zero on
    the disc, times 1 + 4u.  A row of length 1 has rad 0.
    """
    L = rows.shape[1]
    with np.errstate(all="ignore"):
        mid = polyval_grid_numpy(rows, centres)
        if L <= 1:
            return mid, np.zeros(mid.shape)
        rad = radii * slope_major
        rad += 2 * horner_error(major, L, far)
        rad += 2 * _U * np.abs(mid)
        rad *= 1 + 4 * _U
    return mid, rad


def _cross_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_{i<j} |a_i b_j - a_j b_i|^2 over the rows (axis 1) of two
    (B, P, M) arrays, as a new (B, M) array.  One pair's products and
    squared modulus go into arrays allocated once per call."""
    B, P, M = a.shape
    t = np.empty((B, M), dtype=np.complex128)
    s = np.empty((B, M), dtype=np.complex128)
    term = np.empty((B, M))
    num = np.zeros((B, M))
    for i in range(P):
        for j in range(i + 1, P):
            np.multiply(a[:, i], b[:, j], out=t)
            np.multiply(a[:, j], b[:, i], out=s)
            np.subtract(t, s, out=t)
            np.abs(t, out=term)
            np.square(term, out=term)
            num += term
    return num


def _sum_sq(vals: np.ndarray) -> np.ndarray:
    """sum_i |v_i|^2 over axis 1 of a (B, P, M) array, as a new (B, M)
    array, added in the order of i at every M."""
    mods = np.abs(vals)
    np.square(mods, out=mods)
    out = mods[:, 0].copy()
    for i in range(1, mods.shape[1]):
        out += mods[:, i]
    return out


def fs_derivative_grid_numpy(comp: np.ndarray, dcomp: np.ndarray,
                             pts: np.ndarray) -> np.ndarray:
    """Fubini-Study derivative of B curves at M points: (B, P, L) and
    (B, P, L-1) x (M,) -> (B, M).

    ``comp``/``dcomp`` hold each curve's n+1 = P component polynomials and
    their formal derivatives, zero-padded to a common length; each is
    evaluated at its own length.  The numerator is the cross-term
    (Lagrange identity) form, which is exact when curve and derivative are
    parallel; the naive norm-product form loses half the digits to
    cancellation there.
    """
    B, P, L = comp.shape
    M = pts.shape[-1]
    v = polyval_grid_numpy(comp.reshape(B * P, L), pts).reshape(B, P, M)
    dv = polyval_grid_numpy(dcomp.reshape(B * P, dcomp.shape[2]),
                            pts).reshape(B, P, M)
    s2 = _sum_sq(v)
    num = _cross_terms(v, dv)
    np.sqrt(num, out=num)
    num /= s2
    return num


def fs_scale(vals: np.ndarray) -> np.ndarray:
    """Scale each item of a (B, P, M) stack of sampled curves in place by
    its own ``pow2_factors`` power of two, an item whose largest modulus is
    0 or not finite left as it is, and return the items' norms
    sqrt(sum_i |v_i|^2), (B, M)."""
    finite, factor = pow2_factors(
        np.abs(vals).max(axis=(1, 2), keepdims=True, initial=0.0))
    np.multiply(vals, factor, out=vals, where=finite)
    norms = _sum_sq(vals)
    np.sqrt(norms, out=norms)
    return norms


def fs_distance(a: np.ndarray, b: np.ndarray, na: np.ndarray,
                nb: np.ndarray) -> np.ndarray:
    """Fubini-Study distance between two (B, P, M) stacks scaled by
    ``fs_scale``, with norms ``na``/``nb``, pointwise: a new (B, M)
    array."""
    num = _cross_terms(a, b)
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
    dist = fs_distance(a, b, fs_scale(a), fs_scale(b))
    return dist.reshape(*batch, M)


polyval_grid = polyval_grid_numpy
fs_derivative_grid = fs_derivative_grid_numpy
pairwise_fs_grid = pairwise_fs_grid_numpy
