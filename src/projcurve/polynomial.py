"""Complex polynomials in one variable with numerically tolerant helpers.

Coefficients are stored ascending (constant term first) as complex128.
Construction trims trailing coefficients that are negligible relative to the
largest magnitude, so degrees stay honest.  A ``ComplexPoly`` holds
coefficients; the package computes on stacks of coefficient rows.  Root
finding goes through the companion matrix, with one guarded Newton polish
per root, and ``roots_many`` groups the eigenvalue scatter of multiple
roots back into (root, multiplicity) pairs by one backward-error rule,
centred on the mean of a group's unpolished eigenvalues; every zero set of
the package (the condition 1 and 2 pairings, the load-time shared-zero
check and the derived map) goes through it.  ``grouped_roots`` keeps the
grouping of a ``ComplexPoly`` on it, so the shared-zero check and the
derived map solve each polynomial once between them.

Every evaluation goes through the batched Horner kernel
``polyval_grid``.  ``root_stacks`` hands the companion matrices of every
coefficient row of one degree to a single ``np.linalg.eigvals`` call and
polishes the whole stack with one array Newton step; ``roots_many`` reads
its stacks.  The results are deterministic (the same calls give the same
bits), and their accuracy is tested against mpmath oracles at stated
tolerances.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from . import config
from ._kernels import _taylor, polyval_grid
from .errors import ZeroPolynomial


class ComplexPoly:
    """Immutable polynomial with ascending complex coefficients.

    ``grouped_roots`` keeps a polynomial's ``roots_many`` grouping on it,
    so each polynomial is solved at most once.
    """

    __slots__ = ("_coeffs", "_roots")

    def __init__(self, coeffs: Iterable[complex]) -> None:
        if isinstance(coeffs, np.ndarray):
            # A private copy: the caller's array stays writable and unshared.
            arr = coeffs.astype(np.complex128, copy=True)
        else:
            arr = np.asarray(list(coeffs), dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a flat sequence")
        self._coeffs = arr[: trimmed_lengths(arr)]
        self._coeffs.setflags(write=False)
        self._roots = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> list["ComplexPoly"]:
        """One polynomial per row of a 2-D array of ascending coefficients,
        zero-padded: ``ComplexPoly(row)`` for each row, with every row
        trimmed by one ``trimmed_lengths`` call."""
        # A private copy, frozen before its rows are cut from it.
        stack = np.array(rows, dtype=np.complex128)
        if stack.ndim != 2:
            raise ValueError("coefficient rows must form a 2-D array")
        stack.setflags(write=False)
        out = []
        for row, k in zip(stack, trimmed_lengths(stack).tolist()):
            p = cls.__new__(cls)
            p._coeffs = row[:k]
            p._roots = None
            out.append(p)
        return out

    # One shared object each: a ComplexPoly is immutable.
    @staticmethod
    @functools.cache
    def zero() -> "ComplexPoly":
        return ComplexPoly([])

    @staticmethod
    @functools.cache
    def one() -> "ComplexPoly":
        return ComplexPoly([1.0])

    @classmethod
    def from_roots(cls, roots: Sequence[complex],
                   leading: complex = 1.0) -> "ComplexPoly":
        acc = np.array([leading], dtype=np.complex128)
        for r in roots:
            acc = np.convolve(acc, np.array([-r, 1.0], dtype=np.complex128))
        return cls(acc)

    # -- basic queries --------------------------------------------------

    @property
    def coeffs(self) -> np.ndarray:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return self._coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self._coeffs.size == 0

    @property
    def is_constant(self) -> bool:
        return self._coeffs.size <= 1

    def __repr__(self) -> str:
        return f"ComplexPoly({list(self._coeffs)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexPoly):
            return NotImplemented
        return (self._coeffs.shape == other._coeffs.shape
                and bool(np.all(self._coeffs == other._coeffs)))

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.tolist()))

    # -- serialization --------------------------------------------------

    def to_json(self) -> list:
        return [[c.real, c.imag] for c in self._coeffs.tolist()]


def trimmed_lengths(rows: np.ndarray) -> np.ndarray:
    """The length of each coefficient row (the last axis of ``rows``) once
    its trailing coefficients of modulus at most ``config.TAU_COEFF`` times
    the row's largest are cut; 0 for a row of zeros.  A row whose largest
    modulus is NaN or inf (finite parts can overflow to an inf modulus)
    loses nothing."""
    # Coefficients first, so every reduction runs along axis 0.
    mags = np.abs(rows).T
    top = mags.max(0, initial=0.0)
    cut = (mags <= config.TAU_COEFF * top) & (top < np.inf)
    trailing = np.logical_and.accumulate(cut[::-1])
    return (len(mags) - trailing.sum(0)).T


def stack_coeffs(polys: Sequence[ComplexPoly]) -> np.ndarray:
    """The coefficients of ``polys`` as the rows of one array, zero-padded
    on the right to a common length of at least 1."""
    out = np.zeros((len(polys), max([1, *(p.coeffs.size for p in polys)])),
                   dtype=np.complex128)
    for row, p in zip(out, polys):
        row[: p.coeffs.size] = p.coeffs
    return out


def root_stacks(rows: Sequence[np.ndarray]):
    """The roots of every coefficient row of degree >= 1, one stack per
    degree.

    ``rows`` are ascending coefficient rows with a nonzero last entry, as
    ``ComplexPoly.coeffs`` holds them.  Yields ``(members, roots, eigs,
    gaps)`` for each degree d: the indices of the rows of degree d; their
    polished roots, a (B, d) array with each row sorted by (real, imag);
    the unpolished eigenvalues, in the same order as the roots; and the
    (B, d, d) moduli of the differences of each row's roots.

    The companion matrices of one degree >= 2 go to a single
    ``np.linalg.eigvals`` call; degree 1 is solved in closed form.  Each
    stack is polished with one guarded Newton step.  A row of size 0 (the
    zero polynomial) raises ZeroPolynomial before anything is solved; rows
    of size 1 have no roots and are in no stack.
    """
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(rows):
        if c.size == 0:
            raise ZeroPolynomial("zero polynomial has every point as a root")
        if c.size >= 2:
            groups.setdefault(c.size - 1, []).append(i)
    for d, members in groups.items():
        P = np.array([rows[i] for i in members])
        monic = P[:, :-1] / P[:, -1:]
        if d == 1:
            eigs = -monic
        else:
            C = np.zeros((len(members), d, d), dtype=np.complex128)
            C[:, 1:, :-1] = np.eye(d - 1)
            C[:, :, -1] = -monic
            eigs = _eigvals(C)
            del C  # the largest array here; not kept through the polish
        roots = _newton(P, eigs)
        order = (np.arange(len(members))[:, None],
                 np.lexsort((roots.imag, roots.real)))
        roots, eigs = roots[order], eigs[order]
        yield (members, roots, eigs,
               np.abs(roots[:, :, None] - roots[:, None, :]))


def _eigvals(C: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals`` of the (B, d, d) stack ``C``.

    LAPACK's QR iteration can fail to converge on a companion matrix whose
    entries span hundreds of orders of magnitude (a multiple root near 1e-109
    beside one of modulus 1 is one).  Then each matrix is solved alone, and
    one that fails again through its transpose, which has the same
    eigenvalues but is balanced and reduced differently.
    """
    try:
        return np.linalg.eigvals(C)
    except np.linalg.LinAlgError:
        pass
    out = np.empty(C.shape[:-1], dtype=np.complex128)
    for row, M in zip(out, C):
        try:
            row[:] = np.linalg.eigvals(M)
        except np.linalg.LinAlgError:
            row[:] = np.linalg.eigvals(M.T)
    return out


def _newton(P: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One guarded Newton step from every point of row k of ``r`` on the
    polynomial in row k of the coefficient matrix ``P``.

    A step is kept only where it lowers the residual's modulus, so a step
    through a vanishing or tiny derivative is refused rather than taken.
    """
    K, L = P.shape
    # The rows of P and of their derivatives, evaluated in one call.
    both = np.zeros((2 * K, L), dtype=np.complex128)
    both[:K] = P
    both[K:, :-1] = P[:, 1:] * np.arange(1, L)
    # An overflow in the values, the divide or the residual ends in a step
    # that the residual test refuses, so it goes unreported.
    with np.errstate(over="ignore", invalid="ignore"):
        vals = polyval_grid(both, np.concatenate([r, r]))
        f, df = vals[:K], vals[K:]
        cand = r - np.divide(f, df, out=np.zeros_like(f), where=df != 0)
        better = np.abs(polyval_grid(P, cand)) < np.abs(f)
    return np.where(better, cand, r)


def roots_many(rows: Sequence[np.ndarray]
               ) -> list[list[tuple[complex, int]]]:
    """The roots with multiplicities of each coefficient row c (a
    ``ComplexPoly.coeffs``), each list sorted by (real, imag): the one rule
    by which zeros are grouped.

    ``root_stacks`` solves every row, one eigensolve per degree.  The
    eigenvalues of an m-fold root scatter by about (eps times its
    condition)^(1/m), so they are grouped back by backward error: a group
    of m roots is one m-fold root at c when one Newton step on p^(m-1)
    from the group's centroid moves at most the link radius below (taken
    at the centroid), and every lower Taylor coefficient p^(j)(c)/j!,
    j < m - 1, is at most ``config.TAU_MULTIPLE`` times sum_i C(i, j)
    |p_i| r^(i-j), r = max(1, |c|): a change of p's coefficients of that
    size relative to this majorant makes c an m-fold root.  (Taken at |c|
    instead of r, the majorant near 0 shrinks to the low coefficients,
    which a computed polynomial holds only to rounding: the double zero at
    0 of a derived pairing -1.5i z^2 + 1e-16 z + 5e-17i, or one at
    1e-205, would stay two simple roots.)

    The centroid is the mean of the group's unpolished eigenvalues, which
    is far better conditioned than any one of them: polishing each
    eigenvalue of an m-fold root on its own moves their mean (for
    i (z - 1)^9 z the polished mean sits 1e-3 from 1 and the step from it
    lands 5e-6 off, too far; the unpolished mean is within rounding).
    Simple roots keep their polish, and links and splits read the
    polished roots.

    Groups are built bottom-up.  Two roots a, b of a polynomial of degree d
    are linked when |a - b| <= 2 TAU_MULTIPLE^(1/d) max(1, |a|, |b|), and
    only the groups that links connect are tested.  The radius is the
    widest scatter the test above can take as one root: a relative change
    eta in the coefficients moves an m-fold root c by about (eta B(|c|) /
    |p^(m)(c)/m!|)^(1/m), B(x) = sum_i |p_i| x^i, and for coefficients of
    one size the ratio in it is about max(1, |c|)^m; so with eta <=
    TAU_MULTIPLE < 1 and m <= d the roots of one m-fold root lie within
    TAU_MULTIPLE^(1/d) max(1, |c|) of c, and within twice that of each
    other.  (At d = 8 the radius is 0.047; in a sweep of 2000 degree-8
    polynomials, 636 5-fold roots scattered at most 3.7e-3 from the root.)
    A group that fails splits in two, a pair into its two roots and a
    larger group at the longest edge of its minimum spanning tree, down to
    single roots, which are simple.  A row with no link, found with one
    array comparison per stack, is its sorted roots, each simple, and
    makes no test; the pending groups of every row are tested one split
    level at a time by ``_accept``.
    """
    out: list[list[tuple[complex, int]]] = [[] for _ in rows]
    # Each linked group: its row, that row's coefficients, roots and
    # eigenvalues, which of them it holds, and the link factor 2
    # TAU_MULTIPLE^(1/d); one block per stack.
    blocks = []
    for members, roots, eigs, gaps in root_stacks(rows):
        for i, row in zip(members, roots.tolist()):
            out[i] = [(z, 1) for z in row]
        d = roots.shape[1]
        reach = 2.0 * config.TAU_MULTIPLE ** (1.0 / d)
        scale = np.maximum(1.0, np.abs(roots))
        # Each root is linked to itself: its gap is 0.
        linked = gaps <= reach * np.maximum(scale[:, :, None],
                                            scale[:, None, :])
        loose = np.flatnonzero(linked.sum(axis=(1, 2)) > d)
        if not loose.size:
            continue
        # The components of the links: their transitive closure, squared
        # until it stops growing (in float32, which numpy multiplies far
        # faster than bool); a component is named by its first root.
        comp = linked[loose].astype(np.float32)
        while ((grown := np.minimum(comp @ comp, 1)) != comp).any():
            comp = grown
        b, j = np.nonzero((comp.argmax(axis=2) == np.arange(d))
                          & (comp.sum(axis=2) > 1))
        owner = np.asarray(members)[loose]
        blocks.append((owner[b], np.array([rows[k] for k in owner])[b],
                       roots[loose[b]], eigs[loose[b]], comp[b, j] > 0,
                       reach))
    if not blocks:
        return out
    # The groups of every stack, zero-padded to the largest degree D.
    owner = np.concatenate([block[0] for block in blocks])
    D = max(block[2].shape[1] for block in blocks)
    coeffs = np.zeros((owner.size, D + 1), dtype=np.complex128)
    points = np.zeros((owner.size, D), dtype=np.complex128)
    raw = np.zeros((owner.size, D), dtype=np.complex128)
    holds = np.zeros((owner.size, D), dtype=bool)
    factor = np.empty(owner.size)
    at = 0
    for _, cs, zs, es, hs, reach in blocks:
        coeffs[at: at + len(cs), : cs.shape[1]] = cs
        points[at: at + len(zs), : zs.shape[1]] = zs
        raw[at: at + len(es), : es.shape[1]] = es
        holds[at: at + len(hs), : hs.shape[1]] = hs
        factor[at: at + len(hs)] = reach
        at += len(hs)
    m = holds.sum(axis=1)
    found = []
    while True:
        # Summed in root order, as cumsum does for every width: np.sum's
        # pairwise order would tie a group's bits to the widest stack.
        centre = np.where(holds, raw, 0).cumsum(axis=1)[:, -1] / m
        c, ok = _accept(coeffs, centre, m,
                        factor * np.maximum(1.0, np.abs(centre)))
        good = np.flatnonzero(ok)
        found.extend(zip(owner[good].tolist(), c[good].tolist(),
                         m[good].tolist(), holds[good].tolist()))
        # A failed pair is two simple roots; a larger group splits in two.
        split = np.flatnonzero(~ok & (m > 2))
        if not split.size:
            break
        near = _near_side(points[split], holds[split])
        halves = np.concatenate([holds[split] & near, holds[split] & ~near])
        m = halves.sum(axis=1)
        keep = np.concatenate([split, split])[m > 1]
        if not keep.size:
            break
        holds, m = halves[m > 1], m[m > 1]
        owner, coeffs, points, raw, factor = (
            owner[keep], coeffs[keep], points[keep], raw[keep], factor[keep])
    # Each row with an accepted group: its roots outside every such group,
    # and the groups' centres, sorted.
    rest: dict[int, tuple[list, list]] = {}
    for k, c, mult, held in found:
        used, centres = rest.get(k, ([False] * D, []))
        rest[k] = [u or h for u, h in zip(used, held)], centres + [(c, mult)]
    for k, (used, centres) in rest.items():
        out[k] = [rm for rm, u in zip(out[k], used) if not u] + centres
        out[k].sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def grouped_roots(polys: Sequence[ComplexPoly]
                  ) -> list[tuple[tuple[complex, int], ...]]:
    """``roots_many`` of each polynomial, kept on it: the polynomials not
    solved before (each distinct object once) go to one ``roots_many``
    call, and every later call reads their kept grouping.  ``roots_many``
    gives a row the same bits whatever rows it is solved with, so the
    grouping does not depend on which call solved it first."""
    todo = list({id(p): p for p in polys if p._roots is None}.values())
    if todo:
        for p, found in zip(todo, roots_many([p.coeffs for p in todo])):
            p._roots = tuple(found)
    return [p._roots for p in polys]


def _near_side(points: np.ndarray, holds: np.ndarray) -> np.ndarray:
    """For each group, the roots ``holds`` marks in its row of ``points``,
    those left with the group's first root when the longest edge of the
    group's minimum spanning tree is cut: the roots it reaches by paths
    of shorter edges (single linkage)."""
    F, D = holds.shape
    # The group's roots in order, root i of row f in column rank.
    f, i = np.nonzero(holds)
    rank = holds.cumsum(axis=1)[f, i] - 1
    S = rank.max() + 1
    pts = np.zeros((F, S), dtype=np.complex128)
    pts[f, rank] = points[f, i]
    held = np.zeros((F, S), dtype=bool)
    held[f, rank] = True
    dist = np.where(held[:, :, None] & held[:, None, :],
                    np.abs(pts[:, :, None] - pts[:, None, :]), np.inf)
    # Prim's tree grown from the first root: a root's minimax distance
    # from it is the largest key taken up to the step where it joins, and
    # the largest such distance is the cut edge.
    at = np.arange(F)
    key = dist[:, 0].copy()
    joined = np.zeros((F, S), dtype=bool)
    joined[:, 0] = True
    reach = np.zeros((F, S))
    top = np.zeros(F)
    for _ in range(S - 1):
        k = np.where(joined, np.inf, key).argmin(axis=1)
        top = np.maximum(top, key[at, k])
        reach[at, k] = top
        joined[at, k] = True
        key = np.minimum(key, dist[at, k])
    # A group smaller than S runs out of roots and then takes the first
    # root again (the argmin of a row of inf), which is 0 from itself.
    reach[:, 0] = 0.0
    cut = np.where(held, reach, -np.inf).max(axis=1)
    near = np.zeros((F, D), dtype=bool)
    near[f, i] = (reach < cut[:, None])[f, rank]
    return near


def _accept(coeffs: np.ndarray, centre: np.ndarray, m: np.ndarray,
            radius: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``roots_many``'s test of G candidate groups: group g has m[g] roots
    with centroid centre[g], of the polynomial in row g of ``coeffs``.
    Returns the centres c found and whether each group is one m-fold root
    at c.

    Every row is evaluated at its own point, so the G groups take two
    ``polyval_grid`` calls.
    """
    G = m.size
    at = np.arange(G)
    # Past degree about 1030 a binomial of the shift is inf, and inf times
    # a zero coefficient NaN; the evaluations and a step may overflow on
    # their way to being refused.
    with np.errstate(over="ignore", invalid="ignore"):
        # p^(m-1)/(m-1)! has a simple root at an m-fold root of p; its
        # derivative is m p^(m)/m!.
        vals = polyval_grid(_taylor(coeffs, np.concatenate([at, at]),
                                    np.concatenate([m - 1, m])),
                            np.concatenate([centre, centre])[:, None])[:, 0]
        value, slope = vals[:G], vals[G:] * m
        c = centre - np.divide(value, slope, out=np.zeros_like(value),
                               where=slope != 0)
        # Not-greater, so a NaN step is not refused here.
        ok = (slope != 0) & ~(np.abs(c - centre) > radius)
        # The lower Taylor coefficients j < m - 1 at c (a refused group's
        # at its centroid) and their bounds at max(1, |c|), in one call:
        # row r at its own point.
        of, j = np.nonzero(np.arange(m.max() - 1) < m[:, None] - 1)
        lower = _taylor(coeffs, of, j)
        pts = np.where(ok, c, centre)[of, None]
        vals = polyval_grid(np.concatenate([lower, np.abs(lower)]),
                            np.concatenate([pts,
                                            np.maximum(1.0, np.abs(pts))]))
    bad = np.abs(vals[: of.size, 0]) > (
        config.TAU_MULTIPLE * vals[of.size:, 0].real)
    ok[of[bad]] = False
    return c, ok
