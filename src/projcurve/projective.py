"""Curves into P^n, moving hyperplanes, and their pairing.

A curve is a tuple of n+1 polynomials with no common zero (a reduced
representation).  A moving hyperplane is likewise a tuple of n+1 coefficient
polynomials with no common zero; it is "fixed" when all coefficients are
constants.  Pairing a curve with a hyperplane contracts the two tuples into
a single polynomial whose zeros are the preimage of the hyperplane.

Hyperplane coefficient tuples are only determined up to a nonzero scalar, so
determinant-based measures need a convention: ``normalized`` rescales the
tuple to unit sup coefficient norm over a reference grid and records the
factor used.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _kernels, config
from ._kernels import enclose, polyval_grid
from .errors import (AllZero, DimensionMismatch, ProjcurveError,
                     ZeroPolynomial)
from .polynomial import ComplexPoly, grouped_roots, stack_coeffs


def first_common_zero(tuples: Sequence[Sequence[ComplexPoly]]
                      ) -> int | None:
    """The index of the first tuple whose entries share a root, or None.

    A nonzero constant entry rules out a common zero, and a tuple of zero
    polynomials shares every point.  Of every other tuple only the first
    entry of lowest degree is solved, through ``grouped_roots`` (one
    ``roots_many`` call for them all), and each of its roots r is cleared
    when the ball of some other entry e on D(r, ``config.TAU_ROOT``)
    excludes 0 (``_kernels.enclose``, one call for every entry and root):
    then e has no zero within ``config.TAU_ROOT`` of r.  A ball that is
    not finite clears nothing.

    A tuple with a root that no entry clears is decided by matching: its
    entries are solved (those tuples' together, in one more call), which
    gives each multiple root as one centre, and it shares a zero when every
    other entry has a root within ``config.TAU_ROOT`` of some root of its
    first entry.  The exclusion only proves that there is no common zero,
    so a tuple that does share one is always matched.
    """
    lives = {k: sorted((p for p in polys if not p.is_zero),
                       key=lambda p: p.degree)
             for k, polys in enumerate(tuples)
             if not any(p.degree == 0 for p in polys)}
    if not lives:
        return None
    cleared = _cleared({k: live for k, live in lives.items() if live})
    pending = {k: live for k, live in lives.items() if k not in cleared}
    roots = iter(grouped_roots([p for live in pending.values()
                                for p in live]))
    for k, live in pending.items():
        if not live:
            return k
        first, *others = [[r for r, _ in next(roots)] for _ in live]
        if any(all(any(abs(r - root) <= config.TAU_ROOT for r in rs)
                   for rs in others) for root in first):
            return k
    return None


def _cleared(lives: dict[int, list[ComplexPoly]]) -> set[int]:
    """The keys of the tuples ``lives`` (nonzero entries of degree >= 1,
    lowest degree first) whose first entry has every root cleared by some
    other entry, by ``first_common_zero``'s exclusion test."""
    heads = grouped_roots([live[0] for live in lives.values()])
    K = max(map(len, lives.values()), default=1) - 1
    if not K:
        return set()
    # Item (t, j): entry j + 1 of tuple t, or the zero polynomial, which
    # clears nothing, against the roots of the tuple's first entry, padded
    # with its first root, which leaves the tuple's verdict as it is.
    entries = [e for live in lives.values()
               for e in live[1:] + [ComplexPoly.zero()] * (K + 1 - len(live))]
    D = max(map(len, heads))
    pts = np.repeat(np.array([[r for r, _ in found]
                              + [found[0][0]] * (D - len(found))
                              for found in heads]), K, axis=0)
    mid, rad = enclose(stack_coeffs(entries), pts, config.TAU_ROOT)
    value = np.abs(mid)
    # A ball that is not finite, or NaN, clears nothing.
    ok = (rad < value) & (value < np.inf)
    done = ok.reshape(len(heads), K, D).any(axis=1).all(axis=1)
    return {k for k, d in zip(lives, done.tolist()) if d}


def tuple_error(polys: Sequence[ComplexPoly], entry: str) -> ProjcurveError:
    """The error of a tuple that ``first_common_zero`` flags, whose entries
    are each a ``entry``: AllZero when every one is the zero polynomial,
    else ZeroPolynomial."""
    if all(p.is_zero for p in polys):
        return AllZero(f"every {entry} is the zero polynomial")
    return ZeroPolynomial(
        "components share a zero; reduce the representation first")


# ---------------------------------------------------------------------------
# core objects
# ---------------------------------------------------------------------------

class ProjCurve:
    """A holomorphic map into P^n given by n+1 polynomials with no common zero."""

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[ComplexPoly],
                 check_reduced: bool = True) -> None:
        comps = tuple(components)
        if len(comps) < 2:
            raise DimensionMismatch("need at least two components (n >= 1)")
        if all(p.is_zero for p in comps) or (
                check_reduced and first_common_zero([comps]) is not None):
            raise tuple_error(comps, "component")
        self._components = comps

    @property
    def components(self) -> tuple[ComplexPoly, ...]:
        return self._components

    @property
    def n(self) -> int:
        return len(self._components) - 1

    @property
    def degree(self) -> int:
        return max(p.degree for p in self._components)

    @property
    def is_constant(self) -> bool:
        return all(p.is_constant for p in self._components)

    def to_json(self) -> dict:
        return {"n": self.n,
                "components": [p.to_json() for p in self._components]}

    def __repr__(self) -> str:
        return f"ProjCurve(n={self.n}, degree={self.degree})"


def family_n(curves: Sequence[ProjCurve]) -> int | None:
    """The n of P^n that every curve of ``curves`` maps into, None for no
    curves; DimensionMismatch names the first curve of another n."""
    for i, curve in enumerate(curves):
        if curve.n != curves[0].n:
            raise DimensionMismatch(
                f"curve {i} has n={curve.n}, curve 0 has n={curves[0].n}")
    return curves[0].n if curves else None


class MovingHyperplane:
    """A hyperplane with polynomial coefficients, nowhere all zero.

    ``is_normalized`` says whether the representative came from
    ``normalized_many``; determinant measures require normalized
    representatives to be well-defined numbers.
    """

    __slots__ = ("_coeffs", "_normalized")

    def __init__(self, coeffs: Sequence[ComplexPoly]) -> None:
        cf = tuple(coeffs)
        if len(cf) < 2:
            raise DimensionMismatch("need at least two coefficients (n >= 1)")
        if first_common_zero([cf]) is not None:
            raise tuple_error(cf, "coefficient")
        self._coeffs = cf
        self._normalized = False

    @property
    def coeffs(self) -> tuple[ComplexPoly, ...]:
        return self._coeffs

    @property
    def n(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_fixed(self) -> bool:
        return all(p.is_constant for p in self._coeffs)

    @property
    def is_normalized(self) -> bool:
        return self._normalized

    def normalized(self, region) -> "MovingHyperplane":
        """``normalized_many`` of this hyperplane alone."""
        return normalized_many([self._coeffs], region)[0]

    def to_json(self) -> dict:
        return {"n": self.n, "coeffs": [p.to_json() for p in self._coeffs]}

    def __repr__(self) -> str:
        fixed = "fixed" if self.is_fixed else "moving"
        return f"MovingHyperplane(n={self.n}, {fixed})"


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def normalized_many(tuples: Sequence[Sequence[ComplexPoly]],
                    region) -> list[MovingHyperplane]:
    """The hyperplane of each coefficient tuple, rescaled so the sup over
    the region's grid of its largest coefficient modulus is 1, and marked
    ``is_normalized``.

    ``region`` is anything with a ``grid_points()`` method returning the
    sample points.  A fixed tuple's coefficients are its values
    everywhere, so its sup is read off them; the moving ones are evaluated
    with ``polyval_grid``, in blocks of whole tuples of at most
    ``_EVAL_BLOCK`` values, at least one, which bounds memory.  A sup
    within 1e-12 of 1 snaps to the identity, keeping the tuple's own
    polynomials, so normalizing twice is bitwise stable.  Any other tuple
    is multiplied by the complex number 1/sup, all of them with one
    ``ComplexPoly.from_rows`` call; a factor that is not finite (a sup
    that is 0 or subnormal, or that overflowed) is 0, so the tuple scales
    to zero.  The results are not checked again: scaling
    keeps the no-common-zero invariant up to rounding, and a caller that
    must hold it for every input tests them with ``first_common_zero``.
    """
    tuples = [tuple(t) for t in tuples]
    if not tuples:
        return []
    sizes = np.array([len(t) for t in tuples])
    flat = [p for t in tuples for p in t]
    lengths = np.array([p.coeffs.size for p in flat])
    rows = stack_coeffs(flat)
    # The largest modulus of each row: of its coefficients for a fixed
    # tuple, of its values on the grid for a moving one.
    top = np.abs(rows).max(axis=1)
    starts = np.cumsum(sizes) - sizes
    moving = np.maximum.reduceat(lengths, starts) > 1
    at = np.flatnonzero(np.repeat(moving, sizes))
    # The rows of moving tuples a ... a + per - 1 are at[ends[a]:ends[a+per]].
    ends = np.concatenate([[0], np.cumsum(sizes[moving])])
    pts = region.grid_points()
    per = max(1, _kernels._EVAL_BLOCK // (int(sizes.max()) * pts.size))
    for a in range(0, ends.size - 1, per):
        block = at[ends[a]: ends[min(a + per, ends.size - 1)]]
        vals = polyval_grid(rows[block, : lengths[block].max()], pts)
        top[block] = np.abs(vals).max(axis=1)
    sup = np.maximum.reduceat(top, starts)
    with np.errstate(divide="ignore", over="ignore"):
        factor = 1.0 / sup
    factor[~np.isfinite(factor)] = 0.0
    snap = np.abs(sup - 1.0) <= 1e-12
    scaled = np.repeat(~snap, sizes)
    polys = iter(ComplexPoly.from_rows(
        rows[scaled] * np.repeat(factor, sizes)[scaled, None]
        .astype(np.complex128)))
    out = []
    for t, keep in zip(tuples, snap.tolist()):
        h = MovingHyperplane.__new__(MovingHyperplane)
        h._coeffs = t if keep else tuple(next(polys) for _ in t)
        h._normalized = True
        out.append(h)
    return out


# ---------------------------------------------------------------------------
# pairing and norms
# ---------------------------------------------------------------------------

def pair_rows(curves: Sequence[ProjCurve],
              hypers: Sequence[Sequence[MovingHyperplane]]) -> np.ndarray:
    """The coefficients of every pairing of curve i with its hyperplanes
    ``hypers[i]``: an (N, H, K) array whose row [i, j] is the contraction
    sum_l a_l(z) f_l(z) of curve i with ``hypers[i][j]``, untrimmed and
    zero-padded (H is the longest list, so row [i, j] of a shorter list is
    zero).  The curves share one n (``family_n``).

    The curves' components are stacked into an (N, n+1, La, L + La - 1)
    array holding each component shifted by s = 0 ... La-1 places, and each
    distinct hyperplane's coefficients once into an (n+1, La) block; the
    sum over l and over the shifts is one batched matrix product.
    """
    N, H = len(curves), max(len(hs) for hs in hypers)
    n1 = family_n(curves) + 1
    # One block per distinct hyperplane object, and a zero block last
    # (slot -1) for the missing ones of a shorter list.
    index: dict[int, int] = {}
    distinct: list[MovingHyperplane] = []
    slot = np.full((N, H), -1, dtype=np.intp)
    for i, hs in enumerate(hypers):
        for j, h in enumerate(hs):
            if h.n != n1 - 1:
                raise DimensionMismatch(
                    f"curve has n={n1 - 1}, hyperplane has n={h.n}")
            if id(h) not in index:
                index[id(h)] = len(distinct)
                distinct.append(h)
            slot[i, j] = index[id(h)]
    a = stack_coeffs([p for h in distinct for p in h.coeffs])
    La = a.shape[1]
    A = np.zeros((len(distinct) + 1, n1, La), dtype=np.complex128)
    A[:-1] = a.reshape(len(distinct), n1, La)
    f = stack_coeffs([p for c in curves for p in c.components])
    L = f.shape[1]
    F = np.zeros((N, n1, La, L + La - 1), dtype=np.complex128)
    for s in range(La):
        F[:, :, s, s: s + L] = f.reshape(N, n1, L)
    return (A[slot].reshape(N, H, n1 * La)
            @ F.reshape(N, n1 * La, L + La - 1))


def induced_curve(hyper: MovingHyperplane) -> ProjCurve:
    """The curve z -> [a_0(z) : ... : a_n(z)] traced by the coefficients.

    Already reduced by the MovingHyperplane no-common-zero invariant.
    """
    return ProjCurve(hyper.coeffs, check_reduced=False)
