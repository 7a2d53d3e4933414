"""Complex polynomials in one variable with numerically tolerant helpers.

Coefficients are stored ascending (constant term first) as complex128.
Construction trims trailing coefficients that are negligible relative to the
largest magnitude, so arithmetic keeps degrees honest.  Root finding goes
through the companion matrix, with one guarded Newton polish per root and a
clustering pass that merges eigenvalue splatter from multiple roots back
into (root, multiplicity) pairs.

Every evaluation, scalar or array, goes through the batched Horner kernel
``polyval_grid``.  ``roots_many`` hands the companion matrices of every
polynomial of one degree to a single ``np.linalg.eigvals`` call and polishes
the whole stack with one array Newton step.  The results are deterministic
(the same calls give the same bits), and their accuracy is tested against
mpmath oracles at stated tolerances.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import config
from ._kernels import polyval_grid
from .errors import ZeroPolynomial


class ComplexPoly:
    """Immutable polynomial with ascending complex coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[complex]) -> None:
        if isinstance(coeffs, np.ndarray):
            # A private copy: the caller's array stays writable and unshared.
            arr = coeffs.astype(np.complex128, copy=True)
        else:
            arr = np.asarray(list(coeffs), dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a flat sequence")
        self._coeffs = _trim(arr)
        self._coeffs.setflags(write=False)

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls) -> "ComplexPoly":
        return cls([])

    @classmethod
    def one(cls) -> "ComplexPoly":
        return cls([1.0])

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

    # -- evaluation ------------------------------------------------------

    def __call__(self, z):
        """Horner evaluation at a scalar or at every entry of an array."""
        pts = np.asarray(z, dtype=np.complex128)
        vals = polyval_grid(self._coeffs[None, :], pts.ravel())[0]
        return vals.reshape(pts.shape)[()]

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        a, b = self._coeffs, other._coeffs
        out = np.zeros(max(a.size, b.size), dtype=np.complex128)
        out[: a.size] += a
        out[: b.size] += b
        return ComplexPoly(out)

    def __sub__(self, other: "ComplexPoly") -> "ComplexPoly":
        return self + (-other)

    def __neg__(self) -> "ComplexPoly":
        return ComplexPoly(-self._coeffs)

    def __mul__(self, other) -> "ComplexPoly":
        if isinstance(other, ComplexPoly):
            if self.is_zero or other.is_zero:
                return ComplexPoly.zero()
            return ComplexPoly(np.convolve(self._coeffs, other._coeffs))
        return ComplexPoly(self._coeffs * complex(other))

    def __rmul__(self, other) -> "ComplexPoly":
        return self.__mul__(other)

    def derivative(self) -> "ComplexPoly":
        if self._coeffs.size <= 1:
            return ComplexPoly.zero()
        k = np.arange(1, self._coeffs.size)
        return ComplexPoly(self._coeffs[1:] * k)

    def shift_scale(self, center: complex, scale: complex) -> "ComplexPoly":
        """Return q with q(w) = p(center + scale * w), exactly in coefficients.

        The shift is repeated synthetic division (a Taylor shift), the scale
        multiplies coefficient j by scale**j.  Both steps are coefficient
        level, so recomposition introduces no sampling error.
        """
        if self.is_zero:
            return ComplexPoly.zero()
        work = np.array(self._coeffs, dtype=np.complex128)
        n = work.size
        # Taylor shift: after pass k, work[k] is the k-th Taylor coefficient
        # of p at `center`.
        for k in range(n - 1):
            for i in range(n - 2, k - 1, -1):
                work[i] += center * work[i + 1]
        scaled = work * (np.complex128(scale) ** np.arange(n))
        return ComplexPoly(scaled)

    # -- division helpers ----------------------------------------------

    def deflate(self, root: complex) -> "ComplexPoly":
        """Synthetic division by (z - root), discarding the remainder."""
        if self.is_zero:
            raise ZeroPolynomial("cannot deflate the zero polynomial")
        c = self._coeffs
        n = c.size
        out = np.empty(n - 1, dtype=np.complex128)
        acc = c[n - 1]
        for i in range(n - 2, -1, -1):
            out[i] = acc
            acc = c[i] + acc * root
        return ComplexPoly(out)

    # -- serialization --------------------------------------------------

    def to_json(self) -> list:
        return [[float(c.real), float(c.imag)] for c in self._coeffs]

    # -- root finding ----------------------------------------------------

    def roots(self) -> list[tuple[complex, int]]:
        """Roots with multiplicities, sorted by (real, imag); see
        ``roots_many``."""
        return roots_many([self])[0]


def _trim(arr: np.ndarray) -> np.ndarray:
    """``arr`` without its trailing coefficients of modulus at most
    ``config.TAU_COEFF`` times the largest."""
    mags = np.abs(arr)
    cut = mags.max(initial=0.0) * config.TAU_COEFF
    keep = arr.size
    while keep and mags[keep - 1] <= cut:
        keep -= 1
    return arr[:keep]


def stack_coeffs(polys: Sequence[ComplexPoly]) -> np.ndarray:
    """The coefficients of ``polys`` as the rows of one array, zero-padded
    on the right to a common length of at least 1."""
    out = np.zeros((len(polys), max([1, *(p.coeffs.size for p in polys)])),
                   dtype=np.complex128)
    for row, p in zip(out, polys):
        row[: p.coeffs.size] = p.coeffs
    return out


def roots_many(polys: Sequence[ComplexPoly]
               ) -> list[list[tuple[complex, int]]]:
    """``p.roots()`` for each polynomial, with one eigensolve per degree.

    Each root list is sorted by (real, imag).  Companion-matrix eigenvalues,
    each polished with one guarded Newton step, are clustered: eigenvalues
    within ``config.TAU_CLUSTER`` of a cluster representative merge and
    their count is the multiplicity.  The companion matrices of one degree
    >= 2 go to a single ``np.linalg.eigvals`` call as a stack; degree 1 is
    solved in closed form.  Each degree's stack is polished at once.  A row
    whose roots are all more than ``TAU_CLUSTER`` apart, found with one
    array comparison per stack, is its sorted roots, each simple: the same
    bits ``_cluster_points`` would return; only the other rows take its
    loop.
    """
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(polys):
        if p.is_zero:
            raise ZeroPolynomial("zero polynomial has every point as a root")
        if p.degree >= 1:
            groups.setdefault(p.degree, []).append(i)
    out: list[list[tuple[complex, int]]] = [[] for _ in polys]
    for d, members in groups.items():
        P = np.array([polys[i].coeffs for i in members])
        monic = P[:, :-1] / P[:, -1:]
        if d == 1:
            eigs = -monic
        else:
            C = np.zeros((len(members), d, d), dtype=np.complex128)
            C[:, 1:, :-1] = np.eye(d - 1)
            C[:, :, -1] = -monic
            eigs = np.linalg.eigvals(C)
            del C  # the largest array here; not kept through the polish
        roots = _newton(P, eigs)
        # A row is simple when each of its d(d-1) gaps between two roots is
        # above TAU_CLUSTER; a NaN gap is not, so its row takes the loop.
        far = np.abs(roots[:, :, None] - roots[:, None, :]) > config.TAU_CLUSTER
        simple = far.sum(axis=(1, 2)) == d * (d - 1)
        order = np.lexsort((roots.imag, roots.real)).tolist()
        for i, alone, row, rank in zip(members, simple.tolist(),
                                       roots.tolist(), order):
            if alone:
                out[i] = [(row[k], 1) for k in rank]
            else:
                clusters = _cluster_points(row, config.TAU_CLUSTER)
                clusters.sort(key=lambda rm: (rm[0].real, rm[0].imag))
                out[i] = clusters
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
    vals = polyval_grid(both, np.concatenate([r, r]))
    f, df = vals[:K], vals[K:]
    cand = r - np.divide(f, df, out=np.zeros_like(f), where=df != 0)
    # A refused step may overflow on its way to being refused.
    with np.errstate(over="ignore", invalid="ignore"):
        better = np.abs(polyval_grid(P, cand)) < np.abs(f)
    return np.where(better, cand, r)


def _cluster_points(points: Sequence[complex],
                    tau: float) -> list[tuple[complex, int]]:
    reps: list[complex] = []
    sums: list[complex] = []
    counts: list[int] = []
    for pt in sorted(points, key=lambda c: (c.real, c.imag)):
        for i, rep in enumerate(reps):
            if abs(pt - rep) <= tau:
                sums[i] += pt
                counts[i] += 1
                # Keep the representative at the running centroid so the
                # cluster does not drift past tau from its own members.
                reps[i] = sums[i] / counts[i]
                break
        else:
            reps.append(pt)
            sums.append(pt)
            counts.append(1)
    return list(zip(reps, counts))


def multiple_roots(polys: Sequence[ComplexPoly]
                   ) -> list[list[tuple[complex, int]]]:
    """``roots_many(polys)`` with the scatter of multiple roots regrouped,
    each list sorted by (real, imag).

    The eigenvalues of an m-fold root scatter by about (eps times its
    condition)^(1/m), which passes ``config.TAU_CLUSTER`` once m >= 4 or
    other roots sit nearby.  A group of clusters, starting from all of them,
    is one m-fold root at c when one Newton step from the group's centroid
    on p^(m-1) lands within the group's spread at c, and every lower Taylor
    coefficient p^(j)(c)/j!, j < m - 1, is at most ``config.TAU_MULTIPLE``
    times sum_i C(i, j) |p_i| |c|^(i-j): a relative change of that size in
    p's coefficients makes c an m-fold root.  A group that fails splits in
    two at the longest edge of its minimum spanning tree, down to the
    clusters ``roots_many`` returned.  The pending groups of every
    polynomial are tested one split level at a time, two ``polyval_grid``
    calls per level.
    """
    out: list[list[tuple[complex, int]]] = [[] for _ in polys]
    level = list(enumerate(roots_many(polys)))
    taylor = {k: _taylor_rows(polys[k].coeffs)
              for k, group in level if len(group) > 1}
    while level:
        tests = []
        for k, group in level:
            if len(group) > 1:
                tests.append((k, group))
            else:
                out[k].extend(group)
        found = _multiple_root_level([taylor[k] for k, _ in tests],
                                     [group for _, group in tests])
        level = []
        for (k, group), root in zip(tests, found):
            if root is None:
                level.extend((k, half) for half in _split_longest_edge(group))
            else:
                out[k].append(root)
    for roots in out:
        roots.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _taylor_rows(c: np.ndarray) -> np.ndarray:
    """Row j holds the ascending coefficients of p^(j)/j!, zero-padded, for
    p with coefficients c."""
    L = c.size
    out = np.zeros((L, L), dtype=np.complex128)
    for j in range(L):
        out[j, : L - j] = [math.comb(i, j) * c[i] for i in range(j, L)]
    return out


def _multiple_root_level(taylors: list[np.ndarray],
                         groups: list[list[tuple[complex, int]]]
                         ) -> list[tuple[complex, int] | None]:
    """For each group, (c, m) when it is one m-fold root at c of the
    polynomial whose ``_taylor_rows`` go with it, else None.

    Every row of every group is zero-padded to one width and evaluated at
    its own point, so the whole level takes two ``polyval_grid`` calls.
    """
    G = len(groups)
    if not G:
        return []
    width = max(t.shape[1] for t in taylors)
    ms = [sum(k for _, k in g) for g in groups]
    centres = [sum(r * k for r, k in g) / m for g, m in zip(groups, ms)]
    spreads = [max(abs(r - c) for r, _ in g) for g, c in zip(groups, centres)]
    # p^(m-1)/(m-1)! has a simple root at an m-fold root of p; its
    # derivative is m p^(m)/m!.
    rows = np.zeros((2 * G, width), dtype=np.complex128)
    for g, (t, m) in enumerate(zip(taylors, ms)):
        rows[2 * g: 2 * g + 2, : t.shape[1]] = t[m - 1: m + 1]
    at = np.repeat(np.array(centres, dtype=np.complex128), 2)[:, None]
    vals = polyval_grid(rows, at)[:, 0]
    value, slope = vals[0::2], vals[1::2] * np.array(ms)
    moved = np.divide(value, slope, out=np.zeros_like(value),
                      where=slope != 0)
    cs = np.array(centres, dtype=np.complex128) - moved
    # Not-greater, so a NaN step is not refused here.
    near = (slope != 0) & ~(np.abs(cs - centres) > np.array(spreads))
    live = np.flatnonzero(near).tolist()
    found: list[tuple[complex, int] | None] = [None] * G
    if not live:
        return found
    # The lower Taylor coefficients at c and their bounds at |c|, in one
    # call: row k at its own point.
    counts = [ms[g] - 1 for g in live]
    R = sum(counts)
    lower = np.zeros((R, width), dtype=np.complex128)
    r = 0
    for g, count in zip(live, counts):
        lower[r: r + count, : taylors[g].shape[1]] = taylors[g][:count]
        r += count
    pts = np.repeat(cs[live], counts)[:, None]
    vals = polyval_grid(np.concatenate([lower, np.abs(lower)]),
                        np.concatenate([pts, np.abs(pts)]))[:, 0]
    bad = np.abs(vals[:R]) > config.TAU_MULTIPLE * vals[R:].real
    starts = np.cumsum([0, *counts[:-1]])
    for g, rejected in zip(live, np.logical_or.reduceat(bad, starts).tolist()):
        if not rejected:
            found[g] = (complex(cs[g]), ms[g])
    return found


def _split_longest_edge(group: list[tuple[complex, int]]
                        ) -> list[list[tuple[complex, int]]]:
    """The two halves of ``group`` left when the longest edge of its
    minimum spanning tree (Prim's, from the first cluster) is cut."""
    pts = [r for r, _ in group]
    dist = [abs(pts[0] - q) for q in pts]
    parent = [0] * len(pts)
    todo = set(range(1, len(pts)))
    longest = (-1.0, 0)
    while todo:
        i = min(todo, key=lambda k: (dist[k], k))
        todo.discard(i)
        longest = max(longest, (dist[i], i))
        for k in todo:
            if abs(pts[i] - pts[k]) < dist[k]:
                dist[k], parent[k] = abs(pts[i] - pts[k]), i
    cut = longest[1]

    def below_cut(k: int) -> bool:
        while k not in (0, cut):
            k = parent[k]
        return k == cut

    halves: list[list[tuple[complex, int]]] = [[], []]
    for k, rm in enumerate(group):
        halves[below_cut(k)].append(rm)
    return halves


# ---------------------------------------------------------------------------
# polynomial combinators
# ---------------------------------------------------------------------------

def wronskian(p: ComplexPoly, q: ComplexPoly) -> ComplexPoly:
    """W(p, q) = p q' - p' q."""
    return p * q.derivative() - p.derivative() * q


def divide_out(polys: Sequence[ComplexPoly], root: complex,
               mult: int) -> list[ComplexPoly]:
    """Deflate each nonzero polynomial by its own root nearest ``root``,
    ``mult`` times; zero polynomials are returned as they are.

    Deflating by ``root`` itself, a root of another polynomial, can leave a
    large remainder when a polynomial's own root sits a few ulps away, so
    each pass first polishes every polynomial's target against its value,
    all in one array Newton step.
    """
    out = list(polys)
    live = [i for i, p in enumerate(out) if not p.is_zero]
    targets = np.full((len(live), 1), complex(root))
    for _ in range(mult):
        targets = _newton(stack_coeffs([out[i] for i in live]), targets)
        for i, t in zip(live, targets[:, 0].tolist()):
            out[i] = out[i].deflate(t)
    return out
