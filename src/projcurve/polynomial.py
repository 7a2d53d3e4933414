"""Complex polynomials in one variable with numerically tolerant helpers.

Coefficients are stored ascending (constant term first) as complex128.
Construction trims trailing coefficients that are negligible relative to the
largest magnitude, so arithmetic keeps degrees honest.  Root finding goes
through the companion matrix, with one guarded Newton polish per root and a
clustering pass that merges eigenvalue splatter from multiple roots back
into (root, multiplicity) pairs.

Every evaluation, scalar or array, goes through the batched Horner kernel
``polyval_grid``.  ``root_stacks`` hands the companion matrices of every
coefficient row of one degree to a single ``np.linalg.eigvals`` call and
polishes the whole stack with one array Newton step; ``roots_many``,
``multiple_roots`` and the checker's zero sets read its stacks.  The results
are deterministic (the same calls give the same bits), and their accuracy
is tested against mpmath oracles at stated tolerances.
"""

from __future__ import annotations

import functools
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
        self._coeffs = arr[: trimmed_lengths(arr)]
        self._coeffs.setflags(write=False)

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
        return [[c.real, c.imag] for c in self._coeffs.tolist()]

    # -- root finding ----------------------------------------------------

    def roots(self) -> list[tuple[complex, int]]:
        """Roots with multiplicities, sorted by (real, imag); see
        ``roots_many``."""
        return roots_many([self._coeffs])[0]


def trimmed_lengths(rows: np.ndarray) -> np.ndarray:
    """The length of each coefficient row (the last axis of ``rows``) once
    its trailing coefficients of modulus at most ``config.TAU_COEFF`` times
    the row's largest are cut; 0 for a row of zeros."""
    # Coefficients first, so every reduction runs along axis 0.  At-most,
    # so a NaN largest modulus cuts nothing.
    mags = np.abs(rows).T
    cut = mags <= config.TAU_COEFF * mags.max(0, initial=0.0)
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
    ``ComplexPoly.coeffs`` holds them.  Yields ``(members, roots, gaps,
    clusters)`` for each degree d: the indices of the rows of degree d; their
    roots, a (B, d) array with each row sorted by (real, imag); the (B, d, d)
    moduli of the differences of each row's roots; and for each row None
    when all its d(d-1) gaps exceed ``config.TAU_CLUSTER`` (every root
    simple), else its ``_cluster_points`` clusters sorted by (real, imag).

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
        roots = roots[np.arange(len(members))[:, None],
                      np.lexsort((roots.imag, roots.real))]
        gaps = np.abs(roots[:, :, None] - roots[:, None, :])
        simple = _apart(gaps, config.TAU_CLUSTER).tolist()
        clusters = [None if alone else _sorted_clusters(row)
                    for alone, row in zip(simple, roots.tolist())]
        yield members, roots, gaps, clusters


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


def _sorted_clusters(points: list[complex]) -> list[tuple[complex, int]]:
    """``_cluster_points`` at ``config.TAU_CLUSTER``, sorted in place by
    (real, imag)."""
    clusters = _cluster_points(points, config.TAU_CLUSTER)
    clusters.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return clusters


def _apart(gaps: np.ndarray, radius) -> np.ndarray:
    """Whether each row's d(d-1) gaps off the diagonal all exceed
    ``radius`` (a number or an array broadcast against ``gaps``); a NaN gap
    does not."""
    d = gaps.shape[-1]
    return (gaps > radius).sum(axis=(1, 2)) == d * (d - 1)


def roots_many(rows: Sequence[np.ndarray]
               ) -> list[list[tuple[complex, int]]]:
    """``ComplexPoly(c).roots()`` for each coefficient row c (a
    ``ComplexPoly.coeffs``), with one eigensolve per degree
    (``root_stacks``).

    Each root list is sorted by (real, imag).  Polished eigenvalues within
    ``config.TAU_CLUSTER`` of a cluster representative merge and their
    count is the multiplicity.  A row whose roots are all more than
    ``TAU_CLUSTER`` apart, found with one array comparison per stack, is its
    sorted roots, each simple: the same bits ``_cluster_points`` would
    return; only the other rows take its loop.
    """
    out: list[list[tuple[complex, int]]] = [[] for _ in rows]
    for members, roots, _, clusters in root_stacks(rows):
        for i, row, found in zip(members, roots.tolist(), clusters):
            out[i] = [(z, 1) for z in row] if found is None else found
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
    """``roots_many`` of the polynomials' coefficients with the scatter of
    multiple roots regrouped, each list sorted by (real, imag).

    The eigenvalues of an m-fold root scatter by about (eps times its
    condition)^(1/m), which passes ``config.TAU_CLUSTER`` once m >= 4 or
    other roots sit nearby.  A group of clusters is one m-fold root at c
    when one Newton step from the group's centroid on p^(m-1) lands within
    the group's spread at c, and every lower Taylor coefficient
    p^(j)(c)/j!, j < m - 1, is at most ``config.TAU_MULTIPLE`` times
    sum_i C(i, j) |p_i| |c|^(i-j): a relative change of that size in p's
    coefficients makes c an m-fold root.

    Groups are built bottom-up.  Two clusters a, b of a polynomial of
    degree d are linked when |a - b| <= 2 TAU_MULTIPLE^(1/d) max(1, |a|,
    |b|), and only the groups that links connect are tested.  The radius is
    the widest scatter the test above can take as one root: a relative
    change eta in the coefficients moves an m-fold root c by about
    (eta B(|c|) / |p^(m)(c)/m!|)^(1/m), B(x) = sum_i |p_i| x^i, and for
    coefficients of one size the ratio in it is about max(1, |c|)^m; so with
    eta <= TAU_MULTIPLE < 1 and m <= d the clusters of one root lie within
    TAU_MULTIPLE^(1/d) max(1, |c|) of c, and within twice that of each
    other.  (At d = 8 the radius is 0.047; in a sweep of 2000 degree-8
    polynomials, 636 5-fold roots scattered at most 3.7e-3 from the root.)
    A group that
    fails splits in two at the longest edge of its minimum spanning tree,
    down to single clusters, which stay as ``roots_many`` returned them;
    a polynomial with no linked clusters makes no test.  The pending
    groups of every polynomial are tested one split level at a time, two
    ``polyval_grid`` calls per level.
    """
    out: list[list[tuple[complex, int]]] = [[] for _ in polys]
    level = []
    for members, roots, gaps, clusters in root_stacks(
            [p.coeffs for p in polys]):
        reach = 2.0 * config.TAU_MULTIPLE ** (1.0 / roots.shape[1])
        scale = np.maximum(1.0, np.abs(roots))
        alone = _apart(gaps, reach * np.maximum(scale[:, :, None],
                                                scale[:, None, :]))
        for k, row, found, lone in zip(members, roots.tolist(), clusters,
                                       alone.tolist()):
            if found is None:
                found = [(z, 1) for z in row]
            if lone:
                out[k] = found
                continue
            for group in _linked_groups(found, reach):
                if len(group) > 1:
                    level.append((k, group))
                else:
                    out[k].extend(group)
    taylor = {k: _taylor_rows(polys[k].coeffs) for k in {k for k, _ in level}}
    while level:
        found = _multiple_root_level([taylor[k] for k, _ in level],
                                     [group for _, group in level])
        pending = []
        for (k, group), root in zip(level, found):
            if root is not None:
                out[k].append(root)
                continue
            for half in _split_longest_edge(group):
                if len(half) > 1:
                    pending.append((k, half))
                else:
                    out[k].extend(half)
        level = pending
    for roots in out:
        roots.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _linked_groups(clusters: list[tuple[complex, int]], reach: float
                   ) -> list[list[tuple[complex, int]]]:
    """The clusters split into the groups that links |a - b| <= reach *
    max(1, |a|, |b|) connect (single linkage), each group in the clusters'
    order."""
    label = list(range(len(clusters)))
    for i, (a, _) in enumerate(clusters):
        for j, (b, _) in enumerate(clusters[:i]):
            if (label[i] != label[j]
                    and abs(a - b) <= reach * max(1.0, abs(a), abs(b))):
                old = label[i]
                label = [label[j] if x == old else x for x in label]
    groups: dict[int, list[tuple[complex, int]]] = {}
    for x, cluster in zip(label, clusters):
        groups.setdefault(x, []).append(cluster)
    return list(groups.values())


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
    """W(p, q) = p q' - p' q, from the coefficient arrays, trimmed once."""
    a, b = p.coeffs, q.coeffs
    if a.size <= 1 and b.size <= 1:
        return ComplexPoly.zero()
    # A constant's derivative, and a zero factor, is the one coefficient 0
    # (np.convolve refuses an empty array).
    zero = np.zeros(1, dtype=np.complex128)
    da = a[1:] * np.arange(1, a.size) if a.size > 1 else zero
    db = b[1:] * np.arange(1, b.size) if b.size > 1 else zero
    left = np.convolve(a if a.size else zero, db)
    right = np.convolve(da, b if b.size else zero)
    out = np.zeros(max(left.size, right.size), dtype=np.complex128)
    out[: left.size] += left
    out[: right.size] -= right
    return ComplexPoly(out)


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
