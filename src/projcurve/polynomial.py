"""Complex polynomials in one variable with numerically tolerant helpers.

Coefficients are stored ascending (constant term first) as complex128.
Construction trims trailing coefficients that are negligible relative to the
largest magnitude, so arithmetic keeps degrees honest.  Root finding goes
through the companion matrix, with one guarded Newton polish per root and a
clustering pass that merges eigenvalue splatter from multiple roots back
into (root, multiplicity) pairs.  Each solve builds the derivative once and
polishes every eigenvalue against it in Python complex arithmetic: numpy's
array Horner and ``np.abs`` can differ from the scalar ones in the last bit,
which would move roots and report bytes.

``roots_many`` hands the companion matrices of every polynomial of one
degree to a single ``np.linalg.eigvals`` call.  Stacking keeps the bits:
numpy's linalg loop copies each matrix of a ``(B, d, d)`` stack into its own
buffer and LAPACK factors it alone, so every eigenvalue equals the one a
call on that matrix by itself returns.
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
        """Horner evaluation; accepts scalars or numpy arrays."""
        if isinstance(z, np.ndarray):
            return polyval_grid(self._coeffs[None, :],
                                z.ravel())[0].reshape(z.shape)
        return _horner(self._coeffs.tolist(), complex(z))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        return ComplexPoly(_add(self._coeffs, other._coeffs))

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
    ``config.TAU_COEFF`` times the largest.

    The largest modulus comes from numpy's array abs and each trailing one
    from its scalar abs; the two differ in the last bit on some inputs, and
    both are kept so degrees match bit for bit.
    """
    if not arr.size:
        return arr
    cut = float(np.max(np.abs(arr))) * config.TAU_COEFF
    keep = arr.size
    while keep > 0 and abs(arr[keep - 1]) <= cut:
        keep -= 1
    return arr[:keep]


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trimmed sum of two coefficient arrays: a copy of the longer with the
    shorter added into it."""
    if a.size < b.size:
        a, b = b, a
    out = a.copy()
    out[: b.size] += b
    return _trim(out)


def roots_many(polys: Sequence[ComplexPoly]
               ) -> list[list[tuple[complex, int]]]:
    """``p.roots()`` for each polynomial, with one eigensolve per degree.

    Each root list is sorted by (real, imag).  Companion-matrix eigenvalues,
    each polished with one guarded Newton step, are clustered: eigenvalues
    within ``config.TAU_CLUSTER`` of a cluster representative merge and
    their count is the multiplicity.  The companion matrices of one degree
    >= 2 go to a single ``np.linalg.eigvals`` call as a stack; degree 1 is
    solved in closed form.
    """
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(polys):
        if p.is_zero:
            raise ZeroPolynomial("zero polynomial has every point as a root")
        if p.degree >= 1:
            groups.setdefault(p.degree, []).append(i)
    eigs: dict[int, np.ndarray] = {}
    for d, members in groups.items():
        monics = [polys[i].coeffs / polys[i].coeffs[-1] for i in members]
        if d == 1:
            eigs.update((i, -m[:1]) for i, m in zip(members, monics))
            continue
        C = np.zeros((len(members), d, d), dtype=np.complex128)
        C[:, 1:, :-1] = np.eye(d - 1)
        for k, m in enumerate(monics):
            C[k, :, -1] = -m[:-1]
        eigs.update(zip(members, np.linalg.eigvals(C)))
    out = []
    for i, p in enumerate(polys):
        if i not in eigs:
            out.append([])
            continue
        cs = p.coeffs.tolist()
        ds = p.derivative().coeffs.tolist()
        polished = [_polish(cs, ds, complex(r)) for r in eigs[i]]
        clusters = _cluster_points(polished, config.TAU_CLUSTER)
        clusters.sort(key=lambda rm: (rm[0].real, rm[0].imag))
        out.append(clusters)
    return out


def _horner(cs: list[complex], z: complex) -> complex:
    """Value at z of the ascending coefficient list cs (0j when empty)."""
    if not cs:
        return 0j
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * z + c
    return acc


def _polish(cs: list[complex], ds: list[complex], r: complex) -> complex:
    """One guarded Newton step for the polynomial cs with derivative ds."""
    fr = _horner(cs, r)
    dfr = _horner(ds, r)
    if dfr == 0:
        return r
    cand = r - fr / dfr
    # Accept the step only if it actually reduced the residual.
    if abs(_horner(cs, cand)) < abs(fr):
        return cand
    return r


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
            # Start from 0 as sum() does: 0 + (-0.0) is 0.0.
            sums.append(0 + pt)
            counts.append(1)
    return list(zip(reps, counts))


def multiple_roots(p: ComplexPoly) -> list[tuple[complex, int]]:
    """``p.roots()`` with the scatter of multiple roots regrouped, sorted by
    (real, imag).

    The eigenvalues of an m-fold root scatter by about (eps times its
    condition)^(1/m), which passes ``config.TAU_CLUSTER`` once m >= 4 or
    other roots sit nearby.  A group of clusters, starting from all of them,
    is one m-fold root at c when one Newton step from the group's centroid
    on p^(m-1) lands within the group's spread at c, and every lower Taylor
    coefficient p^(j)(c)/j!, j < m - 1, is at most ``config.TAU_MULTIPLE``
    times sum_i C(i, j) |p_i| |c|^(i-j): a relative change of that size in
    p's coefficients makes c an m-fold root.  A group that fails splits in
    two at the longest edge of its minimum spanning tree, down to the
    clusters ``roots()`` returned.
    """
    cs = p.coeffs.tolist()
    out: list[tuple[complex, int]] = []
    roots = p.roots()
    stack = [roots] if roots else []
    while stack:
        group = stack.pop()
        root = _multiple_root(cs, group) if len(group) > 1 else group[0]
        if root is None:
            stack.extend(_split_longest_edge(group))
        else:
            out.append(root)
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _taylor(cs: list[complex], j: int) -> list[complex]:
    """Ascending coefficients of p^(j)/j! for p with coefficients cs."""
    return [math.comb(i, j) * cs[i] for i in range(j, len(cs))]


def _multiple_root(cs: list[complex], group: list[tuple[complex, int]]
                   ) -> tuple[complex, int] | None:
    m = sum(k for _, k in group)
    centre = sum(r * k for r, k in group) / m
    spread = max(abs(r - centre) for r, _ in group)
    # p^(m-1)/(m-1)! has a simple root at an m-fold root of p.
    lower = _taylor(cs, m - 1)
    slope = _horner([i * c for i, c in enumerate(lower)][1:], centre)
    if slope == 0:
        return None
    c = centre - _horner(lower, centre) / slope
    if abs(c - centre) > spread:
        return None
    for j in range(m - 1):
        t = _taylor(cs, j)
        bound = _horner([abs(x) for x in t], abs(c))
        if abs(_horner(t, c)) > config.TAU_MULTIPLE * bound:
            return None
    return c, m


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


def divide_out(p: ComplexPoly, root: complex, mult: int) -> ComplexPoly:
    """Deflate ``p`` by its own root nearest ``root``, ``mult`` times.

    Deflating by ``root`` itself, a root of another polynomial, can leave a
    large remainder when p's own root sits a few ulps away, so each pass
    re-polishes against p's value before dividing.
    """
    out = p
    target = complex(root)
    for _ in range(mult):
        target = _polish(out.coeffs.tolist(), out.derivative().coeffs.tolist(),
                         target)
        out = out.deflate(target)
    return out
