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
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import config
from ._kernels import polyval_grid
from .errors import ZeroPolynomial


class ComplexPoly:
    """Immutable polynomial with ascending complex coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[complex]) -> None:
        arr = np.asarray(list(coeffs), dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a flat sequence")
        if arr.size:
            top = float(np.max(np.abs(arr)))
            cut = top * config.TAU_COEFF
            keep = arr.size
            while keep > 0 and abs(arr[keep - 1]) <= cut:
                keep -= 1
            arr = arr[:keep]
        self._coeffs = arr
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
        a, b = self._coeffs, other._coeffs
        if a.size < b.size:
            a, b = b, a
        out = a.copy()
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
        """Roots with multiplicities, sorted by (real, imag).

        Companion-matrix eigenvalues, each polished with one guarded Newton
        step, then clustered: eigenvalues within ``config.TAU_CLUSTER`` of a
        cluster representative merge and their count is the multiplicity.
        """
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has every point as a root")
        if self.degree == 0:
            return []
        cs = self._coeffs.tolist()
        ds = self.derivative().coeffs.tolist()
        polished = [_polish(cs, ds, complex(r))
                    for r in _companion_roots(self._coeffs)]
        clusters = _cluster_points(polished, config.TAU_CLUSTER)
        clusters.sort(key=lambda rm: (rm[0].real, rm[0].imag))
        return clusters


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    monic = coeffs / coeffs[-1]
    d = monic.size - 1
    if d == 1:
        return np.array([-monic[0]])
    C = np.zeros((d, d), dtype=np.complex128)
    C[1:, :-1] = np.eye(d - 1)
    C[:, -1] = -monic[:-1]
    return np.linalg.eigvals(C)


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
