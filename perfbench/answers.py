"""Known answers, derived from how each scene is built.

Nothing here imports projcurve: every expected value comes from the
construction itself, so the benchmark can catch the program being wrong.
"""

from __future__ import annotations

import cmath
import itertools
import math

import mpmath
import numpy as np


def vandermonde_nodes(n: int) -> list[complex]:
    """Nodes b_j = exp(2 pi i j / (2n+1)) of the fixed hyperplanes
    (1, b_j, ..., b_j^n)."""
    q = 2 * n + 1
    return [cmath.exp(2j * math.pi * j / q) for j in range(q)]


def vandermonde_product(n: int) -> float:
    """General-position product of the 2n+1 Vandermonde hyperplanes.

    Every coefficient has modulus at most 1 with equality at b^0, so
    normalization is the identity, and each (n+1)-subset determinant is the
    Vandermonde product of |b_i - b_j| over its pairs.  The value does not
    depend on z.
    """
    b = vandermonde_nodes(n)
    total = mpmath.mpf(1)
    for sub in itertools.combinations(range(len(b)), n + 1):
        for i, j in itertools.combinations(sub, 2):
            total *= abs(b[i] - b[j])
    return float(total)


def blowup_peak(n: int) -> tuple[float, float]:
    """Sup c_n and its radius r_n of the Fubini-Study derivative of
    w -> [1 : w : ... : w^n].

    The derivative depends on |w| = r only.  With s = sum r^(2l),
    d = sum l^2 r^(2l-2) and p = sum l r^(2l-1) it equals
    sqrt(s d - p^2) / s; its radial maximum is found with mpmath.  The
    member [1 : nu z : ... : (nu z)^n] then peaks at c_n * nu on the
    circle |z| = r_n / nu.
    """
    with mpmath.workdps(30):
        def g(r):
            s = sum(r ** (2 * l) for l in range(n + 1))
            d = sum(l * l * r ** (2 * l - 2) for l in range(1, n + 1))
            p = sum(l * r ** (2 * l - 1) for l in range(1, n + 1))
            return mpmath.sqrt(s * d - p * p) / s

        r = mpmath.findroot(lambda t: mpmath.diff(g, t), 0.7)
        return float(g(r)), float(r)


def _spread_points(rng: np.random.Generator, count: int, half_width: float,
                   min_gap: float) -> list[complex]:
    pts: list[complex] = []
    while len(pts) < count:
        z = complex(*rng.uniform(-half_width, half_width, size=2))
        if all(abs(z - w) >= min_gap for w in pts):
            pts.append(z)
    return pts


def planted_member(rng: np.random.Generator, degree: int, multiple: bool
                   ) -> tuple[list[tuple[complex, int]], np.ndarray,
                              np.ndarray]:
    """Roots with multiplicities of f0 and the coefficients of f1, f2.

    f0 has its roots in [-0.8, 0.8]^2, pairwise at least 0.1 apart.  When
    ``multiple`` is set, one or two of them have multiplicity 2 to 4;
    otherwise f0 is squarefree.  f1 and f2 are random polynomials of the
    same degree (ascending complex coefficients).
    """
    mults: list[int] = []
    if multiple:
        mults.append(int(rng.integers(2, 5)))
        left = degree - mults[0]
        if left >= 2 and rng.random() < 0.5:
            mults.append(int(rng.integers(2, min(4, left) + 1)))
    mults += [1] * (degree - sum(mults))
    roots = list(zip(_spread_points(rng, len(mults), 0.8, 0.1), mults))
    f1, f2 = ((rng.standard_normal(degree + 1)
               + 1j * rng.standard_normal(degree + 1)) / 3.0
              for _ in range(2))
    return roots, f1, f2


def derived_degree(degree: int, roots: list[tuple[complex, int]]) -> int:
    """Degree of the derived map of [f0 : f1 : ... ] with deg f_l = degree.

    The tuple [f0^2 : W(f0, f1) : ...] has degree 2*degree, carried by
    f0^2, and its common factor is gcd(f0, f0'), of degree sum(k - 1) over
    the roots of f0 with multiplicity k.
    """
    return 2 * degree - sum(k - 1 for _, k in roots)
