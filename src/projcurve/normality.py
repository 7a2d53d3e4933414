"""Empirical normality detection and Zalcman-style rescaling.

Normality of a family is a limit property, so any finite computation can
only report a surrogate verdict.  The estimator here is Marty-flavored: the
Fubini-Study derivative of each member is maximized over a grid, and the
sequence of per-member sups is classified as bounded, blow-up, or
inconclusive under declared thresholds.  When the verdict is blow-up, the
rescaling explorer recenters each member at its sup location, scales by the
reciprocal sup (forcing unit derivative at the origin), and measures how the
rescaled curves converge on a disc.  Both take a family at once, its
members on the batch axis of the stacked kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels, config
from ._kernels import (fs_derivative_grid, pairwise_fs_grid, polyval_grid,
                       pow2_factors)
from .errors import NotBlowingUp, WrongCount
from .polynomial import ComplexPoly, _taylor, stack_coeffs
from .position import Region
from .projective import ProjCurve


# ---------------------------------------------------------------------------
# Fubini-Study derivative
# ---------------------------------------------------------------------------

def fs_derivative(curve: ProjCurve, z: complex) -> float:
    """Metric derivative of the curve at z: the stacked kernel at the one
    curve and the one point z.

    Equals sqrt(|f|^2 |f'|^2 - |<f,f'>|^2) / |f|^2 with Euclidean norms,
    evaluated in the cancellation-free cross-term form.  At n = 1 this is
    the classical spherical derivative |g'| / (1 + |g|^2) of g = f1/f0.
    """
    return float(_fs_values([curve],
                            np.array([z], dtype=np.complex128))[0, 0])


def fs_derivative_on_grid(curve: ProjCurve, region: Region) -> np.ndarray:
    """Fubini-Study derivative at every grid point of the region: the
    stacked kernel at the one curve."""
    return _fs_values([curve], region.grid_points())[0]


def _fs_values(curves: Sequence[ProjCurve], pts: np.ndarray) -> np.ndarray:
    """The Fubini-Study derivative of every curve at every point, (B, M)."""
    out = np.empty((len(curves), pts.shape[0]))
    for idx, vals in _fs_blocks(curves, pts):
        out[idx] = vals
    return out


def _fs_blocks(curves: Sequence[ProjCurve], pts: np.ndarray):
    """The Fubini-Study derivative of the curves at the points, as
    ``(indices, values)`` blocks: one ``fs_derivative_grid`` call per block
    of whole curves with the same n, at most ``_EVAL_BLOCK`` values per
    ``polyval_grid`` call and at least one curve.

    The curves are packed with one ``stack_coeffs`` call.  Each curve's
    components, and their derivatives one column shorter, are scaled
    together by the ``pow2_factors`` power of two of their largest modulus,
    so tiny or huge coefficients neither underflow nor overflow.
    """
    if not curves:
        return
    sizes = [f.n + 1 for f in curves]
    comp = stack_coeffs([p for f in curves for p in f.components])
    dcomp = comp[:, 1:] * np.arange(1, comp.shape[1])
    starts = np.cumsum(sizes) - sizes
    top = np.maximum.reduceat(np.maximum(
        np.abs(comp).max(axis=1), np.abs(dcomp).max(axis=1, initial=0.0)),
        starts)
    finite, factor = pow2_factors(top)
    scaled = np.repeat(finite, sizes)
    factor = np.repeat(factor, sizes)[scaled, None]
    comp[scaled] *= factor
    dcomp[scaled] *= factor
    groups: dict[int, list[int]] = {}
    for i, P in enumerate(sizes):
        groups.setdefault(P, []).append(i)
    for P, idx in groups.items():
        L = max(p.coeffs.size for i in idx for p in curves[i].components)
        rows = starts[idx, None] + np.arange(P)  # each curve's P rows
        # A curve is 2P rows of the kernel's polyval_grid call.
        step = max(1, _kernels._EVAL_BLOCK // (2 * P * pts.shape[0]))
        for a in range(0, len(idx), step):
            r = rows[a:a + step]
            yield idx[a:a + step], fs_derivative_grid(
                comp[r, :L], dcomp[r, :L - 1], pts)


# ---------------------------------------------------------------------------
# Marty-type estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemberMarty:
    sup: float
    argmax: complex


@dataclass(frozen=True)
class MartyStats:
    members: tuple[MemberMarty, ...]
    sups: tuple[float, ...]
    verdict: str

    def to_json(self) -> dict:
        return {
            "sups": list(self.sups),
            "argmax": [[m.argmax.real, m.argmax.imag] for m in self.members],
            "verdict": self.verdict,
            "thresholds": {
                "cap": config.MARTY_CAP,
                "growth_factor": config.MARTY_GROWTH_FACTOR,
                "window": config.MARTY_WINDOW,
            },
        }


def _classify(sups: Sequence[float]) -> str:
    """Empirical verdict over the per-member sup sequence.

    blow-up: the last MARTY_WINDOW sups are strictly increasing and the
    final sup has grown by a factor >= MARTY_GROWTH_FACTOR over the sequence
    minimum.
    bounded: no blow-up and every sup is at most MARTY_CAP.
    inconclusive: too few members for a trend, or sups beyond the cap
    without a clean growth signature.
    """
    window = config.MARTY_WINDOW
    if len(sups) < window:
        return "inconclusive"
    tail = sups[-window:]
    increasing = all(tail[i] < tail[i + 1] for i in range(len(tail) - 1))
    if increasing and sups[-1] >= config.MARTY_GROWTH_FACTOR * min(sups):
        return "blow-up"
    if max(sups) <= config.MARTY_CAP:
        return "bounded"
    return "inconclusive"


def marty_sup(members: Sequence[ProjCurve], region: Region) -> MartyStats:
    """``marty_sups`` of one family."""
    return marty_sups([members], region)[0]


def marty_sups(families: Sequence[Sequence[ProjCurve]],
               region: Region) -> list[MartyStats]:
    """Grid sup of the Fubini-Study derivative per member of each family,
    with the family's verdict.

    Every distinct curve object of all the families is swept once, in one
    stacked pass.  A constant curve has derivative 0 at every grid point,
    so it gets sup 0.0 at the first grid point, as the grid sweep would
    give, without one.
    """
    families = [list(members) for members in families]
    if not all(families):
        raise WrongCount("need at least one member curve")
    pts = region.grid_points()
    distinct = list(dict.fromkeys(f for members in families for f in members))
    swept = dict.fromkeys(distinct,
                          MemberMarty(sup=0.0, argmax=complex(pts[0])))
    moving = [f for f in distinct if not f.is_constant]
    for idx, vals in _fs_blocks(moving, pts):
        at = np.argmax(vals, axis=1)
        sups = vals[np.arange(len(idx)), at].tolist()
        for i, k, sup in zip(idx, at.tolist(), sups):
            swept[moving[i]] = MemberMarty(sup=sup, argmax=complex(pts[k]))
    out = []
    for members in families:
        per = tuple(swept[f] for f in members)
        sups = tuple(m.sup for m in per)
        out.append(MartyStats(members=per, sups=sups,
                              verdict=_classify(sups)))
    return out


# ---------------------------------------------------------------------------
# Zalcman-style rescaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZalcmanTrace:
    centers: tuple[complex, ...]
    rhos: tuple[float, ...]
    rescaled: tuple[ProjCurve, ...]
    zeta_points: np.ndarray
    limit_candidate: np.ndarray
    # Fubini-Study distance from the second-to-last rescaled member to the
    # limit candidate at each zeta point; its max is the last residual.
    limit_distances: np.ndarray
    residuals: tuple[float, ...]
    convergence_residual: float
    rho_decreasing: bool

    def to_json(self) -> dict:
        return {
            "centers": [[z.real, z.imag] for z in self.centers],
            "rhos": list(self.rhos),
            "rescaled": [g.to_json() for g in self.rescaled],
            "limit_candidate": self.rescaled[-1].to_json(),
            "residuals": list(self.residuals),
            "convergence_residual": self.convergence_residual,
            "rho_decreasing": self.rho_decreasing,
            "zeta_radius": ZETA_RADIUS,
            "num_zeta_points": int(self.zeta_points.size),
            # One stacked kernel call at zeta = 0.
            "unit_derivative_at_zero": _fs_values(
                self.rescaled, np.zeros(1, dtype=np.complex128))[:, 0]
            .tolist(),
        }


# The rescaled curves are compared on a disc of this radius, sampled on a
# square grid with this many points per axis.
ZETA_RADIUS = 1.0
ZETA_PER_AXIS = 41


def _zeta_disc(radius: float, per_axis: int) -> np.ndarray:
    xs = np.linspace(-radius, radius, per_axis)
    X, Y = np.meshgrid(xs, xs)
    zs = (X + 1j * Y).ravel()
    return zs[np.abs(zs) <= radius]


def zalcman_search(members: Sequence[ProjCurve],
                   stats: MartyStats) -> ZalcmanTrace:
    """Rescale a blowing-up family around its derivative maxima.

    ``stats`` is ``marty_sup`` of the same members.  For each member:
    center = grid argmax of the FS derivative, scale rho = 1 / sup,
    rescaled curve g(zeta) = f(center + rho * zeta) built by exact
    coefficient recomposition (Taylor shift plus power scaling), so the
    unit derivative at zeta = 0 and all residuals are free of sampling
    error.  Residuals are sups over the zeta disc of the Fubini-Study
    distance between successive rescaled members; the limit candidate is
    the last member's samples.  A blow-up verdict can still include a
    member with sup 0, such as a constant curve before the growing tail; it
    has no scale, so it raises NotBlowingUp naming its index.

    The Taylor coefficients of every component are one ``polyval_grid``
    call, each ``_taylor`` row at its member's center.  The samples and
    distances take one ``polyval_grid`` and one ``pairwise_fs_grid`` call
    per block of whole members of at most ``_EVAL_BLOCK`` values, a block's
    last member carried into the next; a member of smaller n is padded
    with zero components, which change no distance.
    """
    members = list(members)
    if len(members) != len(stats.members):
        raise WrongCount(
            f"{len(members)} members but {len(stats.members)} Marty sups")
    if stats.verdict != "blow-up":
        raise NotBlowingUp(
            f"family verdict is {stats.verdict!r}; rescaling needs blow-up")
    for i, mm in enumerate(stats.members):
        if mm.sup == 0.0:
            raise NotBlowingUp(
                f"member {i} has Marty sup 0; rescaling needs a positive sup")
    centers = tuple(mm.argmax for mm in stats.members)
    rhos = tuple(1.0 / mm.sup for mm in stats.members)
    sizes = [f.n + 1 for f in members]
    comps = stack_coeffs([p for f in members for p in f.components])
    R, L = comps.shape
    owner = np.repeat(np.arange(len(members)), sizes)
    # Row r * L + j is component r's j-th Taylor coefficient at its center.
    taylor = polyval_grid(
        _taylor(comps, np.repeat(np.arange(R), L), np.tile(np.arange(L), R)),
        np.repeat(np.array(centers, dtype=np.complex128)[owner], L)[:, None])
    powers = np.array(rhos, dtype=np.complex128)[owner, None] ** np.arange(L)
    polys = iter(ComplexPoly.from_rows(taylor.reshape(R, L) * powers))
    rescaled = tuple(ProjCurve([next(polys) for _ in range(P)],
                               check_reduced=False) for P in sizes)
    zeta = _zeta_disc(ZETA_RADIUS, ZETA_PER_AXIS)
    P, M = max(sizes), zeta.size
    pad = (ComplexPoly.zero(),)
    coeffs = stack_coeffs([p for g in rescaled
                           for p in g.components + pad * (P - g.n - 1)])
    coeffs = coeffs.reshape(len(members), P, -1)
    step = max(1, _kernels._EVAL_BLOCK // (P * M))
    vals = np.zeros((0, P, M), dtype=np.complex128)
    residuals: list[float] = []
    for a in range(0, len(members), step):
        block = polyval_grid(coeffs[a:a + step].reshape(-1, coeffs.shape[2]),
                             zeta).reshape(-1, P, M)
        vals = np.concatenate([vals[-1:], block])
        dist = pairwise_fs_grid(vals[:-1], vals[1:])
        residuals += dist.max(axis=1).tolist()
    return ZalcmanTrace(
        centers=centers,
        rhos=rhos,
        rescaled=rescaled,
        zeta_points=zeta,
        limit_candidate=vals[-1, :sizes[-1]],
        limit_distances=dist[-1] if residuals else np.zeros(M),
        residuals=tuple(residuals),
        convergence_residual=residuals[-1] if residuals else 0.0,
        rho_decreasing=bool(np.all(np.diff(rhos) < 0)),
    )
