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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels, config
# pairwise_fs_grid stays bound here, where the benchmark's trace wraps the
# kernels normality calls; zalcman_search calls its two steps, fs_scale and
# fs_distance, itself.
from ._kernels import (fs_derivative_grid, fs_distance, fs_scale,  # noqa: F401
                       fs_workspace, pairwise_fs_grid, polyval_grid,
                       pow2_factors)
from .errors import NotBlowingUp, NumericOverflow, WrongCount
from .polynomial import ComplexPoly, _taylor, stack_coeffs
from .position import Region
from .projective import ProjCurve, family_n


# ---------------------------------------------------------------------------
# Fubini-Study derivative
# ---------------------------------------------------------------------------

def _fs_values(curves: Sequence[ProjCurve], pts: np.ndarray) -> np.ndarray:
    """The Fubini-Study derivative of every curve at every point, (B, M)."""
    out = np.empty((len(curves), pts.shape[0]))
    for at, vals in _fs_blocks(curves, pts):
        out[at] = vals
    return out


def _fs_blocks(curves: Sequence[ProjCurve], pts: np.ndarray):
    """The Fubini-Study derivative of the curves, which share one n
    (``family_n``), at the points, as ``(slice, values)`` blocks: one
    ``fs_derivative_grid`` call per block of whole curves, at most
    ``_EVAL_BLOCK`` values per ``polyval_grid`` call and at least one
    curve.  The blocks share one ``fs_workspace``.

    The curves are packed into one (N, P, L) stack with one
    ``stack_coeffs`` call.  Each curve's components, and their derivatives
    one column shorter, are scaled together by the ``pow2_factors`` power
    of two of their largest modulus, so tiny or huge coefficients neither
    underflow nor overflow.
    """
    if not curves:
        return
    N, P, M = len(curves), family_n(curves) + 1, pts.shape[0]
    comp = stack_coeffs([p for f in curves for p in f.components]
                        ).reshape(N, P, -1)
    dcomp = comp[..., 1:] * np.arange(1, comp.shape[2])
    # A top that is 0 or not finite has the factor 1.0.
    _, factor = pow2_factors(np.maximum(
        np.abs(comp).max(axis=(1, 2)),
        np.abs(dcomp).max(axis=(1, 2), initial=0.0)))
    comp *= factor[:, None, None]
    dcomp *= factor[:, None, None]
    # A curve is 2P rows of the kernel's polyval_grid call.
    step = max(1, _kernels._EVAL_BLOCK // (2 * P * M))
    work = fs_workspace(min(step, N), P, M)
    for a in range(0, N, step):
        at = slice(a, a + step)
        yield at, fs_derivative_grid(comp[at], dcomp[at], pts, work)


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
    inconclusive: too few members for a trend, a sup that is not finite
    (the sweep overflowed), or sups beyond the cap without a clean growth
    signature.
    """
    window = config.MARTY_WINDOW
    if len(sups) < window or not all(map(math.isfinite, sups)):
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
    stacked pass; they share one n (``family_n``).  A constant curve has
    derivative 0 at every grid point, so it gets sup 0.0 at the first grid
    point, as the grid sweep would give, without one.
    """
    families = [list(members) for members in families]
    if not all(families):
        raise WrongCount("need at least one member curve")
    pts = region.grid_points()
    distinct = list(dict.fromkeys(f for members in families for f in members))
    family_n(distinct)
    swept = dict.fromkeys(distinct,
                          MemberMarty(sup=0.0, argmax=complex(pts[0])))
    moving = [f for f in distinct if not f.is_constant]
    for at, vals in _fs_blocks(moving, pts):
        top = np.argmax(vals, axis=1)
        sups = vals[np.arange(len(vals)), top].tolist()
        for f, k, sup in zip(moving[at], top.tolist(), sups):
            swept[f] = MemberMarty(sup=sup, argmax=complex(pts[k]))
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
    has no scale, so it raises NotBlowingUp naming its index.  A rescaled
    coefficient that is not finite (a Taylor binomial past the float range,
    from degree about 1030 on) raises NumericOverflow naming its member.

    The Taylor coefficients of every component are one ``polyval_grid``
    call, each ``_taylor`` row at its member's center.  The samples are one
    ``polyval_grid`` call per block of whole members of at most
    ``_EVAL_BLOCK`` values, into buffers allocated once.  Each member's
    samples are scaled in place by its own power of two and its norms taken
    once (``fs_scale``), then the distances of the block's successive pairs
    are one ``fs_distance`` call; the block's last member, scaled, and its
    norms are carried into the next block.  The members share one n
    (``family_n``).
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
    N, P = len(members), family_n(members) + 1
    comps = stack_coeffs([p for f in members for p in f.components])
    R, L = comps.shape
    owner = np.repeat(np.arange(N), P)
    # Row r * L + j is component r's j-th Taylor coefficient at its center;
    # a coefficient that leaves the float range is refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        taylor = polyval_grid(
            _taylor(comps, np.repeat(np.arange(R), L),
                    np.tile(np.arange(L), R)),
            np.repeat(np.array(centers, dtype=np.complex128)[owner],
                      L)[:, None])
        powers = (np.array(rhos, dtype=np.complex128)[owner, None]
                  ** np.arange(L))
        rows = taylor.reshape(R, L) * powers
    bad = owner[~np.isfinite(rows).all(axis=1)]
    if bad.size:
        raise NumericOverflow(
            f"member {bad[0]}: a rescaled coefficient is not finite")
    polys = ComplexPoly.from_rows(rows)
    rescaled = tuple(ProjCurve(polys[r: r + P], check_reduced=False)
                     for r in range(0, R, P))
    zeta = _zeta_disc(ZETA_RADIUS, ZETA_PER_AXIS)
    M = zeta.size
    coeffs = stack_coeffs(polys).reshape(N, P, -1)
    step = min(N, max(1, _kernels._EVAL_BLOCK // (P * M)))
    # Slot 0 holds the last member of the previous block, scaled, and its
    # norms; slots 1 ... step the members of the block.
    vals = np.empty((step + 1, P, M), dtype=np.complex128)
    mods = np.empty(vals.shape)
    norms = np.empty((step + 1, M))
    prods = np.empty((2, step, M), dtype=np.complex128)
    term = np.empty((step, M))
    residuals: list[float] = []
    for a in range(0, N, step):
        b = min(step, N - a)
        block = vals[1:b + 1]
        polyval_grid(coeffs[a:a + b].reshape(b * P, coeffs.shape[2]), zeta,
                     out=block.reshape(b * P, M))
        if a + b == N:
            limit = vals[b].copy()
        fs_scale(block, mods[1:b + 1], norms[1:b + 1])
        lo = 0 if a else 1
        dist = fs_distance(vals[lo:b], block[lo:], norms[lo:b],
                           norms[lo + 1:b + 1], prods, term)
        residuals += dist.max(axis=1).tolist()
        vals[0], norms[0] = vals[b], norms[b]
    return ZalcmanTrace(
        centers=centers,
        rhos=rhos,
        rescaled=rescaled,
        zeta_points=zeta,
        limit_candidate=limit,
        limit_distances=dist[-1] if residuals else np.zeros(M),
        residuals=tuple(residuals),
        convergence_residual=residuals[-1] if residuals else 0.0,
        rho_decreasing=bool(np.all(np.diff(rhos) < 0)),
    )
