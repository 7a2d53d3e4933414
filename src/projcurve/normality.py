"""Empirical normality detection and Zalcman-style rescaling.

Normality of a family is a limit property, so any finite computation can
only report a surrogate verdict.  The estimator here is Marty-flavored: the
Fubini-Study derivative of each member is maximized over a grid, and the
sequence of per-member sups is classified as bounded, blow-up, or
inconclusive under declared thresholds.  When the verdict is blow-up, the
rescaling explorer recenters each member at its sup location, scales by the
reciprocal sup (forcing unit derivative at the origin), and measures how the
rescaled curves converge on a disc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from ._kernels import fs_derivative_grid, pairwise_fs_grid, pow2_scaled
from .errors import NotBlowingUp, WrongCount
from .polynomial import stack_coeffs
from .position import Region
from .projective import ProjCurve


# ---------------------------------------------------------------------------
# Fubini-Study derivative
# ---------------------------------------------------------------------------

def fs_derivative(curve: ProjCurve, z: complex) -> float:
    """Metric derivative of the curve at z: ``fs_derivative_on_grid``'s
    kernel at the one point z.

    Equals sqrt(|f|^2 |f'|^2 - |<f,f'>|^2) / |f|^2 with Euclidean norms,
    evaluated in the cancellation-free cross-term form.  At n = 1 this is
    the classical spherical derivative |g'| / (1 + |g|^2) of g = f1/f0.
    """
    return float(fs_derivative_grid(*_pack_curve(curve),
                                    np.array([z], dtype=np.complex128))[0])


def _pack_curve(curve: ProjCurve) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded component coefficients and their derivatives' (one
    column shorter), scaled together by one power of two."""
    comp = stack_coeffs(curve.components)
    return pow2_scaled(comp, comp[:, 1:] * np.arange(1, comp.shape[1]))


def fs_derivative_on_grid(curve: ProjCurve, region: Region) -> np.ndarray:
    """Fubini-Study derivative at every grid point of the region."""
    comp, dcomp = _pack_curve(curve)
    return fs_derivative_grid(comp, dcomp, region.grid_points())


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
    """Grid sup of the Fubini-Study derivative per member, with a verdict.

    A constant curve has derivative 0 at every grid point, so it gets sup 0.0
    at the first grid point, as the grid sweep would give, without one.  A
    curve object listed more than once is swept once.
    """
    members = list(members)
    if not members:
        raise WrongCount("need at least one member curve")
    pts = region.grid_points()
    swept: dict[ProjCurve, MemberMarty] = {}
    for f in members:
        if f in swept:
            continue
        if f.is_constant:
            swept[f] = MemberMarty(sup=0.0, argmax=complex(pts[0]))
            continue
        vals = fs_derivative_on_grid(f, region)
        idx = int(np.argmax(vals))
        swept[f] = MemberMarty(sup=float(vals[idx]), argmax=complex(pts[idx]))
    per = [swept[f] for f in members]
    sups = tuple(m.sup for m in per)
    return MartyStats(members=tuple(per), sups=sups,
                      verdict=_classify(sups))


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
            "unit_derivative_at_zero": [
                fs_derivative(g, 0.0) for g in self.rescaled],
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
    """
    members = list(members)
    if len(members) != len(stats.members):
        raise WrongCount(
            f"{len(members)} members but {len(stats.members)} Marty sups")
    if stats.verdict != "blow-up":
        raise NotBlowingUp(
            f"family verdict is {stats.verdict!r}; rescaling needs blow-up")
    centers = []
    rhos = []
    rescaled = []
    for i, (f, mm) in enumerate(zip(members, stats.members)):
        if mm.sup == 0.0:
            raise NotBlowingUp(
                f"member {i} has Marty sup 0; rescaling needs a positive sup")
        rho = 1.0 / mm.sup
        comps = [p.shift_scale(mm.argmax, rho) for p in f.components]
        centers.append(mm.argmax)
        rhos.append(rho)
        rescaled.append(ProjCurve(comps, check_reduced=False))
    zeta = _zeta_disc(ZETA_RADIUS, ZETA_PER_AXIS)
    samples = [g.at_many(zeta) for g in rescaled]
    # Only the last pair's distances are kept, for ``limit_distances``.
    last = np.zeros(zeta.size)
    residuals = []
    for a, b in zip(samples, samples[1:]):
        last = pairwise_fs_grid(a, b)
        residuals.append(float(np.max(last)))
    rho_arr = np.array(rhos)
    return ZalcmanTrace(
        centers=tuple(centers),
        rhos=tuple(rhos),
        rescaled=tuple(rescaled),
        zeta_points=zeta,
        limit_candidate=samples[-1],
        limit_distances=last,
        residuals=tuple(residuals),
        convergence_residual=residuals[-1] if residuals else 0.0,
        rho_decreasing=bool(np.all(np.diff(rho_arr) < 0)),
    )
