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

The grid sweep skips what cannot hold a sup.  The grid is cut into cells
of ``_CELL`` x ``_CELL`` points, and ``_cell_bounds`` bounds, for every
member and cell, the value the kernel computes at each of the cell's
points: the centre-0 majorant of f ^ f' over the lower end of |f|^2 that
the components' balls on the cell give, both from the enclosures of
``_kernels``.  Each member is evaluated at its best-bound cell,
then at every cell whose bound is not below the largest value found
there.  A skipped point's computed value is below a computed one, so the
sups and the first argmax in grid order are those of the full grid, bit
for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels, config
# pairwise_fs_grid stays bound here, where the benchmark's trace wraps the
# kernels normality calls; zalcman_search calls its two steps, fs_scale and
# fs_distance, itself.
from ._kernels import (_taylor, fs_derivative_grid,  # noqa: F401
                       fs_distance, fs_scale, pairwise_fs_grid,
                       polyval_grid, pow2_factors)
from .errors import NotBlowingUp, NumericOverflow, WrongCount
from .polynomial import ComplexPoly, stack_coeffs
from .position import Region
from .projective import ProjCurve, family_n


# ---------------------------------------------------------------------------
# Fubini-Study derivative
# ---------------------------------------------------------------------------

def _fs_values(curves: Sequence[ProjCurve], pts: np.ndarray) -> np.ndarray:
    """The Fubini-Study derivative of every curve at every point, (B, M):
    one ``fs_derivative_grid`` call per block of whole curves, at most
    ``_EVAL_BLOCK`` values per ``polyval_grid`` call and at least one
    curve."""
    M = pts.shape[0]
    if not curves:
        return np.empty((0, M))
    comp, dcomp = _fs_stack(curves)
    N, P, _ = comp.shape
    out = np.empty((N, M))
    step = max(1, _kernels._EVAL_BLOCK // (2 * P * M))
    for a in range(0, N, step):
        out[a:a + step] = fs_derivative_grid(comp[a:a + step],
                                             dcomp[a:a + step], pts)
    return out


def _fs_stack(curves: Sequence[ProjCurve]) -> tuple[np.ndarray, np.ndarray]:
    """The curves, which share one n (``family_n``), as the (N, P, L)
    component rows and (N, P, L-1) derivative rows of the Fubini-Study
    kernel, packed with one ``stack_coeffs`` call.

    Each curve's components, and their derivatives, are scaled together by
    the ``pow2_factors`` power of two of their largest modulus, so tiny or
    huge coefficients neither underflow nor overflow.
    """
    N, P = len(curves), family_n(curves) + 1
    comp = stack_coeffs([p for f in curves for p in f.components]
                        ).reshape(N, P, -1)
    dcomp = comp[..., 1:] * np.arange(1, comp.shape[2])
    # A top that is 0 or not finite has the factor 1.0.
    _, factor = pow2_factors(np.maximum(
        np.abs(comp).max(axis=(1, 2)),
        np.abs(dcomp).max(axis=(1, 2), initial=0.0)))
    comp *= factor[:, None, None]
    dcomp *= factor[:, None, None]
    return comp, dcomp


# ---------------------------------------------------------------------------
# Grid cells and their bounds
# ---------------------------------------------------------------------------

# Grid points per cell side: the Marty sweep bounds the Fubini-Study
# derivative on cells of _CELL x _CELL grid points and evaluates only the
# cells that may hold a member's sup.  Chosen by measurement on
# blowup_marty's scene (n = 3, 50 members, 81 x 81 points) on a 2-core
# Xeon VM: marty_sup took 20.6, 20.0, 22.1 and 26.2 ms at 4, 5, 6 and 7
# points per side, interleaved medians of 40 runs, and the kernel saw 10%,
# 15%, 21% and 27% of the grid's member-points.
_CELL = 5

# The longest coefficient rows (degree + 1) whose sweep skips cells.  The
# centre-0 majorants loosen with the degree (for a monomial the one of
# W_ij exceeds |W_ij(z)| by (R / |z|)^(2L - 3) on a cell), so fewer cells
# fall below a sup as L grows, while the bound pass costs (2P + K2)(2L - 2)
# per curve and cell.  Pruned over whole-grid sweep time on 81 x 81
# points of [-1, 1]^2, n = 3, 2-core Xeon VM, interleaved medians of 15
# runs; "mono" is [1 : nu z : (nu z)^2 : (nu z)^(L-1)] (blowup_marty's
# family at L = 4 and 50 nu), "random" g(nu z) with g of random
# coefficients and 20 nu in [0.5, 3]:
#   L                  2     3     4     5     6     8    16    64
#   mono, 20 nu        -     -  0.58  0.64  0.87  1.29  2.38  2.76
#   mono, 50 nu        -     -  0.54  0.65  0.79  1.61     -     -
#   random          0.41  0.65  0.89  1.16  1.87  1.97  2.08  2.30
# At L = 5 the random family lost.  On 161 x 161 points pruning won at
# L = 4, 5 and 6 (0.22 to 0.95) and lost on the random family at L = 8
# (1.18).
_CELL_MAX_LEN = 4

_U, _ETA = _kernels._U, _kernels._ETA


@dataclass(frozen=True)
class _Cells:
    """A region's grid cut into blocks of ``_CELL`` x ``_CELL`` points,
    smaller at the far edges, numbered row-major like the grid: cell rows
    of ``rows`` grid rows each and cell columns of ``cols`` grid columns.
    ``sizes`` (C,) holds the points per cell, and every point of cell d
    lies in the disc D(``centres[d]``, ``radii[d]``), so in D(0,
    ``far[d]``)."""
    rows: np.ndarray
    cols: np.ndarray
    sizes: np.ndarray
    centres: np.ndarray
    radii: np.ndarray
    far: np.ndarray

    def points(self, cells: np.ndarray) -> np.ndarray:
        """The grid indices, ascending, of the points of the cells in a
        (C,) mask."""
        return np.flatnonzero(np.repeat(np.repeat(
            cells.reshape(self.rows.size, -1), self.rows, axis=0),
            self.cols, axis=1))


def _cells(region: Region) -> _Cells:
    """The cells of a region's grid, built once per region.  A cell's
    centre c is the midpoint of its corner points, its radius rho the
    half-diagonal, rounded up, and its ``far`` ``_kernels.reach(c, rho)``."""
    return _cell_layout(region.x_min, region.x_max, region.grid_nx,
                        region.y_min, region.y_max, region.grid_ny)


# Keyed by the region's numbers, not the Region, which would keep the
# first region's grid alive.
@functools.lru_cache(maxsize=16)
def _cell_layout(x_min: float, x_max: float, nx: int, y_min: float,
                 y_max: float, ny: int) -> _Cells:
    """``_cells`` of the region with these bounds and sides, from the
    ``np.linspace`` axes its grid points are made of."""
    axes = []
    for xs in (np.linspace(x_min, x_max, nx), np.linspace(y_min, y_max, ny)):
        lo = xs[::_CELL]
        hi = xs[np.minimum(np.arange(_CELL, xs.size + _CELL, _CELL),
                           xs.size) - 1]
        mid = 0.5 * lo + 0.5 * hi
        axes.append((np.bincount(np.arange(xs.size) // _CELL), mid,
                     np.maximum(mid - lo, hi - mid)))
    (cols, cx, hx), (rows, cy, hy) = axes
    # The half-widths are differences of grid floats rounded once; the
    # factor covers that rounding and the hypot's.
    centres = (cx + 1j * cy[:, None]).ravel()
    radii = np.hypot(hx, hy[:, None]).ravel() * (1 + 8 * _U)
    return _Cells(rows=rows, cols=cols, sizes=np.outer(rows, cols).ravel(),
                  centres=centres, radii=radii,
                  far=_kernels.reach(centres, radii))


@functools.cache
def _pairs(P: int) -> np.ndarray:
    """The index pairs i < j of P components, as two rows."""
    return np.array(list(itertools.combinations(range(P), 2))).T.reshape(
        2, -1)


def _cell_bounds(comp: np.ndarray, dcomp: np.ndarray, cells: _Cells
                 ) -> np.ndarray:
    """An upper bound, (B, C), on the value ``fs_derivative_grid``
    computes for each of B curves (rows of ``_fs_stack``) at every grid
    point of each cell, inf where a cell has none.

    Every polynomial bound is one of the enclosures of ``_kernels``, on a
    cell's disc D(c, rho) or on D(0, R), R = ``far``:

    - the numerator: the ``majorants`` A_i of the components, D_i of their
      derivatives and W^_ij of W_ij = f_i f_j' - f_j f_i', whose
      coefficients are the anti-diagonal sums of the rows' outer products,
      in one matrix product.  With h the ``horner_error`` at top, the
      largest A_i or D_i, the kernel's cross term is within 2 h (2 top + h)
      of W_ij(z); its own products and difference and the rounding of the
      coefficients of W_ij add (2L + 24) u (top + h)^2, and their underflow
      8 L^2 eta max(1, R)^(2L);
    - the denominator: the kernel's |f_i(z)| is at least |mid| - rad of
      f_i's ``ball`` on the cell, built from A_i and D_i;
    - each step of the quotient adds a stated multiple of u, and the sums
      of squares a multiple of eta for underflow (u and eta of
      ``_kernels``).

    A cell gets inf when its lower end of |f|^2 is not positive, or when
    the numerator or the bound is NaN or leaves the range where the
    kernel's own values provably stay finite.
    """
    B, P, L = comp.shape
    W, C = 2 * L - 2, cells.sizes.size
    i, j = _pairs(P)
    K2 = i.size
    with np.errstate(all="ignore"):
        # The coefficients of W_ij: the anti-diagonal sums of the outer
        # products, each row shifted by its index through the padding
        # (B K2 L (2L - 1) values, at most 28 B K2 for the L of a pruned
        # sweep).
        outer = np.zeros((B, K2, L, 2 * L - 1), dtype=np.complex128)
        np.subtract(comp[:, i, :, None] * dcomp[:, j, None, :],
                    comp[:, j, :, None] * dcomp[:, i, None, :],
                    out=outer[..., :L - 1])
        # The components, derivatives and W_ij, (B, 2P + K2, W), and their
        # majorants at R in one product.
        rows = np.zeros((B, 2 * P + K2, W), dtype=np.complex128)
        rows[:, :P, :L] = comp
        rows[:, P:2 * P, :L - 1] = dcomp
        rows[:, 2 * P:] = outer.reshape(B, K2, -1)[..., :L * W].reshape(
            B, K2, L, W).sum(axis=2)
        major = _kernels.majorants(rows.reshape(-1, W), cells.far).reshape(
            B, 2 * P + K2, C)
        top = major[:, :2 * P].max(axis=1)
        h = _kernels.horner_error(top, L, cells.far)
        # |t_ij| <= (1 + u) W^_ij + e for every pair: the kernel's cross
        # term t_ij, the docstring's Horner, rounding and underflow in e.
        # The factors on the norm cover its rounding, and the kernel's
        # squares, sum and root.
        e = (2 * h * (2 * top + h) + (2 * L + 24) * _U * np.square(top + h)
             + 8 * L * L * _ETA * np.maximum(1.0, cells.far) ** (2 * L))
        root = (((1 + (K2 + 4) * _U)
                 * np.sqrt(np.square(major[:, 2 * P:]).sum(axis=1))
                 + math.sqrt(K2) * e) * (1 + (K2 + 12) * _U)
                + math.sqrt(2 * K2 * _ETA))
        mid, rad = _kernels.ball(comp.reshape(B * P, L), cells.centres,
                                 cells.radii, cells.far,
                                 major[:, :P].reshape(B * P, C),
                                 major[:, P:2 * P].reshape(B * P, C))
        lo = (np.abs(mid) - rad).reshape(B, P, C)
        s2lo = (np.square(np.maximum(lo, 0.0)).sum(axis=1)
                * (1 - (2 * P + 16) * _U) - 2 * P * _ETA)
        bound = root / np.maximum(s2lo, 0.0) * (1 + 8 * _U)
        # Past 2**500 the kernel's squares may overflow; a top past 2**400
        # puts root there too.
        bound[~((root < 2.0 ** 500) & (bound < 2.0 ** 1000))] = np.inf
    return bound


def _point_blocks(mask: np.ndarray, cells: _Cells, width: int):
    """Blocks of consecutive curves and grid points of the union of their
    cells in ``mask`` (N, C), as ``(a, b, idx)`` with idx ascending, at
    most ``width`` curve-points each: greedily as many curves as keep
    b - a times len(idx) within ``width``, at least one, and the points of
    a curve whose own cells pass it in runs of ``width``.  A block whose
    union is empty is left out."""
    N = mask.shape[0]
    a = 0
    while a < N:
        # The union only grows, so curve a's own cells cap the block.
        ahead = min(N - a, max(1, width // max(
            1, int(cells.sizes @ mask[a]))))
        union = np.logical_or.accumulate(mask[a:a + ahead], axis=0)
        cost = np.arange(1, ahead + 1) * (union @ cells.sizes)
        b = a + max(1, int(np.count_nonzero(cost <= width)))
        idx = cells.points(union[b - a - 1])
        for start in range(0, idx.size, width):
            yield a, b, idx[start:start + width]
        a = b


def _fs_sups(curves: Sequence[ProjCurve], region: Region
             ) -> tuple[np.ndarray, np.ndarray]:
    """The grid sup of the Fubini-Study derivative of each curve and the
    grid index of its first maximum in grid order (of the first NaN, if
    any), with the bits of the full grid sweep, evaluating only the cells
    that may hold it.

    Each curve's cells are bounded by ``_cell_bounds``, from one
    ``majorants`` call at the cells' outer radii per block of curves whose
    (2P + K2) majorant rows at every cell stay within ``_EVAL_BLOCK``
    values, at least one (K2 = P (P - 1) / 2 pairs).  The kernel is
    evaluated first at the curve's best-bound cell, then at every cell
    whose bound is not below the largest value found there; a value found
    that is NaN keeps every cell, and so does a bound that is inf.  A
    skipped point's computed value is below a computed one, so the maximum
    and its first grid index are those of the full grid.  Blocks of
    consecutive curves are evaluated at the union of their cells, and a
    curve with more points in runs, at most ``_EVAL_BLOCK`` values per
    ``polyval_grid`` call (``_point_blocks``).  The runs of a curve come
    in grid order, and a later run's maximum replaces the one found if it
    is larger, or if it is the first NaN.

    Where skipping was measured not to pay, the mask keeps every cell, so
    the same blocks cover the whole grid: for coefficient rows longer than
    ``_CELL_MAX_LEN``, and when a curve's grid fits in one block (2P M
    values), where the bounds and the best cell cost about as many array
    operations as the kernel calls they could save.
    """
    comp, dcomp = _fs_stack(curves)
    N, P, L = comp.shape
    pts = region.grid_points()
    cells = _cells(region)
    C = cells.sizes.size
    width = max(1, _kernels._EVAL_BLOCK // (2 * P))
    keep = np.ones((N, C), dtype=bool)
    sups, top = np.full(N, -np.inf), np.empty(N, dtype=np.intp)
    with np.errstate(all="ignore"):
        if L <= _CELL_MAX_LEN and 2 * P * pts.size > _kernels._EVAL_BLOCK:
            bound = np.empty((N, C))
            step = max(1, _kernels._EVAL_BLOCK
                       // ((2 * P + _pairs(P).shape[1]) * C))
            for a in range(0, N, step):
                bound[a:a + step] = _cell_bounds(
                    comp[a:a + step], dcomp[a:a + step], cells)
            best = np.zeros((N, C), dtype=bool)
            best[np.arange(N), np.argmax(bound, axis=1)] = True
            for a, b, idx in _point_blocks(best, cells, width):
                found = fs_derivative_grid(comp[a:b], dcomp[a:b], pts[idx])
                keep[a:b] &= ~(bound[a:b] < found.max(axis=1)[:, None])
        for a, b, idx in _point_blocks(keep, cells, width):
            vals = fs_derivative_grid(comp[a:b], dcomp[a:b], pts[idx])
            k = np.argmax(vals, axis=1)
            v, was = vals[np.arange(b - a), k], sups[a:b]
            new = (v > was) | np.isnan(v) & ~np.isnan(was)
            sups[a:b][new] = v[new]
            top[a:b][new] = idx[k[new]]
    return sups, top


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
    stacked pass (``_fs_sups``), which evaluates only the grid cells whose
    bound may hold a sup and gives the full grid's sup and first argmax;
    the curves share one n (``family_n``).  A constant curve has
    derivative 0 at every grid point, so it gets sup 0.0 at the first grid
    point, as the grid sweep would give, without one.  A sup that is not
    finite is reported in the sups, not as a floating-point warning.
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
    if moving:
        sups, top = _fs_sups(moving, region)
        for f, k, sup in zip(moving, top.tolist(), sups.tolist()):
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
    norms = np.empty((step + 1, M))
    residuals: list[float] = []
    for a in range(0, N, step):
        b = min(step, N - a)
        block = vals[1:b + 1]
        polyval_grid(coeffs[a:a + b].reshape(b * P, coeffs.shape[2]), zeta,
                     out=block.reshape(b * P, M))
        if a + b == N:
            limit = vals[b].copy()
        norms[1:b + 1] = fs_scale(block)
        lo = 0 if a else 1
        dist = fs_distance(vals[lo:b], block[lo:], norms[lo:b],
                           norms[lo + 1:b + 1])
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
