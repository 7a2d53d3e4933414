"""Preimage zero sets, hyperplane sharing, and the hypothesis checker.

The checker evaluates, for a family of curves each carrying its own 2n+1
moving hyperplanes:
  - a uniform positive lower bound on the general-position product,
  - equality of the curve's and its derived map's preimage zero SETS per
    hyperplane (condition 1),
  - a first-coordinate lower bound |f_0(z)| >= epsilon * sup-norm at every
    preimage zero (condition 2),
  - an empirical normality verdict for each induced coefficient-curve family.

Set comparisons ignore multiplicities throughout; matching is bipartite
nearest-neighbor with mutual-nearest acceptance within
``CheckConfig.match_tolerance``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import config
from ._kernels import polyval_grid
from .derived import derived_maps
from .errors import IdenticallyZero, WrongCount, ValidationError
from .normality import marty_sups
from .polynomial import roots_many, stack_coeffs, trimmed_lengths
from .position import Region, UniformDelta, position_sweeps
from .projective import MovingHyperplane, ProjCurve, induced_curve, pair_rows


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

class FamilyMember:
    """One curve with its wandering assignment of 2n+1 moving hyperplanes."""

    __slots__ = ("curve", "hyperplanes", "label")

    def __init__(self, curve: ProjCurve,
                 hyperplanes: Sequence[MovingHyperplane],
                 label: str) -> None:
        hypers = tuple(hyperplanes)
        expected = 2 * curve.n + 1
        if len(hypers) != expected:
            raise WrongCount(
                f"expected 2n+1 = {expected} hyperplanes, got {len(hypers)}")
        for h in hypers:
            if h.n != curve.n:
                raise WrongCount(
                    f"hyperplane dimension {h.n} does not match curve n={curve.n}")
        self.curve = curve
        self.hyperplanes = hypers
        self.label = str(label)

    def __repr__(self) -> str:
        return f"FamilyMember({self.label!r}, n={self.curve.n})"


@dataclass(frozen=True)
class CheckConfig:
    """The checker's two settings, on a region: the lower-bound constant
    ``epsilon`` and the general-position threshold ``delta``."""

    region: Region
    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValidationError(
                f"epsilon must lie in (0, 1), got {self.epsilon}")
        # A NaN delta compares false and is rejected.  +inf is accepted:
        # montel_omitting at n >= 5 sets delta from a determinant product
        # that overflows to inf (ROADMAP item 2), and its scenes must still
        # load and report.
        if not self.delta > 0.0:
            raise ValidationError(f"delta must be positive, got {self.delta}")

    @property
    def match_tolerance(self) -> float:
        """TAU_MATCH_REL times the region diameter: the slack of the region
        test on preimage zeros and the matching radius of condition 1."""
        return config.TAU_MATCH_REL * self.region.diameter


# ---------------------------------------------------------------------------
# zero sets and matching
# ---------------------------------------------------------------------------

def _pairing_zeros(rows: np.ndarray,
                   cfg: CheckConfig) -> list[list[complex]]:
    """The distinct zeros inside the config's region (boundary-inclusive,
    with a slack of ``cfg.match_tolerance``) of the polynomial in
    each row of ``rows``, zero-padded ascending coefficients as
    ``pair_rows`` gives them: the centres ``roots_many`` groups them into,
    filtered with one ``Region.contains`` mask over all of them.

    Every row is trimmed by one ``trimmed_lengths`` call.  A curve inside a
    hyperplane is a degenerate scene, reported upward rather than silently
    passed: the first row that vanishes identically raises IdenticallyZero
    with its index as ``hyperplane_index``.
    """
    lengths = trimmed_lengths(rows)
    if not lengths.all():
        raise IdenticallyZero("curve lies inside the hyperplane",
                              hyperplane_index=int(np.argmin(lengths)))
    found = [[z for z, _ in roots] for roots in roots_many(
        [row[:k] for row, k in zip(rows, lengths.tolist())])]
    inside = iter(cfg.region.contains(
        np.array(list(itertools.chain.from_iterable(found)),
                 dtype=np.complex128),
        slack=cfg.match_tolerance).tolist())
    return [[z for z in zs if next(inside)] for zs in found]


def _match_sets(sets: Sequence[tuple[Sequence[complex], Sequence[complex]]],
                tau: float) -> list[tuple[list[tuple[int, int]],
                                          list[int], list[int]]]:
    """Greedy nearest-first bipartite matching within tau of every pair of
    sets (a, b): for each, (matched index pairs, unmatched indices of a,
    unmatched of b).  Nearest-first greedy acceptance equals mutual-nearest
    matching whenever the sets are separated by more than 2*tau, the regime
    the checker operates in.

    The distances |a_i - b_j| of every pair of every set are one array;
    only the candidates with distance at most tau are sorted, by (set,
    distance, i, j), and accepted greedily, each unless its a_i or b_j is
    taken already.
    """
    na = np.array([len(a) for a, _ in sets], dtype=np.intp)
    nb = np.array([len(b) for _, b in sets], dtype=np.intp)
    A = np.array([z for a, _ in sets for z in a], dtype=np.complex128)
    B = np.array([z for _, b in sets for z in b], dtype=np.complex128)
    # Pair k of set t is (i, j) = divmod(k, nb[t]).
    count = na * nb
    t = np.repeat(np.arange(len(sets)), count)
    k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    i, j = np.divmod(k, nb[t])
    dist = np.abs(A[(np.cumsum(na) - na)[t] + i]
                  - B[(np.cumsum(nb) - nb)[t] + j])
    near = np.flatnonzero(dist <= tau)
    order = near[np.lexsort((j[near], i[near], dist[near], t[near]))]
    pairs: list[list[tuple[int, int]]] = [[] for _ in sets]
    used_a: list[set[int]] = [set() for _ in sets]
    used_b: list[set[int]] = [set() for _ in sets]
    for s, x, y in zip(t[order].tolist(), i[order].tolist(),
                       j[order].tolist()):
        if x in used_a[s] or y in used_b[s]:
            continue
        pairs[s].append((x, y))
        used_a[s].add(x)
        used_b[s].add(y)
    return [(p, [x for x in range(len(a)) if x not in ua],
             [y for y in range(len(b)) if y not in ub])
            for p, ua, ub, (a, b) in zip(pairs, used_a, used_b, sets)]


# ---------------------------------------------------------------------------
# sharing-hypothesis conditions
# ---------------------------------------------------------------------------

def conditions_check(member: FamilyMember,
                     cfg: CheckConfig) -> tuple[list[dict], dict]:
    """Conditions 1 and 2 of one member: ``hypotheses_check``'s family
    solve with the member alone.

    Condition 1, per hyperplane: the curve's and the derived map's preimage
    zero SETS are equal.  Only set equality is tested; the curves are
    deliberately not required to agree in value at the shared zeros.

    Condition 2, across all hyperplanes: every preimage zero z of the curve
    has |f_0(z)| >= epsilon * max_l |f_l(z)|; failures carry full witnesses.
    """
    try:
        [result] = _family_conditions([member], cfg)
    except IdenticallyZero as exc:
        # The family's error names the member; alone it names the
        # hyperplane only.
        raise exc.__cause__
    return result


def _family_conditions(members: Sequence[FamilyMember], cfg: CheckConfig
                       ) -> list[tuple[list[dict], dict]]:
    """``conditions_check`` of every member, from one ``derived_maps`` call,
    one ``pair_rows`` contraction of the curves and the derived maps with
    their hyperplanes, one ``roots_many`` call over all 2(2n+1) pairings of
    every member, one ``_match_sets`` call over all of them, and one
    ``polyval_grid`` call for condition 2.

    Members meet their defects in member order: the first pairing that
    vanishes identically raises IdenticallyZero naming its member and
    hyperplane (its cause names the hyperplane only), unless an earlier
    member has a zero first component, which raises FirstComponentZero.
    """
    curves = [m.curve for m in members]
    head = next((i for i, f in enumerate(curves)
                 if f.components[0].is_zero), len(curves))
    nablas = derived_maps(curves[:head])
    slots = [(i, j) for i in range(head)
             for j in range(len(members[i].hyperplanes))]
    zeros: list[list[complex]] = []
    if slots:
        # The curves' pairings, then the derived maps', in one contraction.
        hypers = [m.hyperplanes for m in members[:head]]
        sides = pair_rows(curves[:head] + nablas, hypers + hypers)
        both = np.stack([sides[:head], sides[head:]], axis=2)
        # Curve then derived map, per hyperplane, per member.
        rows = both[tuple(np.array(slots).T)].reshape(-1, both.shape[-1])
        try:
            zeros = _pairing_zeros(rows, cfg)
        except IdenticallyZero as exc:
            i, j = slots[exc.hyperplane_index // 2]
            alone = IdenticallyZero(f"hyperplane {j}: {exc}",
                                    hyperplane_index=j)
            alone.__cause__ = exc
            raise IdenticallyZero(f"member {members[i].label}: {alone}",
                                  hyperplane_index=j) from alone
    if head < len(curves):
        derived_maps(curves[head:])  # raises FirstComponentZero
    matches = _match_sets(list(zip(zeros[0::2], zeros[1::2])),
                          cfg.match_tolerance)
    ends = list(itertools.accumulate(len(m.hyperplanes) for m in members))
    spans = list(zip([0, *ends], ends))
    # Every curve-side zero of each member, with its hyperplane.
    found = [[(z, j - a) for j in range(a, b) for z in zeros[2 * j]]
             for a, b in spans]
    # Condition 2 evaluates every member's components at its own zeros in
    # one polyval_grid call, rows and point lists zero-padded.
    at = np.zeros((len(members), max(map(len, found), default=0)),
                  dtype=np.complex128)
    for row, zs in zip(at, found):
        row[:len(zs)] = [z for z, _ in zs]
    sizes = [f.n + 1 for f in curves]
    mods = np.abs(polyval_grid(
        stack_coeffs([p for f in curves for p in f.components]),
        np.repeat(at, sizes, axis=0)))
    firsts = itertools.accumulate(sizes, initial=0)
    return [_member_conditions(zeros[2 * a: 2 * b], matches[a:b], zs,
                               mods[r: r + size, :len(zs)], cfg)
            for (a, b), zs, r, size in zip(spans, found, firsts, sizes)]


def _member_conditions(zeros: list[list[complex]],
                       matches: list[tuple[list[tuple[int, int]],
                                           list[int], list[int]]],
                       found: list[tuple[complex, int]], mods: np.ndarray,
                       cfg: CheckConfig) -> tuple[list[dict], dict]:
    """Conditions 1 and 2 of one member from its pairing zeros, curve and
    derived map alternating per hyperplane, the matching of each
    hyperplane's two zero sets, and the moduli ``mods`` of its components
    at its curve-side zeros ``found`` (each with its hyperplane)."""
    cond1 = []
    for j, (_, free_f, free_d) in enumerate(matches):
        zf, zd = zeros[2 * j], zeros[2 * j + 1]
        cond1.append({
            "hyperplane": j,
            "passed": not free_f and not free_d,
            "curve_only": [zf[i] for i in free_f],
            "derived_only": [zd[i] for i in free_d],
        })
    lhs = mods[0].tolist()
    rhs = (cfg.epsilon * mods.max(axis=0)).tolist()
    witnesses = [{"z": z, "hyperplane": j, "lhs": lo, "rhs": hi}
                 for (z, j), lo, hi in zip(found, lhs, rhs) if lo < hi]
    return cond1, {"passed": not witnesses, "witnesses": witnesses,
                   "zeros_checked": len(found)}


@dataclass
class MemberVerdict:
    label: str
    delta: UniformDelta
    delta_ok: bool
    condition1: list[dict] = field(default_factory=list)
    condition1_ok: bool = True
    condition2: dict = field(default_factory=dict)
    condition2_ok: bool = True

    def point_lists(self) -> list[list[complex]]:
        """Every list of points the report writes, in the order
        ``ConditionReport.to_json`` reads them: each condition-1 entry's
        two lists, then the witnesses' points."""
        return [*(zs for v in self.condition1
                  for zs in (v["curve_only"], v["derived_only"])),
                [w["z"] for w in self.condition2.get("witnesses", [])]]


@dataclass
class ConditionReport:
    """Aggregated verdicts for a whole family."""

    members: list[MemberVerdict]
    delta_estimate: float | None  # None for an empty family
    delta_ok: bool
    condition1_ok: bool
    condition2_ok: bool
    induced_normality: list[dict]
    normality_ok: bool
    overall: bool
    warnings: list[str]

    def to_json(self) -> dict:
        # Every list of points from one array, read back in the order
        # point_lists() gives them.
        pairs = iter(_pairs([zs for m in self.members
                             for zs in m.point_lists()]))
        return {
            "members": [{
                "label": m.label,
                "delta": {"min": m.delta.value,
                          "argmin": [m.delta.argmin.real,
                                     m.delta.argmin.imag]},
                "delta_ok": m.delta_ok,
                "condition1": [{
                    "hyperplane": v["hyperplane"],
                    "passed": v["passed"],
                    "curve_only": next(pairs),
                    "derived_only": next(pairs),
                } for v in m.condition1],
                "condition1_ok": m.condition1_ok,
                "condition2": {
                    "passed": m.condition2.get("passed", True),
                    "zeros_checked": m.condition2.get("zeros_checked", 0),
                    "witnesses": [{
                        "z": z, "hyperplane": w["hyperplane"],
                        "lhs": w["lhs"], "rhs": w["rhs"],
                    } for w, z in zip(m.condition2.get("witnesses", []),
                                      next(pairs))],
                },
                "condition2_ok": m.condition2_ok,
            } for m in self.members],
            "delta_estimate": self.delta_estimate,
            "delta_ok": self.delta_ok,
            "condition1_ok": self.condition1_ok,
            "condition2_ok": self.condition2_ok,
            "induced_normality": self.induced_normality,
            "normality_ok": self.normality_ok,
            "overall": self.overall,
            "warnings": self.warnings,
        }


def _pairs(lists: list[list[complex]]) -> list[list[list[float]]]:
    """The ``[[re, im], ...]`` form of each list of points, all from one
    array."""
    points = np.array(list(itertools.chain.from_iterable(lists)),
                      dtype=np.complex128)
    flat = points.view(np.float64).reshape(-1, 2).tolist()
    ends = list(itertools.accumulate(map(len, lists)))
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def hypotheses_check(members: Sequence[FamilyMember], cfg: CheckConfig,
                     deltas: dict | None = None) -> ConditionReport:
    """Run every hypothesis check and aggregate the verdicts.

    ``deltas`` maps hyperplane tuples to ``position_sweep(...)[0]``
    already taken on ``cfg.region``; the tuples it lacks are swept here
    with one ``position_sweeps`` call.  Conditions 1 and 2 of the whole
    family come from one ``derived_maps`` call and one ``roots_many``
    call, and the induced curves of all 2n+1 hyperplane indices from one
    ``marty_sups`` call.  Degenerate members (curve inside a
    hyperplane, annotated with the member label; zero first component)
    raise; they are scene defects, not check failures.
    """
    members = list(members)
    warnings: list[str] = []
    if not members:
        return ConditionReport(
            members=[], delta_estimate=None, delta_ok=True,
            condition1_ok=True, condition2_ok=True, induced_normality=[],
            normality_ok=True, overall=True,
            warnings=["empty family: all hypotheses hold vacuously"])

    verdicts: list[MemberVerdict] = []
    # Members holding the same hyperplane objects share one sweep.
    deltas = dict(deltas or {})
    missing = list(dict.fromkeys(m.hyperplanes for m in members
                                 if m.hyperplanes not in deltas))
    deltas.update(zip(missing, (sweep[0] for sweep in position_sweeps(
        missing, cfg.region))))
    for m, (c1, c2) in zip(members, _family_conditions(members, cfg)):
        verdicts.append(MemberVerdict(
            label=m.label,
            delta=deltas[m.hyperplanes],
            delta_ok=deltas[m.hyperplanes].value > cfg.delta,
            condition1=c1,
            condition1_ok=all(v["passed"] for v in c1),
            condition2=c2,
            condition2_ok=c2["passed"],
        ))

    # One induced curve per distinct hyperplane object, and the families of
    # every hyperplane index in one marty_sups sweep, so a hyperplane that
    # several members hold is swept once.
    curves = {h: induced_curve(h) for m in members for h in m.hyperplanes}
    count = len(members[0].hyperplanes)
    induced = [{"hyperplane": j, "verdict": stats.verdict,
                "sups": list(stats.sups)}
               for j, stats in enumerate(marty_sups(
                   [[curves[m.hyperplanes[j]] for m in members]
                    for j in range(count)], cfg.region))]
    if len(members) < config.MARTY_WINDOW:
        warnings.append(
            "induced-family normality is inconclusive below "
            f"{config.MARTY_WINDOW} members")

    delta_ok = all(v.delta_ok for v in verdicts)
    c1_ok = all(v.condition1_ok for v in verdicts)
    c2_ok = all(v.condition2_ok for v in verdicts)
    normality_ok = all(e["verdict"] != "blow-up" for e in induced)
    return ConditionReport(
        members=verdicts,
        delta_estimate=min(v.delta.value for v in verdicts),
        delta_ok=delta_ok,
        condition1_ok=c1_ok,
        condition2_ok=c2_ok,
        induced_normality=induced,
        normality_ok=normality_ok,
        overall=delta_ok and c1_ok and c2_ok and normality_ok,
        warnings=warnings,
    )
