"""The four workloads: their scenes, stages and known answers.

Sizes are scaled down from the ROADMAP baseline (N=40 members, 161x161
grids, about 120 s per ``position`` call) so that one repetition of a
workload takes about a second and a run holds dozens of repetitions.  Each
scaled size still shows the behaviour the workload exists for, including
the defects known at the seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from projcurve import harness, sharing
from projcurve.polynomial import ComplexPoly
from projcurve.position import Region
from projcurve.projective import MovingHyperplane, ProjCurve

from answers import (blowup_peak, derived_degree, planted_member,
                     vandermonde_nodes, vandermonde_product)


@dataclass(frozen=True)
class Expect:
    """Allowed exit codes and facts (dotted report path -> value)."""

    exits: frozenset
    facts: dict = field(default_factory=dict)


@dataclass
class Case:
    """One scene file of a workload."""

    label: str
    build: Callable  # () -> projcurve Scene; timed as set-up
    expect: dict  # stage -> Expect
    derived: list = field(default_factory=list)  # (member label, degree)
    sup_target: Callable | None = None  # member index -> true Marty sup


@dataclass
class Workload:
    name: str
    stages: tuple
    cases: Callable  # seed -> list[Case]
    known: dict  # (case label, fact) -> defect known at the seed

    def pipeline_expect(self, case: Case) -> Expect:
        """run_pipeline exits with the worst requested stage code."""
        sets = [case.expect[s].exits for s in self.stages]
        facts = {}
        for s in self.stages:
            facts.update(case.expect[s].facts)
        return Expect(frozenset(max(c) for c in itertools.product(*sets)),
                      facts)


PASS = frozenset({0})
FAIL = frozenset({2})

ITEM2 = "ROADMAP item 2: determinant product overflows to inf at n=5"
ITEM3 = ("ROADMAP item 3: derived map left unreduced at roots of "
         "multiplicity >= 2")
ITEM4 = ("ROADMAP item 4: grid Marty sups fall to nu once the peak circle "
         "passes between grid points")


def _generate(template: str, params: dict) -> Callable:
    def build():
        return harness.generate_scene(template, params)
    return build


# -- montel_gp -------------------------------------------------------------

def _check_facts(broken: str | None = None) -> Expect:
    flags = ("delta_ok", "condition1_ok", "condition2_ok", "normality_ok")
    facts = {f"stages.check.{f}": f != broken for f in flags}
    facts["stages.check.overall"] = broken is None
    return Expect(PASS if broken is None else FAIL, facts)


def _position(ok: bool) -> Expect:
    return Expect(PASS if ok else FAIL, {"stages.position.verdict": ok})


def _montel_cases(seed: int) -> list[Case]:
    sizes = (("n3", 3, 2, 31), ("n5", 5, 1, 9))
    return [Case(label, _generate("montel_omitting",
                                  {"n": n, "N": N, "seed": seed,
                                   "grid_nx": g, "grid_ny": g}),
                 {"position": _position(True), "check": _check_facts()})
            for label, n, N, g in sizes]


MONTEL_KNOWN = {("n5", fact): ITEM2 for fact in (
    "exit", "stages.position.verdict", "stages.check.delta_ok",
    "stages.check.overall")}


# -- wandering_mutants -----------------------------------------------------

_BROKEN = {"none": None, "delta": "delta_ok", "epsilon": "condition2_ok",
           "cond1": "condition1_ok"}


def _wandering_cases(seed: int) -> list[Case]:
    return [Case(mutate, _generate("wandering_shared",
                                   {"N": 12, "seed": seed, "mutate": mutate,
                                    "grid_nx": 21, "grid_ny": 21}),
                 {"position": _position(mutate != "delta"),
                  "check": _check_facts(broken)})
            for mutate, broken in _BROKEN.items()]


# -- blowup_marty ----------------------------------------------------------

BLOWUP_N, BLOWUP_MEMBERS, BLOWUP_GRID = 3, 50, 81


def _blowup_cases(seed: int) -> list[Case]:
    c, _ = blowup_peak(BLOWUP_N)
    return [Case("linear", _generate("blowup_linear",
                                     {"n": BLOWUP_N, "N": BLOWUP_MEMBERS,
                                      "grid_nx": BLOWUP_GRID,
                                      "grid_ny": BLOWUP_GRID}),
                 {"normality": Expect(FAIL, {
                     "stages.normality.verdict": "blow-up"}),
                  "zalcman": Expect(PASS, {
                      "stages.zalcman.rho_decreasing": True})},
                 sup_target=lambda i: c * (i + 1))]


BLOWUP_KNOWN = {("linear", "stages.zalcman.rho_decreasing"): ITEM4}


# -- planted_roots ---------------------------------------------------------

PLANTED_MEMBERS, PLANTED_DEGREE, PLANTED_GRID = 30, 8, 21


def _planted_scene(members: list, seed: int) -> harness.Scene:
    n = 2
    region = Region(-1.0, 1.0, -1.0, 1.0, PLANTED_GRID, PLANTED_GRID)
    hypers = [MovingHyperplane([ComplexPoly([b ** l]) for l in range(n + 1)]
                               ).normalized(region)
              for b in vandermonde_nodes(n)]
    fam = []
    for k, (roots, f1, f2) in enumerate(members):
        flat = [z for z, mult in roots for _ in range(mult)]
        f0 = ComplexPoly.from_roots(flat)
        curve = ProjCurve([f0, ComplexPoly(f1), ComplexPoly(f2)])
        fam.append(sharing.FamilyMember(curve, hypers, f"p{k}"))
    cfg = sharing.CheckConfig(region=region, epsilon=0.5,
                              delta=vandermonde_product(n) / 2.0)
    return harness.Scene(n=n, region=region, members=tuple(fam), config=cfg,
                         metadata={"generator": "perfbench.planted_roots",
                                   "seed": seed})


def _planted_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    members = [planted_member(rng, PLANTED_DEGREE, multiple=k % 2 == 1)
               for k in range(PLANTED_MEMBERS)]
    derived = [(f"p{k}", derived_degree(PLANTED_DEGREE, roots))
               for k, (roots, _, _) in enumerate(members)]
    return [Case("planted", lambda: _planted_scene(members, seed),
                 {"check": Expect(frozenset({0, 2}))}, derived=derived)]


PLANTED_KNOWN = {(f"p{k}", "derived_degree"): ITEM3
                 for k in range(1, PLANTED_MEMBERS, 2)}


# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("montel_gp", ("position", "check"), _montel_cases,
             MONTEL_KNOWN),
    Workload("wandering_mutants", ("position", "check"), _wandering_cases,
             {}),
    Workload("blowup_marty", ("normality", "zalcman"), _blowup_cases,
             BLOWUP_KNOWN),
    Workload("planted_roots", ("check",), _planted_cases, PLANTED_KNOWN),
)}
