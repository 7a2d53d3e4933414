"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line through the capture plugin so the
verdicts stay visible in the terminal log, then asserts. Oracles here are
deliberately independent: raw numpy coefficient arithmetic, closed-form
derivatives, and hand-derived constants rather than package internals.
"""

import dataclasses
import time

import numpy as np
import pytest

from projcurve import config
from projcurve._kernels import polyval_grid
from projcurve.derived import derived_map
from projcurve.harness import generate_scene, run_pipeline
from projcurve.normality import fs_derivative, marty_sup, zalcman_search
from projcurve.polynomial import ComplexPoly, stack_coeffs
from projcurve.position import Region, position_sweep
from projcurve.projective import MovingHyperplane, ProjCurve, pair_rows


@pytest.fixture
def announce(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _announce(number, ok, detail):
        line = f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'}: {detail}"
        if capman is None:
            print(line)
        else:
            with capman.global_and_fixture_disabled():
                print(line)

    return _announce


def fixed(*values):
    return MovingHyperplane([ComplexPoly([v]) for v in values])


# A fixed family's general-position product is the same at every point, so
# a 2x2 grid reads it; the verdict threshold is local to these tests.
SMALL = Region(-1.0, 1.0, -1.0, 1.0, 2, 2)
TAU_GP = 1e-10


def in_general_position(hypers):
    return position_sweep(hypers, SMALL)[0].value > TAU_GP


# --- independent numpy-only helpers (no package arithmetic) ----------------

def np_polyval(coeffs, z):
    # ascending coefficients, Horner
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


def np_derivative(coeffs):
    n = len(coeffs)
    if n <= 1:
        return np.zeros(1, dtype=complex)
    return np.array([k * coeffs[k] for k in range(1, n)], dtype=complex)


def np_fs(a, b):
    cross = 0.0
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            cross += abs(a[i] * b[j] - a[j] * b[i]) ** 2
    na = np.sqrt(sum(abs(x) ** 2 for x in a))
    nb = np.sqrt(sum(abs(x) ** 2 for x in b))
    return np.sqrt(cross) / (na * nb)


def test_acceptance_1_derived_map_oracle(announce):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        d0 = int(rng.integers(0, 7))
        d1 = int(rng.integers(1, 7))
        c0 = rng.standard_normal(d0 + 1) + 1j * rng.standard_normal(d0 + 1)
        c1 = rng.standard_normal(d1 + 1) + 1j * rng.standard_normal(d1 + 1)
        f = ProjCurve([ComplexPoly(c0), ComplexPoly(c1)],
                      check_reduced=False)
        d = derived_map(f)

        # symbolic derivative of f1/f0 via raw coefficient arithmetic
        t1 = np.convolve(c0, np_derivative(c1))
        t2 = np.convolve(np_derivative(c0), c1)
        width = max(t1.size, t2.size)
        num = np.zeros(width, dtype=complex)
        num[:t1.size] += t1
        num[:t2.size] -= t2
        den = np.convolve(c0, c0)

        pts = rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100)
        f0_vals = np_polyval(c0, pts)
        keep = np.abs(f0_vals) > 1e-6
        ov = np.vstack([np_polyval(den, pts), np_polyval(num, pts)])
        dv = polyval_grid(stack_coeffs(d.components), pts)
        for k in np.nonzero(keep)[0]:
            dist = np_fs(ov[:, k], dv[:, k])
            worst = max(worst, dist)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 10.0
    announce(1, ok, f"derived map vs symbolic derivative, 500 pairs, "
                    f"max fs {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed <= 10.0


def test_acceptance_2_green_consistency(announce):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    bad = 0
    over = 0
    for _ in range(500):
        n = int(rng.integers(1, 4))
        q = 2 * n + 1
        while True:
            rows = (rng.standard_normal((q, n + 1))
                    + 1j * rng.standard_normal((q, n + 1)))
            hypers = [fixed(*row) for row in rows]
            if in_general_position(hypers):
                break
        while True:
            degs = rng.integers(0, 5, size=n + 1)
            if degs.max() >= 1:
                break
        comps = [ComplexPoly(rng.standard_normal(int(dg) + 1)
                             + 1j * rng.standard_normal(int(dg) + 1))
                 for dg in degs]
        curve = ProjCurve(comps, check_reduced=False)
        # A nonconstant pairing has roots; a constant one omits its
        # hyperplane on all of C.  Fujimoto-Green: a nonconstant curve
        # omits at most 2n of 2n+1 hyperplanes in general position.
        omitted = sum(ComplexPoly(row).degree == 0
                      for row in pair_rows([curve], [hypers])[0])
        if omitted == q and not curve.is_constant:
            bad += 1
        if omitted > 2 * n:
            over += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and over == 0 and elapsed <= 30.0
    announce(2, ok, f"green omission sweep, 500 curves, inconsistent {bad}, "
                    f"over-omitting {over}, {elapsed:.2f}s")
    assert bad == 0
    assert over == 0
    assert elapsed <= 30.0


def test_acceptance_3_blowup_rescaling(announce):
    start = time.perf_counter()
    scene = generate_scene("blowup_linear", {"N": 8})
    curves = [m.curve for m in scene.members]
    stats = marty_sup(curves, scene.region)
    sup_err = max(abs(s - nu) for s, nu in zip(stats.sups, range(1, 9)))
    trace = zalcman_search(curves, stats)
    rho_err = max(abs(r - 1.0 / nu)
                  for r, nu in zip(trace.rhos, range(1, 9)))
    # limit candidate vs [1 : zeta], with an inline metric
    limit_err = 0.0
    for k, zeta in enumerate(trace.zeta_points):
        limit_err = max(limit_err,
                        np_fs([1.0, zeta], trace.limit_candidate[:, k]))
    elapsed = time.perf_counter() - start
    ok = (sup_err <= 1e-6 and stats.verdict == "blow-up"
          and rho_err <= 1e-10 and trace.convergence_residual <= 1e-10
          and limit_err <= 1e-8 and elapsed <= 5.0)
    announce(3, ok, f"blow-up family, sup err {sup_err:.1e}, verdict "
                    f"{stats.verdict}, rho err {rho_err:.1e}, residual "
                    f"{trace.convergence_residual:.1e}, limit err "
                    f"{limit_err:.1e}, {elapsed:.2f}s")
    assert sup_err <= 1e-6
    assert stats.verdict == "blow-up"
    assert rho_err <= 1e-10
    assert trace.convergence_residual <= 1e-10
    assert limit_err <= 1e-8
    assert elapsed <= 5.0


def test_acceptance_4_montel_bounded(announce):
    start = time.perf_counter()
    scene = generate_scene("montel_omitting", {"N": 10, "n": 1})
    curves = [m.curve for m in scene.members]
    stats = marty_sup(curves, scene.region)
    r = scene.region
    fine = marty_sup(curves, dataclasses.replace(
        r, grid_nx=2 * r.grid_nx - 1, grid_ny=2 * r.grid_ny - 1))
    drift = max(abs(a - b) / max(1.0, abs(a), abs(b))
                for a, b in zip(stats.sups, fine.sups))
    elapsed = time.perf_counter() - start
    below_cap = max(stats.sups) <= config.MARTY_CAP
    ok = (stats.verdict == "bounded" and below_cap and drift <= 1e-6
          and elapsed <= 5.0)
    announce(4, ok, f"omitting family verdict {stats.verdict}, max sup "
                    f"{max(stats.sups):.3e}, grid-doubling drift "
                    f"{drift:.1e}, {elapsed:.2f}s")
    assert stats.verdict == "bounded"
    assert below_cap
    assert drift <= 1e-6
    assert elapsed <= 5.0


def test_acceptance_5_general_position_algebra(announce):
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        q = 2 * n + 1
        rows = (rng.standard_normal((q, n + 1))
                + 1j * rng.standard_normal((q, n + 1)))
        hypers = [fixed(*row) for row in rows]
        z = complex(*rng.uniform(-1, 1, 2))
        near = Region(z.real - 0.1, z.real + 0.1, z.imag - 0.1, z.imag + 0.1,
                      2, 2)
        base = position_sweep(hypers, near)[0].value
        perm = rng.permutation(q)
        v = position_sweep([hypers[i] for i in perm], near)[0].value
        worst_rel = max(worst_rel, abs(v - base) / max(base, 1e-300))

    flips = 0
    for trial in range(100):
        n = 1
        rows = (rng.standard_normal((3, 2))
                + 1j * rng.standard_normal((3, 2)))
        if trial % 2 == 0:
            rows[2] = 2.5 * rows[0]  # force degeneracy half the time
        hypers = [fixed(*row) for row in rows]
        scales = (rng.uniform(0.1, 10.0, 3)
                  * np.exp(2j * np.pi * rng.uniform(0, 1, 3)))
        scaled = [fixed(*(s * row)) for s, row in zip(scales, rows)]
        if in_general_position(hypers) != in_general_position(scaled):
            flips += 1

    exact = all(
        position_sweep([fixed(*row) for row in np.eye(n + 1)],
                       SMALL)[0].value
        == 1.0
        for n in (1, 2, 3))
    ok = worst_rel <= 1e-12 and flips == 0 and exact
    announce(5, ok, f"permutation drift {worst_rel:.1e}, rescaling verdict "
                    f"flips {flips}, identity D exact {exact}")
    assert worst_rel <= 1e-12
    assert flips == 0
    assert exact


def test_acceptance_6_hypothesis_checker(announce):
    start = time.perf_counter()
    results = {}
    for mutate in ("none", "delta", "epsilon", "cond1"):
        scene = generate_scene("wandering_shared", {"mutate": mutate})
        report, code = run_pipeline(scene, which=("position", "check"))
        results[mutate] = (report, code)

    report, code = results["none"]
    chk = report["stages"]["check"]
    base_ok = (code == 0 and report["stages"]["position"]["verdict"]
               and chk["delta_ok"] and chk["condition1_ok"]
               and chk["condition2_ok"] and chk["overall"])

    report, code = results["delta"]
    chk = report["stages"]["check"]
    delta_ok = (code == 2 and not chk["delta_ok"] and chk["condition1_ok"]
                and chk["condition2_ok"]
                and report["stages"]["position"]["min"] <= 1e-4
                and "argmin" in report["stages"]["position"])

    report, code = results["epsilon"]
    chk = report["stages"]["check"]
    wit = chk["members"][0]["condition2"]["witnesses"]
    eps_ok = (code == 2 and chk["delta_ok"] and chk["condition1_ok"]
              and not chk["condition2_ok"] and len(wit) >= 1
              and abs(complex(*wit[0]["z"]) - 0.2) <= 1e-6
              and wit[0]["lhs"] < 0.5 * wit[0]["rhs"] + 1e-12)

    report, code = results["cond1"]
    chk = report["stages"]["check"]
    entries = [e for e in chk["members"][0]["condition1"] if not e["passed"]]
    c1_ok = bool(code == 2 and chk["delta_ok"] and chk["condition2_ok"]
                 and not chk["condition1_ok"] and len(entries) == 1
                 and (entries[0]["curve_only"] or entries[0]["derived_only"]))

    elapsed = time.perf_counter() - start
    ok = base_ok and delta_ok and eps_ok and c1_ok and elapsed <= 10.0
    announce(6, ok, f"wandering scene base {base_ok}, delta-fail {delta_ok}, "
                    f"epsilon-fail {eps_ok}, cond1-fail {c1_ok}, "
                    f"{elapsed:.2f}s")
    assert base_ok
    assert delta_ok
    assert eps_ok
    assert c1_ok
    assert elapsed <= 10.0


def test_acceptance_7_spherical_derivative(announce):
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        d0 = int(rng.integers(0, 6))
        d1 = int(rng.integers(1, 6))
        c0 = rng.standard_normal(d0 + 1) + 1j * rng.standard_normal(d0 + 1)
        c1 = rng.standard_normal(d1 + 1) + 1j * rng.standard_normal(d1 + 1)
        f = ProjCurve([ComplexPoly(c0), ComplexPoly(c1)],
                      check_reduced=False)
        pts = rng.uniform(-1, 1, 25) + 1j * rng.uniform(-1, 1, 25)
        f0v = np_polyval(c0, pts)
        # classical |g'| / (1 + |g|^2) with g = f1/f0, away from poles
        keep = np.abs(f0v) > 1e-2
        g = np_polyval(c1, pts[keep]) / f0v[keep]
        num = (np_polyval(c0, pts[keep]) * np_polyval(np_derivative(c1), pts[keep])
               - np_polyval(np_derivative(c0), pts[keep]) * np_polyval(c1, pts[keep]))
        gprime = num / f0v[keep] ** 2
        classical = np.abs(gprime) / (1.0 + np.abs(g) ** 2)
        for z, want in zip(pts[keep], classical):
            got = fs_derivative(f, z)
            worst = max(worst, abs(got - want) / max(1.0, want))
    ok = worst <= 1e-8
    announce(7, ok, f"spherical derivative vs classical formula, 200 pairs, "
                    f"max rel err {worst:.2e}")
    assert worst <= 1e-8


# Relative residual below which a root of one component counts as a root
# of every component, i.e. as a common factor reduction failed to remove.
TAU_RES = 1e-8


def test_acceptance_8_reduction_invariants(announce):
    rng = np.random.default_rng(808)
    start = time.perf_counter()

    def sample_points(count, taken, min_sep):
        pts = []
        while len(pts) < count:
            z = complex(*rng.uniform(-1.2, 1.2, 2))
            if all(abs(z - w) >= min_sep for w in taken + pts):
                pts.append(z)
        return pts

    degree_failures = 0
    residual_failures = 0
    for _ in range(500):
        g_simple = sample_points(int(rng.integers(1, 3)), [], 0.15)
        g_roots = []
        for r in g_simple:
            g_roots.extend([r] * int(rng.integers(1, 3)))  # mult <= 2
        g = ComplexPoly.from_roots(
            g_roots, leading=complex(*rng.uniform(0.5, 2.0, 2)))
        q_roots = sample_points(2, g_simple, 0.1)
        q0 = ComplexPoly.from_roots([q_roots[0]])
        q1 = ComplexPoly.from_roots([q_roots[1]])
        # [g q0 : q1] is reduced, and f0 = g q0 carries the planted factor:
        # the derived tuple [f0^2 : W(f0, f1)] shares gcd(f0, f0'), one
        # factor (z - r) per double root r of g.
        red = derived_map(ProjCurve([g * q0, q1])).components
        doubles = len(g_roots) - len(g_simple)
        if red[0].degree != 2 * (len(g_roots) + 1) - doubles:
            degree_failures += 1

        scale = max(max(np.abs(p.coeffs).max() for p in red), 1.0)
        for p in red:
            if p.degree < 1:
                continue
            for root, _ in p.roots():
                other = max(abs(qq(root)) for qq in red)
                if other <= TAU_RES * scale:
                    residual_failures += 1
    elapsed = time.perf_counter() - start
    ok = degree_failures == 0 and residual_failures == 0
    announce(8, ok, f"derived-map reduction over 500 planted-factor curves, "
                    f"degree failures {degree_failures}, residual failures "
                    f"{residual_failures}, {elapsed:.2f}s")
    assert degree_failures == 0
    assert residual_failures == 0
