import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projcurve._kernels import polyval_grid
from projcurve.derived import derived_map
from projcurve.errors import (DimensionMismatch, FirstComponentZero,
                              IdenticallyZero, WrongCount)
from projcurve.harness import generate_scene
from projcurve.polynomial import ComplexPoly, roots_many, stack_coeffs
from projcurve.position import Region, position_sweep
from projcurve.projective import MovingHyperplane, ProjCurve, pair_rows
from projcurve import config, polynomial, sharing
from projcurve.sharing import (CheckConfig, FamilyMember, _match_sets,
                               hypotheses_check)

ONE = ComplexPoly.one()
Z = ComplexPoly([0, 1])
REGION = Region(-1, 1, -1, 1, 21, 21)


def fixed(*values):
    return MovingHyperplane([ComplexPoly([v]) for v in values])


def preimage_zeros(curve, hyper, region):
    """Zeros of one pairing in the region, as hypotheses_check finds them."""
    return sharing._pairing_zeros(pair_rows([curve], [[hyper]])[0],
                                  make_config(region=region))[0]


def conditions_alone(member, cfg):
    """Conditions 1 and 2 of one member, from ``hypotheses_check`` of the
    member alone."""
    [entry] = hypotheses_check([member], cfg)["members"]
    return entry["condition1"], entry["condition2"]


def make_config(**kw):
    kw.setdefault("region", REGION)
    kw.setdefault("epsilon", 0.5)
    kw.setdefault("delta", 1e-4)
    return CheckConfig(**kw)


class TestPreimageZeros:
    def test_region_filtering(self):
        f = ProjCurve([ONE, ComplexPoly([-4.0, 0, 1.0])])  # zeros at +-2
        zeros = preimage_zeros(f, fixed(0.0, 1.0), REGION)
        assert zeros == []

    def test_boundary_included(self):
        f = ProjCurve([ONE, ComplexPoly([1.0, 0, 1.0])])  # zeros at +-i
        zeros = preimage_zeros(f, fixed(0.0, 1.0), REGION)
        assert len(zeros) == 2

    @pytest.mark.parametrize("mult", [1, 2])
    def test_boundary_slack(self, mult):
        # The slack is TAU_MATCH_REL times the diameter, 2.8e-6 here: a zero
        # 1e-6 past the edge x = 1 is kept, one 1e-5 past it is not, for a
        # simple zero and for a double zero's one centre alike.
        slack = config.TAU_MATCH_REL * REGION.diameter
        for past, kept in ((slack / 3, True), (3 * slack, False)):
            q = ComplexPoly.from_roots([1.0 + past] * mult)
            zeros = preimage_zeros(ProjCurve([ONE, q]), fixed(0.0, 1.0),
                                   REGION)
            assert (len(zeros) == 1) == kept

    def test_identically_zero(self):
        f = ProjCurve([ONE, Z])
        with pytest.raises(IdenticallyZero):
            preimage_zeros(f, MovingHyperplane([Z, ComplexPoly([-1.0])]),
                           REGION)


class TestMatchPointSets:
    def test_exact_match(self):
        [(pairs, fa, fb)] = _match_sets([([0.0, 1.0], [1.0, 0.0])], 1e-6)
        assert len(pairs) == 2
        assert fa == [] and fb == []

    def test_partial(self):
        [(pairs, fa, fb)] = _match_sets([([0.0, 1.0], [0.0])], 1e-6)
        assert pairs == [(0, 0)]
        assert fa == [1] and fb == []

    def test_nearest_first(self):
        # 0.02 pairs with the closer of the two candidates
        [(pairs, fa, fb)] = _match_sets([([0.0, 0.1], [0.02])], 0.5)
        assert pairs == [(0, 0)]
        assert fa == [1] and fb == []


def all_pairs_greedy(a, b, tau):
    """Greedy nearest-first matching over every candidate pair, sorted by
    (distance, i, j) in Python: the oracle for ``_match_sets``.  The
    distances are ``np.abs`` of complex128 differences, as there; Python's
    ``abs`` of a complex can differ from it in the last bit, which turns a
    near tie into an exact one."""
    cand = sorted(
        (float(np.abs(np.complex128(pa) - np.complex128(pb))), i, j)
        for i, pa in enumerate(a) for j, pb in enumerate(b))
    used_a: set[int] = set()
    used_b: set[int] = set()
    pairs = []
    for d, i, j in cand:
        if d > tau:
            break
        if i in used_a or j in used_b:
            continue
        pairs.append((i, j))
        used_a.add(i)
        used_b.add(j)
    return (pairs, [i for i in range(len(a)) if i not in used_a],
            [j for j in range(len(b)) if j not in used_b])


# Points on a 1/4 lattice give many equal distances, so the greedy order
# rests on its (i, j) tie-break; free points give the generic case.
match_points = st.lists(st.one_of(
    st.builds(complex, st.integers(-3, 3).map(lambda k: k / 4),
              st.integers(-3, 3).map(lambda k: k / 4)),
    st.builds(complex, st.floats(-1, 1), st.floats(-1, 1))), max_size=10)


class TestMatchOracle:
    @given(match_points, match_points,
           st.sampled_from([0.0, 1e-6, 0.25, 0.3, 0.5, 0.75, 2.0]))
    @settings(max_examples=300, deadline=None)
    # abs() gives 0.12506102026236032 for both pairs (6, 6) and (6, 7),
    # np.abs 0.12506102026236035 for (6, 6), so only np.abs breaks the tie.
    @example([0j] * 6 + [0.00390625 + 0.125j],
             [0j] * 6 + [-2.220446049250313e-16 + 0j, 0j], 0.25)
    def test_matches_all_pairs_greedy(self, a, b, tau):
        assert _match_sets([(a, b)], tau) == [all_pairs_greedy(a, b, tau)]


class TestConditions:
    def member(self, curve, hypers, label="m"):
        return FamilyMember(curve, hypers, label)

    def test_wrong_hyperplane_count(self):
        with pytest.raises(WrongCount):
            self.member(ProjCurve([ONE, Z]), [fixed(0.0, 1.0)])

    def test_condition1_pass_and_fail(self):
        cfg = make_config()
        good = self.member(
            ProjCurve([ONE, ComplexPoly([0.04, -0.4, 1.0])]),
            [fixed(0.0, 1.0), fixed(1.0, 0.1), fixed(1.0, -0.1)])
        rep, _ = conditions_alone(good, cfg)
        assert all(e["passed"] for e in rep)

        bad = self.member(
            ProjCurve([ONE, ComplexPoly([1.0, 0, 1.0])]),
            [fixed(0.0, 1.0), fixed(1.0, 0.1), fixed(1.0, -0.1)])
        rep, _ = conditions_alone(bad, cfg)
        failing = [e for e in rep if not e["passed"]]
        assert len(failing) == 1
        witnesses = [complex(*w) for w in failing[0]["curve_only"]
                     + failing[0]["derived_only"]]
        got = sorted((round(w.real, 6), round(w.imag, 6)) for w in witnesses)
        assert got == [(-0.0, -1.0), (-0.0, 0.0), (-0.0, 1.0)] or \
            got == [(0.0, -1.0), (0.0, 0.0), (0.0, 1.0)]

    @pytest.mark.parametrize("m", range(1, 6))
    def test_multiple_zero_shared_with_derived_curve(self, m):
        # [1 : (z - a)^m] has the zero set {a} in H = (0, 1), and so has its
        # derived curve [1 : m (z - a)^(m-1)] once m >= 2; at m = 1 the
        # derived pairing is constant.  The other two hyperplanes have no
        # zero in the region (|z - a| >= 100^(1/m) >= 2.5 there).
        a = 0.3 + 0.2j
        q = ComplexPoly.from_roots([a] * m)
        member = self.member(ProjCurve([ONE, q]), [
            fixed(0.0, 1.0), fixed(1.0, 0.01), fixed(1.0, -0.01)])
        cond1, cond2 = conditions_alone(member, make_config())
        assert [e["passed"] for e in cond1] == [m >= 2, True, True]
        assert cond1[0]["derived_only"] == []
        if m == 1:
            [z] = cond1[0]["curve_only"]
            assert abs(complex(*z) - a) < 1e-12
        else:
            assert cond1[0]["curve_only"] == []
        assert cond2["zeros_checked"] == 1
        assert cond2["passed"]

    def test_two_fourfold_zeros_shared_with_derived_curve(self):
        # [(z - a1)^4 (z - a2)^4 : (z - b)^2] with a1, a2 a quarter apart:
        # H = (1, 0) has the zero set {a1, a2} on both sides, so it
        # passes; (0, 1) and (1, 5) fail with the counts of the exact zero
        # sets in sympy, 0/2 and 4/4 zeros in the region on one side only.
        a1, a2, b = 0.5 - 0.5j, 0.5 - 0.75j, -0.5 + 0.5j
        curve = ProjCurve([ComplexPoly.from_roots([a1] * 4 + [a2] * 4),
                           ComplexPoly.from_roots([b] * 2)])
        member = self.member(curve, [fixed(1.0, 0.0), fixed(0.0, 1.0),
                                     fixed(1.0, 5.0)])
        cond1, _ = conditions_alone(member, make_config())
        assert [(e["passed"], len(e["curve_only"]), len(e["derived_only"]))
                for e in cond1] == [(True, 0, 0), (False, 0, 2),
                                    (False, 4, 4)]

    def test_condition2(self):
        cfg = make_config(epsilon=0.5)
        # f = (1, (z-0.2)^2): at the only pairing zero z = 0.2 the sup norm
        # is 1 = |f0|, so the bound holds with any epsilon < 1
        m = self.member(
            ProjCurve([ONE, ComplexPoly([0.04, -0.4, 1.0])]),
            [fixed(0.0, 1.0), fixed(1.0, 0.1), fixed(1.0, -0.1)])
        _, rep = conditions_alone(m, cfg)
        assert rep["passed"]
        assert rep["zeros_checked"] >= 1

    def test_condition2_fails_when_f0_small(self):
        cfg = make_config(epsilon=0.5)
        # pairing (7, -1): zero where q = 7, and there |f0| = 1 < 3.5
        q = ComplexPoly([5.8, 5.0, 5.0])
        m = self.member(
            ProjCurve([ONE, q]),
            [fixed(20.0, -1.0), fixed(7.0, -1.0), fixed(-20.0, -1.0)])
        _, rep = conditions_alone(m, cfg)
        assert not rep["passed"]
        assert any(abs(complex(*w["z"]) - 0.2) <= 1e-6
                   for w in rep["witnesses"])

    def test_condition2_witnesses_carry_the_members_own_values(self):
        # The whole family is evaluated in one stacked call; each witness
        # has the bits of its member's own components evaluated at its zero.
        scene = generate_scene("wandering_shared", {"mutate": "epsilon"})
        cfg = scene.config
        report = hypotheses_check(scene.members, cfg)
        checked = 0
        for m, v in zip(scene.members, report["members"]):
            for w in v["condition2"]["witnesses"]:
                mods = np.abs(polyval_grid(stack_coeffs(m.curve.components),
                                           np.array([complex(*w["z"])])))[:, 0]
                assert w["lhs"].hex() == float(mods[0]).hex()
                assert w["rhs"].hex() == \
                    float(cfg.epsilon * mods.max()).hex()
                checked += 1
        assert checked > 0


class TestHypothesesCheck:
    def test_empty_family_vacuous(self):
        rep = hypotheses_check([], make_config())
        assert rep["overall"] is True
        assert rep["warnings"]

    def test_small_family(self):
        hypers = [fixed(0.0, 1.0), fixed(1.0, 0.1), fixed(1.0, -0.1)]
        members = [
            FamilyMember(ProjCurve([ONE, ComplexPoly([a * a, -2 * a, 1.0])]),
                         hypers, f"m{k}")
            for k, a in enumerate((-0.3, 0.0, 0.3))]
        rep = hypotheses_check(members, make_config())
        for key in ("delta_ok", "condition1_ok", "condition2_ok", "overall"):
            assert rep[key] is True
        assert len(rep["members"]) == 3

    @pytest.mark.parametrize("mutate", ["epsilon", "cond1"])
    def test_members_are_the_report_entries(self, mutate):
        # Every point in a member's entry is an [re, im] pair of floats.
        scene = generate_scene("wandering_shared", {"mutate": mutate})
        rep = hypotheses_check(scene.members, scene.config)
        assert len(rep["members"]) == len(scene.members)
        points = [p for e in rep["members"] for v in e["condition1"]
                  for p in v["curve_only"] + v["derived_only"]]
        witnesses = [w["z"] for e in rep["members"]
                     for w in e["condition2"]["witnesses"]]
        assert points if mutate == "cond1" else witnesses
        for p in points + witnesses:
            assert type(p) is list and len(p) == 2
            assert all(type(x) is float for x in p)

    def test_one_root_solve_per_pairing(self, monkeypatch):
        # every member's curve and derived map against each of its 2n+1
        # hyperplanes, once, all of the family handed to the solver
        # together; and each f0 once: those the curve check solved are
        # reused, the rest go to one solve for the derived maps
        hypers = [fixed(0.0, 1.0), fixed(1.0, 0.1), fixed(1.0, -0.1)]
        members = [
            FamilyMember(ProjCurve([ComplexPoly([1.0, 0.1 * k]),
                                    ComplexPoly([a * a, -2 * a, 1.0])]),
                         hypers, f"m{k}")
            for k, a in enumerate((-0.3, 0.0, 0.3))]
        calls, f0_calls = [], []

        def counting(into, solve):
            def counted(rows):
                into.append(len(rows))
                return solve(rows)
            return counted

        monkeypatch.setattr(sharing, "roots_many",
                            counting(calls, roots_many))
        monkeypatch.setattr(polynomial, "roots_many",
                            counting(f0_calls, roots_many))
        hypotheses_check(members, make_config())
        assert calls == [2 * len(hypers) * len(members)]
        # m1's and m2's f0 (degree 1) were solved when their curves were
        # checked; m0's is a constant, which rules out a common zero
        # unsolved.
        assert f0_calls == [1]

    def test_degenerate_pairing_is_labeled(self):
        h_bad = MovingHyperplane([Z, ComplexPoly([-1.0])])
        members = [FamilyMember(ProjCurve([ONE, Z]),
                                [h_bad, fixed(1.0, 0.1), fixed(1.0, -0.1)],
                                "bad")]
        with pytest.raises(IdenticallyZero) as err:
            hypotheses_check(members, make_config())
        assert "bad" in str(err.value)

    def test_mixed_n_raises(self):
        # One family maps into one P^n, whichever n comes first: the error
        # names the first member's curve of another n.
        one = FamilyMember(ProjCurve([ONE, Z]),
                           [fixed(0.0, 1.0), fixed(1.0, 0.1),
                            fixed(1.0, -0.1)], "one")
        two = FamilyMember(ProjCurve([ONE, Z, ComplexPoly([0, 0, 1])]),
                           [fixed(*(b ** l for l in range(3)))
                            for b in (1.0, -1.0, 0.5, -0.5, 2.0)], "two")
        for members in ([two, one], [one, two]):
            with pytest.raises(DimensionMismatch, match="curve 1 has n="):
                hypotheses_check(members, make_config())

    def test_first_bad_member_is_reported(self):
        # One solve serves the family, but its defects are met in member
        # order: [1 : z] lies in (z, -1), and [0 : 1] has no derived map.
        good = [fixed(0.0, 1.0), fixed(1.0, 0.1), fixed(1.0, -0.1)]
        h_curve = MovingHyperplane([Z, ComplexPoly([-1.0])])
        line = ProjCurve([ONE, Z])
        a = FamilyMember(line, good, "a")
        b = FamilyMember(line, [good[0], good[1], h_curve], "b")
        c = FamilyMember(line, [h_curve, good[1], good[2]], "c")
        flat = FamilyMember(ProjCurve([ComplexPoly.zero(), ONE]), good, "d")
        with pytest.raises(IdenticallyZero) as err:
            hypotheses_check([a, b, c, flat], make_config())
        assert str(err.value) == (
            "member b: hyperplane 2: curve lies inside the hyperplane")
        assert err.value.hyperplane_index == 2
        with pytest.raises(FirstComponentZero):
            hypotheses_check([a, flat, b], make_config())

    def test_first_zero_pairing_is_reported(self):
        # The curve [1 : z] lies in hyperplanes 1 and 2, and its derived map
        # [1 : 1] lies in hyperplane 0 only: the first zero pairing in
        # hyperplane order, curve before derived map, is the derived map's
        # in hyperplane 0.
        h_derived = fixed(1.0, -1.0)
        h_curve = MovingHyperplane([Z, ComplexPoly([-1.0])])
        member = FamilyMember(ProjCurve([ONE, Z]),
                              [h_derived, h_curve, h_curve], "m")
        with pytest.raises(IdenticallyZero) as err:
            conditions_alone(member, make_config())
        assert err.value.hyperplane_index == 0
        assert str(err.value) == (
            "member m: hyperplane 0: curve lies inside the hyperplane")
        assert str(err.value.__cause__) == (
            "hyperplane 0: curve lies inside the hyperplane")
        # Here the curve's pairing in hyperplane 1 comes first.
        member = FamilyMember(ProjCurve([ONE, Z]),
                              [fixed(1.0, 0.1), h_curve, h_derived], "m")
        with pytest.raises(IdenticallyZero) as err:
            conditions_alone(member, make_config())
        assert err.value.hyperplane_index == 1


# Unit roundoff of complex128 arithmetic.
U = 2.0 ** -53


def slope(p, z):
    """p'(z), by numpy's ``polyder`` and ``polyval``."""
    return npoly.polyval(z, npoly.polyder(p.coeffs))


def simple_root_bound(p, z):
    """README's bound on a polished simple root of p near z:
    2 d u B(z) / |p'(z)|, B(z) = sum_i |c_i| |z|^i."""
    B = float(np.polyval(np.abs(p.coeffs[::-1]), abs(z)))
    return 2 * p.degree * U * B / abs(slope(p, z))


def pairing_zero_bound(curve, hyper, z):
    """How far apart two computations of one simple zero near z of the
    pairing p = sum_l a_l f_l of ``curve`` and ``hyper`` may report it.

    README bounds each computed coefficient of p within 32 u of the exact
    sum of products, relative to the sum of their moduli: coefficient i is
    off by at most 32 u sum_l sum_{j+k=i} |a_lj| |f_lk|.  So a computed p
    differs from the exact one at z by at most 32 u M(|z|), where
    M(x) = sum_l A_l(x) F_l(x) and A_l, F_l are the polynomials of the
    moduli of a_l's and f_l's coefficients.  A change e of a polynomial
    moves its simple root by |e(z)| / |p'(z)| to first order, and two
    computations (a member's pairings contracted with its family's, whose
    padded width differs, and alone) each carry that change.  Each
    reported zero is also within ``simple_root_bound`` of the exact root
    of its own stored polynomial.  The two zeros therefore agree within
    2 (2 d u B(z) + 32 u M(|z|)) / |p'(z)|.
    """
    p = ComplexPoly(pair_rows([curve], [[hyper]])[0, 0])
    x = abs(z)
    M = sum(float(np.polyval(np.abs(a.coeffs[::-1]), x))
            * float(np.polyval(np.abs(f.coeffs[::-1]), x))
            for a, f in zip(hyper.coeffs, curve.components))
    return 2 * (simple_root_bound(p, z)
                + 32 * U * M / abs(slope(p, z)))


def family(n, seed, roots):
    """Members in P^n, one per entry of ``roots``: f0 with the roots
    (a + bi)/4 of multiplicity m for each (a, b, m) of the entry, and
    f1...fn of degree 1-3 and 2n+1 fixed hyperplanes drawn from ``seed``."""
    rng = np.random.default_rng(seed)

    def gaussian(size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    members = []
    for k, planted in enumerate(roots):
        f0 = ComplexPoly.from_roots([complex(a, b) / 4
                                     for a, b, m in planted for _ in range(m)])
        comps = [f0] + [ComplexPoly(gaussian(int(rng.integers(2, 5))))
                        for _ in range(n)]
        hypers = [MovingHyperplane([ComplexPoly([c]) for c in gaussian(n + 1)])
                  for _ in range(2 * n + 1)]
        members.append(FamilyMember(ProjCurve(comps), hypers, f"m{k}"))
    return members


@st.composite
def families(draw):
    """1-6 members in P^n, n = 1...6, each with f0 planted on the 1/4
    lattice inside the region with multiplicities 1-5, random f1...fn of
    degree 1-3, and 2n+1 random fixed hyperplanes of its own."""
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    roots = draw(st.lists(st.lists(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 5)),
        min_size=1, max_size=2, unique_by=lambda t: t[:2]),
        min_size=1, max_size=6))
    return family(n, seed, roots)


class TestMemberIndependence:
    """A member's verdicts do not depend on the members solved with it."""

    @given(families())
    @settings(max_examples=30, deadline=None)
    # Member 0's curve pairings differ from its alone-solved ones in the
    # last bits: a simple zero of the curve side moves by 2.4e-16, and one
    # of the derived side by 2.8e-16, past the root bounds alone.
    @example(family(3, 2616, [[(2, 1, 1)], [(2, 1, 1)]]))
    @example(family(3, 17420, [[(-2, 3, 1)], [(2, -1, 4), (3, 2, 4)]]))
    def test_member_checked_in_family_as_alone(self, members):
        cfg = make_config(region=Region(-1, 1, -1, 1, 5, 5))
        deltas = {m.hyperplanes: position_sweep(m.hyperplanes, cfg.region)[0]
                  for m in members}
        family = hypotheses_check(members, cfg, deltas)["members"]
        for member, got in zip(members, family):
            [alone] = hypotheses_check([member], cfg, deltas)["members"]
            for key in ("delta_ok", "condition1_ok", "condition2_ok"):
                assert got[key] == alone[key]
            sides = {"curve_only": member.curve,
                     "derived_only": derived_map(member.curve)}
            assert len(got["condition1"]) == len(alone["condition1"])
            for j, (a, b) in enumerate(zip(got["condition1"],
                                           alone["condition1"])):
                assert a["passed"] == b["passed"]
                for side, curve in sides.items():
                    assert_zeros_agree(curve, member.hyperplanes[j],
                                       a[side], b[side])
            a, b = got["condition2"], alone["condition2"]
            assert (a["passed"], a["zeros_checked"]) == (
                b["passed"], b["zeros_checked"])
            assert [w["hyperplane"] for w in a["witnesses"]] == [
                w["hyperplane"] for w in b["witnesses"]]
            for wa, wb in zip(a["witnesses"], b["witnesses"]):
                assert_zeros_agree(member.curve,
                                   member.hyperplanes[wa["hyperplane"]],
                                   [wa["z"]], [wb["z"]])


def assert_zeros_agree(curve, hyper, got, want):
    """Two lists of reported zeros of the pairing of ``curve`` and
    ``hyper``, as [re, im] pairs, are as long and agree in order, each
    within ``pairing_zero_bound``."""
    assert len(got) == len(want)
    for (x, y), (u, v) in zip(got, want):
        z, w = complex(x, y), complex(u, v)
        assert abs(z - w) <= pairing_zero_bound(curve, hyper, z)


class TestRootSetOracle:
    # at n = 1 with hyperplane (0, 1), condition 1 compares the zero sets
    # of q and q' inside the region
    def test_against_numpy_roots(self):
        rng = np.random.default_rng(17)
        agree = 0
        for _ in range(200):
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            coeffs[-1] += 2.0  # keep the leading term well away from zero
            q = ComplexPoly(coeffs)
            f = ProjCurve([ONE, q])
            hyper = fixed(0.0, 1.0)
            mine = {round(z.real, 5) + 1j * round(z.imag, 5)
                    for z in preimage_zeros(f, hyper, REGION)}
            ref = {round(z.real, 5) + 1j * round(z.imag, 5)
                   for z in np.roots(coeffs[::-1])
                   if REGION.contains(z, slack=1e-9)}
            if mine == ref:
                agree += 1
        assert agree >= 198  # ties at the region boundary may differ


Z_SYM = sympy.Symbol("z")


def sympy_poly(expr):
    return sympy.Poly(expr, Z_SYM, domain="QQ_I")


# Points of the 1/4 lattice inside (-1, 1)^2, as (x, y) numerators.
lattice = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def sharing_cases(draw):
    """A reduced curve [f0 : ... : fn] in P^n, n = 1...6, exact in sympy,
    from lattice factors (z - b)^k, k = 1-5: f0 is up to two such
    factors, and each other component a small Gaussian integer times up to
    two such factors; with 2n+1 fixed hyperplanes, the n+1 coordinate ones
    and n with coefficients in {-2, ..., 2}."""
    n = draw(st.integers(1, 6))

    def planted():
        factors = draw(st.lists(st.tuples(lattice, st.integers(1, 5)),
                                max_size=2, unique_by=lambda t: t[0]))
        return sympy.Mul(*[(Z_SYM - sympy.Rational(x, 4)
                            - sympy.I * sympy.Rational(y, 4)) ** k
                           for (x, y), k in factors])

    unit = st.sampled_from([1, -1, 2, sympy.I, 1 + sympy.I])
    comps = [sympy_poly(planted())] + [
        sympy_poly(draw(unit) * planted()) for _ in range(n)]
    common = comps[0]
    for f in comps[1:]:
        common = common.gcd(f)
    assume(common.degree() == 0)
    coeffs = [[int(j == l) for l in range(n + 1)] for j in range(n + 1)]
    coeffs += [draw(st.lists(st.integers(-2, 2), min_size=n + 1,
                             max_size=n + 1).filter(any))
               for _ in range(n)]
    return comps, coeffs


def zeros_agree_in(region, P, Q):
    """Whether the exact polynomials P and Q have the same zeros in the
    region: no zero of either squarefree part that the other lacks lies
    in it.  Which zeros are shared is exact (a gcd); where a zero lies is
    read from the simple roots of the squarefree parts in double
    precision, so every zero must be 1e-3 clear of the region's edge and
    each unshared zero 1e-4 clear of the other polynomial's zeros."""
    S, T = (p.quo(p.gcd(p.diff(Z_SYM))) for p in (P, Q))
    G = S.gcd(T)

    def roots(p):
        return np.roots([complex(c) for c in p.all_coeffs()]).tolist()

    def clear(z):
        return min(abs(abs(z.real) - 1), abs(abs(z.imag) - 1)) > 1e-3 or \
            not region.contains(z, slack=1e-3)

    shared, s_only, t_only = roots(G), roots(S.quo(G)), roots(T.quo(G))
    assume(all(clear(z) for z in shared + s_only + t_only))
    assume(all(abs(z - w) > 1e-4 for z in s_only for w in shared + t_only))
    assume(all(abs(z - w) > 1e-4 for z in t_only for w in shared))
    return not any(region.contains(z) for z in s_only + t_only)


class TestSharingOracle:
    """Condition 1 against the exact zero sets: for each hyperplane H,
    the radicals of <f, H> and of <nabla f, H>, the derived curve's
    pairing with nabla f = [f0^2 : W(f0, f1) : ...] divided by the exact
    gcd of its parts, computed in sympy."""

    @given(sharing_cases())
    @settings(max_examples=30, deadline=None)
    def test_condition1_matches_exact_radicals(self, case):
        comps, coeffs = case
        f0 = comps[0]
        parts = [f0 * f0] + [f0 * f.diff(Z_SYM) - f0.diff(Z_SYM) * f
                             for f in comps[1:]]
        g = sympy_poly(0)
        for part in parts:
            g = g.gcd(part)
        parts = [part.quo(g) for part in parts]
        want = []
        for a in coeffs:
            P = sum((c * f for c, f in zip(a, comps)), sympy_poly(0))
            Q = sum((c * d for c, d in zip(a, parts)), sympy_poly(0))
            assume(not P.is_zero and not Q.is_zero)
            want.append(zeros_agree_in(REGION, P, Q))
        curve = ProjCurve([ComplexPoly([complex(c) for c in
                                        reversed(f.all_coeffs())])
                           for f in comps], check_reduced=False)
        member = FamilyMember(curve, [fixed(*a) for a in coeffs], "m")
        cond1, _ = conditions_alone(member, make_config())
        assert [e["passed"] for e in cond1] == want
