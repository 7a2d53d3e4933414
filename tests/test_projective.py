import cmath
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from projcurve import config, polynomial
from projcurve._kernels import pairwise_fs_grid, polyval_grid
from projcurve.errors import (AllZero, DimensionMismatch, ValidationError,
                              ZeroPolynomial)
from projcurve.harness import Scene, scene_from_json, scene_to_json
from projcurve.polynomial import ComplexPoly, roots_many, stack_coeffs
from projcurve.position import Region
from projcurve.projective import (MovingHyperplane, ProjCurve, family_n,
                                  first_common_zero, induced_curve,
                                  normalized_many, pair_rows)
from projcurve.sharing import CheckConfig, FamilyMember

ONE = ComplexPoly.one()
Z = ComplexPoly([0, 1])
Z2 = ComplexPoly([0, 0, 1])

unit_complex = st.builds(
    complex,
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
).filter(lambda c: 0.05 <= abs(c) <= 5.0)


# Coefficients that zero out or cancel exactly, generic ones whose products
# round (drawn through a seeded generator, as hypothesis favours short
# floats), and small ones that make a product's leading term fall under the
# trim.
pair_coeff = st.one_of(
    st.integers(min_value=-3, max_value=3).map(complex),
    st.integers(min_value=0, max_value=2 ** 32 - 1).map(
        lambda seed: complex(*np.random.default_rng(seed).normal(size=2))),
    st.sampled_from([1e-7, -1e-7j, 3e-11, 1e-13]),
)


def pair_polys(max_degree):
    return st.lists(pair_coeff, max_size=max_degree + 1).map(ComplexPoly)


# Unit roundoff of complex128 arithmetic.
U = 2.0 ** -53

# Rounding allowed to a pairing coefficient, relative to the sum of the
# moduli of the products that make it up: a complex product and a sum of at
# most 20 terms round by less than 32 u of that sum.
PAIR_TOL = 32 * U


def loop_trimmed_length(arr):
    """The length of ``arr`` once trailing coefficients of modulus at most
    TAU_COEFF times the largest are cut, one coefficient at a time."""
    mags = np.abs(arr)
    cut = mags.max(initial=0.0) * config.TAU_COEFF
    keep = arr.size
    while keep and mags[keep - 1] <= cut:
        keep -= 1
    return keep


def exact_pair(curve, hyper):
    """sum_l a_l f_l in mpmath at 60 digits (exact for the drawn inputs),
    with the sum of |a_li| |f_lj| over i + j = k for each coefficient k."""
    with mpmath.workdps(60):
        width = max(a.coeffs.size + f.coeffs.size
                    for a, f in zip(hyper.coeffs, curve.components))
        exact = [mpmath.mpc(0)] * width
        mods = [mpmath.mpf(0)] * width
        for a, f in zip(hyper.coeffs, curve.components):
            for i, x in enumerate(a.coeffs.tolist()):
                for j, y in enumerate(f.coeffs.tolist()):
                    exact[i + j] += mpmath.mpc(x) * mpmath.mpc(y)
                    mods[i + j] += abs(mpmath.mpc(x)) * abs(mpmath.mpc(y))
        return exact, mods


def fs(a, b):
    """Fubini-Study distance of two points through the grid kernel."""
    return float(pairwise_fs_grid(
        np.asarray(a, dtype=np.complex128)[:, None],
        np.asarray(b, dtype=np.complex128)[:, None])[0])


def scene_round_trip(curve):
    """An n = 1 curve written and read back through the scene format, the
    one reader of curve and polynomial JSON."""
    region = Region(-1, 1, -1, 1, 3, 3)
    hypers = [MovingHyperplane([ComplexPoly([a]), ComplexPoly([b])])
              for a, b in ((1, 0), (0, 1), (1, 1))]
    scene = Scene(n=1, region=region,
                  members=(FamilyMember(curve, hypers, "m"),),
                  config=CheckConfig(region, 0.5, 0.1), metadata={})
    text = json.dumps(scene_to_json(scene))
    return scene_from_json(json.loads(text)).members[0].curve


def chordal(a, b):
    """Chordal distance on the Riemann sphere, with infinity allowed; an
    independent oracle for the Fubini-Study distance of [1:a] and [1:b]."""
    a, b = complex(a), complex(b)
    if cmath.isinf(a) and cmath.isinf(b):
        return 0.0
    if cmath.isinf(a):
        return 1.0 / math.sqrt(1.0 + abs(b) ** 2)
    if cmath.isinf(b):
        return 1.0 / math.sqrt(1.0 + abs(a) ** 2)
    return abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


def solve_every_entry(tuples):
    """The rule ``first_common_zero`` had before its exclusion test, kept
    as its oracle: every entry of every tuple without a constant entry is
    solved in one ``roots_many`` call, and a root of a tuple's
    lowest-degree entry is common when every other entry has a root within
    TAU_ROOT of it."""
    lives = {k: sorted((p for p in polys if not p.is_zero),
                       key=lambda p: p.degree)
             for k, polys in enumerate(tuples)
             if not any(p.degree == 0 for p in polys)}
    roots = iter(roots_many([p.coeffs for live in lives.values()
                             for p in live]))
    for k, live in lives.items():
        if not live:
            return k
        first, *others = [[r for r, _ in next(roots)] for _ in live]
        if any(all(any(abs(r - root) <= config.TAU_ROOT for r in rs)
                   for rs in others) for root in first):
            return k
    return None


SHARED_OFFSETS = (0.0, config.TAU_ROOT / 2, 2 * config.TAU_ROOT, 1e-3)


@st.composite
def root_tuples(draw):
    """2 to 7 entries with roots in the unit square.  Either each entry has
    only its own random roots (a reduced tuple, but for a chance near
    miss), or the first has a root a of multiplicity 1 to 5 and every
    other entry has one of the same multiplicity at a + offset, each in
    its own direction, for an offset of ``SHARED_OFFSETS``."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(2, 7))
    mult = draw(st.integers(1, 5))
    offset = draw(st.one_of(st.none(), st.sampled_from(SHARED_OFFSETS)))
    a = complex(*rng.uniform(-1.0, 1.0, 2))
    out = []
    for i in range(k):
        own = list(rng.uniform(-1.0, 1.0, (draw(st.integers(0, 3)), 2))
                   @ [1.0, 1.0j])
        if offset is None:
            own.append(complex(*rng.uniform(-1.0, 1.0, 2)))
        else:
            turn = np.exp(2j * np.pi * rng.random())
            own += [a + (i > 0) * offset * turn] * mult
        out.append(ComplexPoly.from_roots(
            own, leading=complex(*rng.normal(size=2))))
    return out


class TestFirstCommonZero:
    """``first_common_zero`` solves only each tuple's first entry and
    clears its roots by an exclusion test; it must agree with solving and
    matching every entry."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(root_tuples(), min_size=1, max_size=3))
    def test_agrees_with_solving_every_entry(self, tuples):
        expected = solve_every_entry(tuples)
        assert first_common_zero(tuples) == expected
        # Solved once, the first entries are read again from their memo.
        assert first_common_zero(tuples) == expected

    @staticmethod
    def count_solves(monkeypatch):
        """The number of rows of each ``roots_many`` call from here on."""
        solved = []
        original = polynomial.roots_many
        monkeypatch.setattr(polynomial, "roots_many",
                            lambda rows: solved.append(len(rows))
                            or original(rows))
        return solved

    @pytest.mark.parametrize("gap, expected", [(2e-6, None), (5e-7, 0)])
    def test_two_linear_entries(self, gap, expected, monkeypatch):
        # [z - a : z - a - gap]: zeros 2 TAU_ROOT apart are cleared
        # without solving the second entry; zeros TAU_ROOT / 2 apart are
        # matched.
        a = 0.3 + 0.2j
        solved = self.count_solves(monkeypatch)
        pair = [ComplexPoly([-a, 1.0]), ComplexPoly([-a - gap, 1.0])]
        assert first_common_zero([pair]) == expected
        assert solved == ([1] if expected is None else [1, 1])

    def test_reduced_tuples_solve_only_first_entries(self, monkeypatch):
        rng = np.random.default_rng(3)
        tuples = [[ComplexPoly(c) for c in rng.normal(size=(3, 9))
                   + 1j * rng.normal(size=(3, 9))] for _ in range(4)]
        solved = self.count_solves(monkeypatch)
        assert first_common_zero(tuples) is None
        assert solved == [4]
        assert all(t[0]._roots is not None and t[1]._roots is None
                   for t in tuples)

    @pytest.mark.parametrize("scale", [1e100, 1e-100, 1e300, 1e-300])
    def test_extreme_roots_do_not_warn(self, scale):
        # Roots near 1e+-100 and 1e+-300: the exclusion's values and
        # bounds overflow or underflow without a warning, and a tuple they
        # leave uncleared is matched.
        def tuples():
            return [[ComplexPoly.from_roots([3 * scale]),
                     ComplexPoly.from_roots([scale, 2 * scale])],
                    [ComplexPoly.from_roots([scale * (1 + 1e-9)]),
                     ComplexPoly.from_roots([scale, 2j * scale])]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = first_common_zero(tuples())
        assert got == solve_every_entry(tuples())
        assert got == (None if scale > 1 else 0)

    def test_degree_1040_does_not_warn(self):
        # blowup_linear's [1 : (nu z)^1040] has a constant entry; beside
        # z - 0.5, (1.5 z)^1040 clears the root 0.5 without being solved.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for nu in (0.7, 1.0, 1.5):
                top = ComplexPoly([0.0] * 1040 + [nu ** 1040])
                assert first_common_zero([[ONE, top]]) is None
            assert first_common_zero(
                [[ComplexPoly([-0.5, 1.0]), top]]) is None
        assert top._roots is None


class TestProjCurve:
    def test_common_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            ProjCurve([Z, Z2])

    def test_needs_two_components(self):
        with pytest.raises(DimensionMismatch):
            ProjCurve([ONE])

    def test_at_and_point(self):
        f = ProjCurve([ONE, Z])
        [at] = polyval_grid(stack_coeffs(f.components), np.array([2.0])).T
        assert np.allclose(at, [1.0, 2.0])
        assert fs(at, [0.5, 1.0]) <= 1e-15

    def test_components_evaluate_as_rows(self):
        f = ProjCurve([ONE, Z, Z2])
        pts = np.array([0.0, 1.0, 2.0, 3.0])
        vals = polyval_grid(stack_coeffs(f.components), pts)
        assert vals.shape == (3, 4)
        assert np.allclose(vals[2], [0.0, 1.0, 4.0, 9.0])

    def test_degree_and_constant(self):
        assert ProjCurve([ONE, Z2]).degree == 2
        assert ProjCurve([ONE, ComplexPoly([2.0])]).is_constant

    def test_json_round_trip(self):
        f = ProjCurve([ONE, ComplexPoly([1j, 2.0])])
        g = scene_round_trip(f)
        assert g.components == f.components


class TestFamilyN:
    def test_shared_n(self):
        line, conic = ProjCurve([ONE, Z]), ProjCurve([ONE, Z, Z2])
        assert family_n([line, line, ProjCurve([Z, ONE])]) == 1
        assert family_n([conic]) == 2
        assert family_n([]) is None

    def test_names_first_curve_of_another_n(self):
        line, conic = ProjCurve([ONE, Z]), ProjCurve([ONE, Z, Z2])
        with pytest.raises(DimensionMismatch) as err:
            family_n([line, line, conic, ProjCurve([ONE, Z, Z2, Z])])
        assert str(err.value) == "curve 2 has n=2, curve 0 has n=1"


class TestMovingHyperplane:
    def test_fixed_detection(self):
        assert MovingHyperplane([ONE, ComplexPoly([2j])]).is_fixed
        assert not MovingHyperplane([ONE, Z]).is_fixed

    def test_common_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            MovingHyperplane([Z, Z])

    def test_norm(self):
        # the largest coefficient modulus, pointwise: what normalized()
        # takes the sup of
        h = MovingHyperplane([ONE, Z])
        vals = polyval_grid(stack_coeffs(induced_curve(h).components),
                            np.array([0.5, 2.0, 3.0]))
        assert np.abs(vals).max(axis=0).tolist() == [1.0, 2.0, 3.0]

    def test_normalized_unit_sup(self):
        region = Region(-1, 1, -1, 1, 11, 11)
        h = MovingHyperplane([ComplexPoly([3.0]), Z]).normalized(region)
        sup = float(np.abs(polyval_grid(stack_coeffs(h.coeffs),
                                        region.grid_points())).max())
        assert abs(sup - 1.0) <= 1e-12
        assert h.is_normalized
        # Both entries scaled by the complex factor 1/3.
        third = complex(1.0 / 3.0)
        assert [p.coeffs.tolist() for p in h.coeffs] == [[3.0 * third],
                                                        [0j, third]]

    def test_normalized_idempotent(self):
        region = Region(-1, 1, -1, 1, 11, 11)
        h = MovingHyperplane([ComplexPoly([3.0]), Z]).normalized(region)
        again = h.normalized(region)
        for a, b in zip(h.coeffs, again.coeffs):
            assert a == b


def normalized_one(coeffs, region):
    """The normalization of one hyperplane by its definition: its values on
    the grid (its coefficients when fixed), their largest modulus, the
    snap to 1 within 1e-12, else the complex factor 1/sup, which is 0 when
    not finite.  Returns the coefficient tuple and the factor."""
    rows = stack_coeffs(coeffs)
    if not all(p.is_constant for p in coeffs):
        rows = polyval_grid(rows, region.grid_points())
    sup = float(np.max(np.abs(rows)))
    if abs(sup - 1.0) <= 1e-12:
        return tuple(coeffs), 1.0
    factor = 1.0 / sup if sup > 0.0 else math.inf
    if not math.isfinite(factor):
        factor = 0.0
    return (tuple(ComplexPoly.from_rows(stack_coeffs(coeffs)
                                        * complex(factor))), factor)


# Coefficient values: small integers, signed zeros, generic doubles, and
# sizes whose grid values reach far from 1.
norm_value = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-9, 3e5]),
    st.integers(min_value=0, max_value=2 ** 32 - 1).map(
        lambda seed: float(np.random.default_rng(seed).normal())),
)


@st.composite
def hyperplane_tuples(draw, n):
    """Coefficients of n+1 polynomials of 0-4 terms each, not all zero;
    fixed (every entry constant) about half the time.  Some are scaled to
    a sup within 1e-12 of 1 on ``NORM_REGION``, the snap case."""
    fixed = draw(st.booleans())
    polys = []
    for _ in range(n + 1):
        size = draw(st.integers(0, 1 if fixed else 4))
        polys.append(ComplexPoly([complex(draw(norm_value), draw(norm_value))
                                  for _ in range(size)]))
    assume(not all(p.is_zero for p in polys))
    if draw(st.booleans()):
        _, factor = normalized_one(polys, NORM_REGION)
        nudge = 1.0 + draw(st.floats(-9e-13, 9e-13))
        polys = [ComplexPoly(p.coeffs * complex(nudge * factor))
                 for p in polys]
    return polys


NORM_REGION = Region(-1.5, 1.0, -0.5, 1.25, 5, 4)
ZERO_POLY = ComplexPoly.zero()
# 1e308 (1 + z) overflows to inf at z = 1 + 0.083i, a point of the grid.
OVERFLOW = [ComplexPoly([1e308, 1e308]), ComplexPoly([1.0])]


class TestNormalizedMany:
    """``normalized_many`` of any list of hyperplanes gives, bit for bit,
    each one's normalization by the definition, one at a time."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(hyperplane_tuples(n), min_size=1, max_size=20)))
    @example([OVERFLOW, [ONE, Z]])
    # A zero and a subnormal sup: 1/sup is not finite, so the factor is 0.
    @example([[ZERO_POLY, ZERO_POLY], [ComplexPoly([5e-324]), ZERO_POLY]])
    # Scaling 2 - 0i by the complex 1/2 gives 1 + 0i, not 1 - 0i.
    @example([[ComplexPoly([complex(2.0, -0.0)]), ComplexPoly([-0.5, 1.0])]])
    @example([[ComplexPoly([0.0, -0.0j]), ComplexPoly([-0.0, 1.0])],
              [ComplexPoly([-0.0]), ComplexPoly([2.0, 0.0, -3.0])]])
    def test_matches_definition_one_at_a_time(self, tuples):
        # Grid values may overflow (OVERFLOW does); both sides see it.
        with np.errstate(over="ignore", invalid="ignore"):
            got = normalized_many(tuples, NORM_REGION)
            want = [normalized_one(coeffs, NORM_REGION) for coeffs in tuples]
        assert len(got) == len(tuples)
        for coeffs, h, (polys, _) in zip(tuples, got, want):
            assert h.is_normalized
            assert [(p.coeffs.shape, p.coeffs.tobytes()) for p in h.coeffs] \
                == [(p.coeffs.shape, p.coeffs.tobytes()) for p in polys]
            assert [p is q for p, q in zip(h.coeffs, coeffs)] == \
                [p is q for p, q in zip(polys, coeffs)]

    def test_method_is_the_one_hyperplane_case(self):
        for coeffs in ([ComplexPoly([3.0]), Z], [ONE, ComplexPoly([2, 1j])]):
            h = MovingHyperplane(coeffs)
            one = h.normalized(NORM_REGION)
            [many] = normalized_many([coeffs], NORM_REGION)
            assert one.is_normalized and many.is_normalized
            assert one.coeffs == many.coeffs

    @pytest.mark.parametrize("coeffs, sup", [
        (OVERFLOW, math.inf),
        # Horner's steps on 1e308 (1 + z + z^2 + z^3) reach inf - inf.
        ([ComplexPoly([1e308] * 4), ONE], math.nan),
    ], ids=["inf", "nan"])
    def test_overflowed_sup_fails_at_load(self, coeffs, sup):
        # The factor 0 scales the hyperplane to zero, and the loader
        # rejects it at its own path (the 3 x 3 grid has z = 1 + i).
        region = Region(-1, 1, -1, 1, 3, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            [h] = normalized_many([coeffs], region)
            top = np.abs(polyval_grid(stack_coeffs(coeffs),
                                      region.grid_points())).max()
        assert repr(float(top)) == repr(sup)
        assert h.is_normalized
        assert all(p.is_zero for p in h.coeffs)
        hypers = [{"n": 1, "coeffs": [p.to_json() for p in polys]}
                  for polys in ([ONE, ZERO_POLY], coeffs, [ONE, ONE])]
        data = {"n": 1, "region": region.to_json(),
                "config": {"epsilon": 0.5, "delta": 1e-4},
                "members": [{"label": "m", "hyperplanes": hypers,
                             "curve": ProjCurve([ONE, Z]).to_json()}]}
        with pytest.raises(ValidationError) as err, \
                np.errstate(over="ignore", invalid="ignore"):
            scene_from_json(data)
        assert str(err.value) == ("$.members[0].hyperplanes[1]: every "
                                  "coefficient is the zero polynomial")


def pair(curve, hyper):
    """The pairing of one curve with one hyperplane, trimmed: ``pair_rows``
    of the one pairing."""
    return ComplexPoly(pair_rows([curve], [[hyper]])[0, 0])


class TestPairing:
    def test_pair_is_linear_combination(self):
        f = ProjCurve([ONE, Z])
        h = MovingHyperplane([ComplexPoly([2.0]), ComplexPoly([3.0])])
        assert pair(f, h) == ComplexPoly([2.0, 3.0])

    def test_dim_mismatch(self):
        f = ProjCurve([ONE, Z, Z2])
        h = MovingHyperplane([ONE, Z])
        with pytest.raises(DimensionMismatch):
            pair(f, h)

    def test_mixed_n_curves(self):
        # Each curve with hyperplanes of its own n, but the curves of one
        # contraction share one n.
        hypers = [[MovingHyperplane([ONE, Z])],
                  [MovingHyperplane([ONE, Z, ONE])]]
        with pytest.raises(DimensionMismatch, match="curve 1 has n=2"):
            pair_rows([ProjCurve([ONE, Z]), ProjCurve([ONE, Z, Z2])], hypers)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_mpmath_sum(self, data):
        """Every kept coefficient is within PAIR_TOL of the exact sum of
        products, relative to the sum of their moduli; every trimmed one
        is at most TAU_COEFF times the largest kept modulus, up to that
        rounding."""
        n = data.draw(st.integers(min_value=1, max_value=4))
        comps = [data.draw(pair_polys(4)) for _ in range(n + 1)]
        assume(not all(p.is_zero for p in comps))
        moving = data.draw(st.booleans())
        coeffs = [data.draw(pair_polys(3 if moving else 0))
                  for _ in range(n + 1)]
        try:
            hyper = MovingHyperplane(coeffs)
        except (AllZero, ZeroPolynomial):
            reject()
        curve = ProjCurve(comps, check_reduced=False)
        got = pair(curve, hyper).coeffs.tolist()
        exact, mods = exact_pair(curve, hyper)
        top = max(map(abs, got), default=0.0)
        with mpmath.workdps(60):
            for k, (want, mod) in enumerate(zip(exact, mods)):
                err = abs(mpmath.mpc(got[k]) - want) if k < len(got) \
                    else abs(want) - config.TAU_COEFF * top
                assert err <= PAIR_TOL * mod

    def test_sum_trimmed_once(self):
        # (1 + 1e-7 z)^2 keeps its 1e-14 z^2, which is not trailing once z^2
        # is added; the z terms cancel to the rounding of 2e-7 - 1e-19.
        small = ComplexPoly([1.0, 1e-7])
        f = ProjCurve([small, ONE, Z2], check_reduced=False)
        h = MovingHyperplane([small, ComplexPoly([1.0, -2e-7 + 1e-19]), ONE])
        got = pair(f, h).coeffs
        assert got.size == 3
        assert abs(got[1]) <= 1e-18
        assert got[2] == 1.0 + 1e-14
        # A trailing coefficient left under the trim by cancellation goes:
        # (z + 1) * 1 - (1 - 1e-14) z is the constant 1.
        h = MovingHyperplane([ComplexPoly([1.0, 1.0]),
                              ComplexPoly([-(1.0 - 1e-14)])])
        assert pair(ProjCurve([ONE, Z]), h) == ONE

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_family_contraction_matches_convolve(self, data):
        """Row [i, j] of ``pair_rows`` is the sum over l of np.convolve of
        hyperplane j's a_l and curve i's f_l, for 1-4 curves of one n =
        1...6 with zero components and 1-3 fixed or moving hyperplanes
        each: the same length once both are trimmed (the
        trailing-coefficient rule written out as a loop here), each
        coefficient within 2 PAIR_TOL of the sum's relative to the sum of
        the products' moduli, and rows past a shorter hyperplane list
        zero."""
        curves, hypers = [], []
        n = data.draw(st.integers(min_value=1, max_value=6))
        for _ in range(data.draw(st.integers(1, 4))):
            comps = [data.draw(pair_polys(4)) for _ in range(n + 1)]
            assume(not all(p.is_zero for p in comps))
            curves.append(ProjCurve(comps, check_reduced=False))
            hs = []
            for _ in range(data.draw(st.integers(1, 3))):
                moving = data.draw(st.booleans())
                try:
                    hs.append(MovingHyperplane(
                        [data.draw(pair_polys(3 if moving else 0))
                         for _ in range(n + 1)]))
                except (AllZero, ZeroPolynomial):
                    reject()
            hypers.append(hs)
        rows = pair_rows(curves, hypers)
        assert rows.shape[:2] == (len(curves), max(map(len, hypers)))
        for curve, hs, block in zip(curves, hypers, rows):
            assert not block[len(hs):].any()
            for h, row in zip(hs, block):
                want = np.zeros(rows.shape[2], dtype=np.complex128)
                mods = np.zeros(rows.shape[2])
                for a, f in zip(h.coeffs, curve.components):
                    if a.is_zero or f.is_zero:
                        continue
                    prod = np.convolve(a.coeffs, f.coeffs)
                    want[: prod.size] += prod
                    mods[: prod.size] += np.convolve(np.abs(a.coeffs),
                                                     np.abs(f.coeffs))
                keep = loop_trimmed_length(want)
                assert loop_trimmed_length(row) == keep
                assert ComplexPoly(row).coeffs.size == keep
                assert np.all(np.abs(row - want)[:keep]
                              <= 2 * PAIR_TOL * mods[:keep])

    def test_induced_curve(self):
        h = MovingHyperplane([ONE, Z])
        g = induced_curve(h)
        assert isinstance(g, ProjCurve)
        assert g.components == (ONE, Z)


class TestFsDistance:
    def test_same_point_exact_zero(self):
        a = np.array([1.0, 0.3 + 0.4j])
        assert fs(a, a) == 0.0

    def test_symmetry(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, -1.0 + 1j])
        assert fs(a, b) == fs(b, a)

    def test_orthogonal_points(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert abs(fs(a, b) - 1.0) <= 1e-15

    @given(unit_complex, unit_complex, unit_complex)
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, a, b, s):
        p = np.array([1.0, a])
        q = np.array([s, s * b])
        base = fs(np.array([1.0, a]), np.array([1.0, b]))
        assert abs(fs(p, q) - base) <= 1e-12

    def test_matches_chordal_on_affine_chart(self):
        rng = np.random.default_rng(7)
        zs = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        ws = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        for z, w in zip(zs, ws):
            d1 = chordal(z, w)
            d2 = fs(np.array([1.0, z]), np.array([1.0, w]))
            assert abs(d1 - d2) <= 1e-12

    def test_array_input(self):
        d = fs(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert abs(d - 1.0 / math.sqrt(2.0)) <= 1e-15


class TestChordal:
    def test_known_values(self):
        assert abs(chordal(0.0, 1.0) - 1.0 / math.sqrt(2.0)) <= 1e-15
        assert chordal(0.0, math.inf) == 1.0
        assert chordal(math.inf, math.inf) == 0.0

    def test_infinity_formula(self):
        # chi(z, inf) = 1 / sqrt(1 + |z|^2)
        z = 3.0 + 4.0j
        assert abs(chordal(z, math.inf) - 1.0 / math.sqrt(26.0)) <= 1e-15

    @given(unit_complex, unit_complex)
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_one(self, a, b):
        assert 0.0 <= chordal(a, b) <= 1.0 + 1e-15
