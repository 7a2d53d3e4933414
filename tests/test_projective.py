import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from projcurve.errors import AllZero, DimensionMismatch, ZeroPolynomial
from projcurve.harness import Scene, scene_from_json, scene_to_json
from projcurve.polynomial import ComplexPoly
from projcurve.position import Region
from projcurve.projective import (MovingHyperplane, ProjCurve, fs_distance,
                                  induced_curve, pair)
from projcurve.sharing import CheckConfig, FamilyMember

ONE = ComplexPoly.one()
Z = ComplexPoly([0, 1])

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


def coeff_bits(p):
    return [(c.real.hex(), c.imag.hex()) for c in p.coeffs.tolist()]


def _ref_pair(curve, hyper):
    """``pair`` as a sum of ComplexPoly products, the formulation the array
    version must reproduce bit for bit."""
    acc = ComplexPoly.zero()
    for a, f in zip(hyper.coeffs, curve.components):
        acc = acc + a * f
    return acc


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
    independent oracle for fs_distance([1:a], [1:b])."""
    a, b = complex(a), complex(b)
    if cmath.isinf(a) and cmath.isinf(b):
        return 0.0
    if cmath.isinf(a):
        return 1.0 / math.sqrt(1.0 + abs(b) ** 2)
    if cmath.isinf(b):
        return 1.0 / math.sqrt(1.0 + abs(a) ** 2)
    return abs(a - b) / math.sqrt((1.0 + abs(a) ** 2) * (1.0 + abs(b) ** 2))


class TestProjCurve:
    def test_common_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            ProjCurve([Z, Z * Z])

    def test_needs_two_components(self):
        with pytest.raises(DimensionMismatch):
            ProjCurve([ONE])

    def test_at_and_point(self):
        f = ProjCurve([ONE, Z])
        assert np.allclose(f.at(2.0), [1.0, 2.0])
        assert fs_distance(f.at(2.0), [0.5, 1.0]) <= 1e-15

    def test_at_many_shape(self):
        f = ProjCurve([ONE, Z, Z * Z])
        pts = np.array([0.0, 1.0, 2.0, 3.0])
        vals = f.at_many(pts)
        assert vals.shape == (3, 4)
        assert np.allclose(vals[2], [0.0, 1.0, 4.0, 9.0])

    def test_degree_and_constant(self):
        assert ProjCurve([ONE, Z * Z]).degree == 2
        assert ProjCurve([ONE, ComplexPoly([2.0])]).is_constant

    def test_json_round_trip(self):
        f = ProjCurve([ONE, ComplexPoly([1j, 2.0])])
        g = scene_round_trip(f)
        assert g.components == f.components


class TestMovingHyperplane:
    def test_fixed_detection(self):
        assert MovingHyperplane([ONE, ComplexPoly([2j])]).is_fixed
        assert not MovingHyperplane([ONE, Z]).is_fixed

    def test_common_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            MovingHyperplane([Z, Z])

    def test_norm(self):
        h = MovingHyperplane([ONE, Z])
        assert h.norm(0.5) == 1.0
        assert h.norm(2.0) == 2.0
        assert h.norm(3.0) == 3.0

    def test_normalized_unit_sup(self):
        region = Region(-1, 1, -1, 1, 11, 11)
        h = MovingHyperplane([ComplexPoly([3.0]), Z]).normalized(region)
        sup = max(float(np.max(np.abs(p(region.grid_points()))))
                  for p in h.coeffs)
        assert abs(sup - 1.0) <= 1e-12
        assert h.normalization is not None
        assert abs(h.normalization["factor"] - 1.0 / 3.0) <= 1e-15

    def test_normalized_idempotent(self):
        region = Region(-1, 1, -1, 1, 11, 11)
        h = MovingHyperplane([ComplexPoly([3.0]), Z]).normalized(region)
        again = h.normalized(region)
        for a, b in zip(h.coeffs, again.coeffs):
            assert a == b

class TestPairing:
    def test_pair_is_linear_combination(self):
        f = ProjCurve([ONE, Z])
        h = MovingHyperplane([ComplexPoly([2.0]), ComplexPoly([3.0])])
        assert pair(f, h) == ComplexPoly([2.0, 3.0])

    def test_dim_mismatch(self):
        f = ProjCurve([ONE, Z, Z * Z])
        h = MovingHyperplane([ONE, Z])
        with pytest.raises(DimensionMismatch):
            pair(f, h)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bit_for_bit(self, data):
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
        assert coeff_bits(pair(curve, hyper)) == coeff_bits(
            _ref_pair(curve, hyper))

    def test_each_product_and_sum_trimmed(self):
        # (1 + 1e-7 z)^2 trims its 1e-14 z^2.  Adding 1 - (2e-7 - 1e-19) z
        # leaves a z coefficient under the trim, so the sum is the constant
        # 2 before z^2 is added: the result has no z term.
        small = ComplexPoly([1.0, 1e-7])
        f = ProjCurve([small, ONE, Z * Z], check_reduced=False)
        h = MovingHyperplane([small, ComplexPoly([1.0, -2e-7 + 1e-19]), ONE])
        got = pair(f, h)
        assert coeff_bits(got) == coeff_bits(_ref_pair(f, h))
        assert coeff_bits(got) == coeff_bits(ComplexPoly([2.0, 0.0, 1.0]))

    def test_induced_curve(self):
        h = MovingHyperplane([ONE, Z])
        g = induced_curve(h)
        assert isinstance(g, ProjCurve)
        assert g.components == (ONE, Z)


class TestFsDistance:
    def test_same_point_exact_zero(self):
        a = np.array([1.0, 0.3 + 0.4j])
        assert fs_distance(a, a) == 0.0

    def test_symmetry(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, -1.0 + 1j])
        assert fs_distance(a, b) == fs_distance(b, a)

    def test_orthogonal_points(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert abs(fs_distance(a, b) - 1.0) <= 1e-15

    @given(unit_complex, unit_complex, unit_complex)
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, a, b, s):
        p = np.array([1.0, a])
        q = np.array([s, s * b])
        base = fs_distance(np.array([1.0, a]), np.array([1.0, b]))
        assert abs(fs_distance(p, q) - base) <= 1e-12

    def test_matches_chordal_on_affine_chart(self):
        rng = np.random.default_rng(7)
        zs = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        ws = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        for z, w in zip(zs, ws):
            d1 = chordal(z, w)
            d2 = fs_distance(np.array([1.0, z]), np.array([1.0, w]))
            assert abs(d1 - d2) <= 1e-12

    def test_array_input(self):
        d = fs_distance(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
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
