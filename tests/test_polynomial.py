import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcurve import config
from projcurve.errors import AllZero, ZeroPolynomial
from projcurve.polynomial import (ComplexPoly, _cluster_points,
                                  multiple_roots, roots_many, wronskian)
from projcurve.projective import MovingHyperplane, ProjCurve
from test_projective import scene_round_trip


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def poly_close(p, q, tol=1e-9):
    la, lb = len(p.coeffs), len(q.coeffs)
    width = max(la, lb, 1)
    pa = np.zeros(width, dtype=complex)
    pb = np.zeros(width, dtype=complex)
    pa[:la] = p.coeffs
    pb[:lb] = q.coeffs
    scale = max(1.0, np.abs(pa).max(), np.abs(pb).max())
    return np.abs(pa - pb).max() <= tol * scale


# strategies: coefficients kept in a moderate annulus so leading terms do
# not fall under the trimming threshold by accident

finite_complex = st.builds(
    complex,
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)

lead_complex = finite_complex.filter(lambda c: 0.1 <= abs(c) <= 8.0)


@st.composite
def polys(draw, max_degree=8):
    deg = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = [draw(finite_complex) for _ in range(deg)]
    coeffs.append(draw(lead_complex))
    return ComplexPoly(coeffs)


class TestConstruction:
    def test_trailing_zeros_trimmed(self):
        p = ComplexPoly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert list(p.coeffs) == [1.0 + 0j, 2.0 + 0j]

    def test_relative_trim(self):
        # trailing coefficients below TAU_COEFF * max|c| count as zero
        p = ComplexPoly([1.0, 1e-20])
        assert p.degree == 0

    def test_zero_poly(self):
        z = ComplexPoly.zero()
        assert z.is_zero
        assert z.degree == -1
        assert z(3.7 + 1j) == 0

    def test_eq_hash(self):
        assert ComplexPoly([1, 2]) == ComplexPoly([1.0, 2.0, 0.0])
        assert hash(ComplexPoly([1, 2])) == hash(ComplexPoly([1.0, 2.0]))

    def test_immutable(self):
        p = ComplexPoly([1, 2])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    # Each pair sits on the trim cut, where numpy's array abs and its scalar
    # abs of one entry fall on opposite sides: the largest modulus is read
    # with the array abs, the trailing one with the scalar abs.
    @pytest.mark.parametrize("top, tail", [
        (float.fromhex("0x1.25219ef280e51p+39"),
         -0.5442589828573099 - 0.31630015636915454j),
        (float.fromhex("0x1.a6fb8f0084e0ap+39"),
         0.9034701816518086 + 0.09401229776087457j),
        (-0.07729256326094218 - 0.03637038490501321j,
         float.fromhex("0x1.80b50b426c2dap-44")),
        (0.4842398427706556 + 1.614345267136424j,
         float.fromhex("0x1.da666b247fc0fp-40")),
    ])
    def test_trim_abs_forms(self, top, tail):
        arr = np.array([top, tail], dtype=np.complex128)
        cut = float(np.max(np.abs(arr))) * config.TAU_COEFF
        assert ComplexPoly(arr).degree == int(abs(arr[1]) > cut)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_array_input_copied(self, dtype):
        arr = np.array([1.0, 2.0, 0.0], dtype=dtype)
        p = ComplexPoly(arr)
        assert arr.flags.writeable
        assert not np.shares_memory(arr, p.coeffs)
        arr[0] = 5.0
        assert p == ComplexPoly([1.0, 2.0])


class TestArithmetic:
    def test_eval_scalar_and_array(self):
        p = ComplexPoly([1, 0, 1])  # 1 + z^2
        assert p(1j) == 0
        vals = p(np.array([0.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 5.0])

    def test_mul_degree_adds(self):
        p = ComplexPoly([1, 1])
        q = ComplexPoly([-1, 1])
        assert (p * q) == ComplexPoly([-1, 0, 1])

    def test_derivative(self):
        p = ComplexPoly([5, 3, 0, 2])  # 5 + 3z + 2z^3
        assert p.derivative() == ComplexPoly([3, 0, 6])
        assert ComplexPoly([7]).derivative().is_zero

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        rhs = p.derivative() * q + p * q.derivative()
        assert poly_close(lhs, rhs, tol=1e-10)

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_degree_additivity(self, p, q):
        assert (p * q).degree == p.degree + q.degree


class TestShiftScale:
    def test_example(self):
        p = ComplexPoly([0, 0, 1])  # z^2
        s = p.shift_scale(1.0, 2.0)  # (1 + 2w)^2
        assert s == ComplexPoly([1, 4, 4])

    @given(polys(max_degree=6), finite_complex,
           st.floats(min_value=0.05, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_evaluation(self, p, center, scale):
        w = 0.3 - 0.7j
        assert close(p.shift_scale(center, scale)(w), p(center + scale * w),
                     tol=1e-8)


class TestRoots:
    def test_cube_roots(self):
        p = ComplexPoly([1, 0, 0, 1])  # z^3 + 1
        roots = p.roots()
        expected = sorted([-1.0 + 0j,
                           cmath.exp(1j * cmath.pi / 3),
                           cmath.exp(-1j * cmath.pi / 3)],
                          key=lambda z: (z.real, z.imag))
        assert len(roots) == 3
        for (r, mult), e in zip(roots, expected):
            assert mult == 1
            assert close(r, e, tol=1e-9)

    def test_double_root_clusters(self):
        p = ComplexPoly.from_roots([2.0, 2.0, -1.0])
        roots = dict(p.roots())
        assert sorted(roots.values()) == [1, 2]
        assert any(close(r, 2.0, tol=1e-5) for r in roots)

    def test_constant_has_no_roots(self):
        assert ComplexPoly([4.0]).roots() == []

    def test_zero_poly_raises(self):
        with pytest.raises(ZeroPolynomial):
            ComplexPoly.zero().roots()

    @given(st.lists(finite_complex.filter(lambda c: abs(c) <= 3.0),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_residual_small(self, root_list):
        p = ComplexPoly.from_roots(root_list)
        scale = max(1.0, float(np.abs(p.coeffs).max()))
        for r, _ in p.roots():
            assert abs(p(r)) <= 1e-6 * scale


# Reference root finder: the algorithm before the shared-derivative polish,
# kept verbatim (per-root derivative, scalar evaluation through complex(),
# list-centroid clustering) so the fast path can be held to it bit for bit.

def _ref_eval(p, z):
    c = p.coeffs
    if c.size == 0:
        return 0j
    acc = complex(c[-1])
    zz = complex(z)
    for a in c[-2::-1]:
        acc = acc * zz + complex(a)
    return acc


def _ref_companion_roots(coeffs):
    monic = coeffs / coeffs[-1]
    d = monic.size - 1
    if d == 1:
        return np.array([-monic[0]])
    C = np.zeros((d, d), dtype=np.complex128)
    C[1:, :-1] = np.eye(d - 1)
    C[:, -1] = -monic[:-1]
    return np.linalg.eigvals(C)


def _ref_newton_polish(p, r):
    dp = p.derivative()
    fr = _ref_eval(p, r)
    dfr = _ref_eval(dp, r)
    if dfr == 0:
        return complex(r)
    cand = r - fr / dfr
    if abs(_ref_eval(p, cand)) < abs(fr):
        return complex(cand)
    return complex(r)


def _ref_cluster_points(points, tau):
    reps = []
    members = []
    for pt in sorted(points, key=lambda c: (c.real, c.imag)):
        placed = False
        for i, rep in enumerate(reps):
            if abs(pt - rep) <= tau:
                members[i].append(pt)
                reps[i] = sum(members[i]) / len(members[i])
                placed = True
                break
        if not placed:
            reps.append(pt)
            members.append([pt])
    return [(reps[i], len(members[i])) for i in range(len(reps))]


def _ref_roots(p):
    raw = _ref_companion_roots(p.coeffs)
    polished = [_ref_newton_polish(p, r) for r in raw]
    clusters = _ref_cluster_points(polished, config.TAU_CLUSTER)
    clusters.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return clusters


# Roots on a coarse lattice (0 included) give exact and signed-zero
# eigenvalues; free roots give the usual scatter around multiple roots.
lattice_complex = st.builds(
    complex,
    st.integers(-4, 4).map(lambda k: k / 4),
    st.integers(-4, 4).map(lambda k: k / 4),
)


@st.composite
def planted_polys(draw, degrees=st.integers(min_value=1, max_value=20)):
    """Degree 1..20: planted roots of multiplicity 1..5, or free coefficients."""
    if draw(st.booleans()):
        return draw(polys(max_degree=20).filter(lambda p: p.degree >= 1))
    deg = draw(degrees)
    flat = []
    while len(flat) < deg:
        root = draw(st.one_of(finite_complex, lattice_complex))
        mult = draw(st.integers(min_value=1, max_value=5))
        flat.extend([root] * mult)
    return ComplexPoly.from_roots(flat[:deg], leading=draw(lead_complex))


def _bits(pairs):
    return [(r.real.hex(), r.imag.hex(), m) for r, m in pairs]


class TestRootsReference:
    @given(planted_polys())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_bit_for_bit(self, p):
        got = p.roots()
        assert _bits(got) == _bits(_ref_roots(p))
        for r, _ in got:
            assert _bits([(p(r), 0)]) == _bits([(_ref_eval(p, r), 0)])

    # Parts within TAU_CLUSTER of each other, signed zeros included, so
    # clusters merge and a -0.0 centroid would show.
    @given(st.lists(st.builds(complex, *[st.sampled_from(
        [0.0, -0.0, 4e-7, -4e-7, 0.25, 0.25 + 4e-7])] * 2), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_cluster_centroids_match_reference(self, points):
        assert _bits(_cluster_points(points, config.TAU_CLUSTER)) == _bits(
            _ref_cluster_points(points, config.TAU_CLUSTER))

    # Few distinct degrees, so most lists stack several companion matrices
    # of one degree; constants have no roots and take no eigensolve.
    @given(st.lists(st.one_of(
        planted_polys(degrees=st.sampled_from([1, 2, 3, 5])),
        lead_complex.map(lambda c: ComplexPoly([c]))), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_roots_many_matches_reference_bit_for_bit(self, ps):
        got = roots_many(ps)
        assert [_bits(r) for r in got] == [
            _bits(_ref_roots(p) if p.degree else []) for p in ps]

    def test_roots_many_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomial):
            roots_many([ComplexPoly([1.0, 1.0]), ComplexPoly.zero()])

    @pytest.mark.parametrize("p", [
        ComplexPoly([2.0, 1.0]),
        ComplexPoly([1, 0, 0, 1]),
        ComplexPoly.from_roots([0.5] * 5 + [-1j] * 3 + [0.0] * 2),
    ])
    def test_one_derivative_per_solve(self, p, monkeypatch):
        calls = []
        derivative = ComplexPoly.derivative

        def counting(self):
            calls.append(self)
            return derivative(self)

        monkeypatch.setattr(ComplexPoly, "derivative", counting)
        p.roots()
        assert calls == [p]


class TestMultipleRoots:
    def test_regroups_scattered_double_roots(self):
        # roots() leaves the double roots at 0.75i and i as simple pairs.
        planted = [0.75j, 1j, 0.25 + 0.75j]
        p = ComplexPoly.from_roots([r for r in planted for _ in range(2)])
        assert len(p.roots()) > 3
        got = multiple_roots(p)
        assert [m for _, m in got] == [2, 2, 2]
        for (r, _), want in zip(got, sorted(planted, key=lambda c: (
                c.real, c.imag))):
            assert abs(r - want) < 1e-7

    @pytest.mark.parametrize("k", range(2, 9))
    def test_single_root_of_any_multiplicity(self, k):
        a = 0.0123 + 0.0071j
        [(r, m)] = multiple_roots(ComplexPoly.from_roots([a] * k))
        assert m == k and abs(r - a) < 1e-9

    def test_two_quadruple_roots(self):
        p = ComplexPoly.from_roots([0.5] * 4 + [-0.3j] * 4)
        assert [m for _, m in multiple_roots(p)] == [4, 4]

    def test_simple_roots_unchanged(self):
        # Distinct roots, two of them 1e-3 apart, keep roots()' clusters.
        p = ComplexPoly.from_roots([0.3, 0.301, -0.5j, 0.7 + 0.2j])
        assert multiple_roots(p) == p.roots()
        assert len(p.roots()) == 4

    def test_constant_has_no_roots(self):
        assert multiple_roots(ComplexPoly([2.0])) == []


class TestWronskian:
    def test_basic(self):
        one = ComplexPoly.one()
        z = ComplexPoly([0, 1])
        assert wronskian(one, z) == one
        # W(z, z^2+1) = z * 2z - (z^2+1) = z^2 - 1
        assert wronskian(z, ComplexPoly([1, 0, 1])) == ComplexPoly([-1, 0, 1])

    @given(polys(max_degree=6), polys(max_degree=6))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, p, q):
        assert poly_close(wronskian(p, q), -wronskian(q, p), tol=1e-12)

    @given(polys(max_degree=5))
    @settings(max_examples=30, deadline=None)
    def test_self_wronskian_zero(self, p):
        assert poly_close(wronskian(p, p), ComplexPoly.zero(), tol=1e-12)


class TestGcd:
    """The no-common-zero check of ``ProjCurve`` and ``MovingHyperplane``:
    the gcd of the nonzero entries must be constant."""

    BUILDERS = (ProjCurve, MovingHyperplane)

    def test_coprime_gives_constant(self):
        z = ComplexPoly([0, 1])
        for entries in ([ComplexPoly([1, 1]), ComplexPoly([-1, 1])],
                        # a nonzero constant rules out a common zero
                        [z, ComplexPoly.one(), z * z]):
            for build in self.BUILDERS:
                build(entries)

    def test_planted_common_factor(self):
        g = ComplexPoly.from_roots([0.5, -1.5])
        pairs = ([g * ComplexPoly([1, 1]), g * ComplexPoly([3, 0, 1])],
                 # one shared root, double in the first entry
                 [ComplexPoly.from_roots([1.0, 1.0, -2.0]),
                  ComplexPoly.from_roots([1.0, 0.0])])
        for entries in pairs:
            for build in self.BUILDERS:
                with pytest.raises(ZeroPolynomial):
                    build(entries)

    def test_all_zero_raises(self):
        for build in self.BUILDERS:
            with pytest.raises(AllZero):
                build([ComplexPoly.zero(), ComplexPoly.zero()])

    def test_zero_entries_ignored(self):
        g = ComplexPoly([2, 1])
        zero = ComplexPoly.zero()
        for build in self.BUILDERS:
            build([zero, ComplexPoly([1, 1]), ComplexPoly([-1, 1])])
            build([ComplexPoly([1, 1]), zero, ComplexPoly.one()])
            with pytest.raises(ZeroPolynomial):
                build([zero, g * ComplexPoly([1, 1]), g])
            # [0 : z + 2] is zero at z = -2
            with pytest.raises(ZeroPolynomial):
                build([zero, g])


class TestJson:
    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, p):
        curve = ProjCurve([ComplexPoly.one(), p])
        assert scene_round_trip(curve).components[1] == p

    def test_shape(self):
        p = ComplexPoly([1 + 2j])
        assert p.to_json() == [[1.0, 2.0]]
