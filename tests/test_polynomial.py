import bisect
import cmath
import math
import sys
import time
import warnings
from unittest import mock

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projcurve import _kernels, config, polynomial
from projcurve.derived import derived_maps
from projcurve.errors import AllZero, ZeroPolynomial
from projcurve.polynomial import ComplexPoly, root_stacks, roots_many
from projcurve.projective import MovingHyperplane, ProjCurve
from test_projective import scene_round_trip


def roots(p):
    """``roots_many`` of the one polynomial."""
    return roots_many([p.coeffs])[0]


def times(p, q):
    """The product of two polynomials, by numpy's ``polymul``."""
    return ComplexPoly(npoly.polymul(p.coeffs, q.coeffs))


def close(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


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

    def test_from_rows_is_one_poly_per_row(self):
        # Rows trimmed to different lengths, a zero row, and a NaN row (a
        # NaN largest modulus cuts nothing): each equals the polynomial
        # built from that row alone, and the caller's array stays writable
        # and unshared.
        rows = np.array([[1.0, 2.0, 0.0, 1e-20], [0.0, 0.0, 0.0, 0.0],
                         [3.0, 0.0, 1.0, 5.0], [np.nan, 1.0, 1e-20, 0.0]],
                        dtype=np.complex128)
        got = ComplexPoly.from_rows(rows)
        want = [ComplexPoly(row) for row in rows]
        assert [p.coeffs.tobytes() for p in got] == [
            p.coeffs.tobytes() for p in want]
        assert [p.degree for p in got] == [1, -1, 3, 3]
        rows[0, 0] = 7.0
        assert got[0].coeffs[0] == 1.0
        assert not got[0].coeffs.flags.writeable

    def test_overflowing_modulus_kept(self):
        # Finite parts whose modulus overflows to inf: an inf largest
        # modulus cuts nothing, as a NaN one does, so the coefficient is
        # kept alone and in a stack.
        c = 1.5e308 + 1.5e308j
        assert np.isinf(np.abs(c))
        p = ComplexPoly([c])
        assert p.degree == 0
        assert p.coeffs.tobytes() == np.array([c]).tobytes()
        got = ComplexPoly.from_rows([[c, 0.0], [1.0, 1e-300]])
        assert [q.coeffs.tolist() for q in got] == [[c, 0.0], [1.0]]

    def test_zero_poly(self):
        z = ComplexPoly.zero()
        assert z.is_zero
        assert z.degree == -1

    def test_eq_hash(self):
        assert ComplexPoly([1, 2]) == ComplexPoly([1.0, 2.0, 0.0])
        assert hash(ComplexPoly([1, 2])) == hash(ComplexPoly([1.0, 2.0]))

    def test_immutable(self):
        p = ComplexPoly([1, 2])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    # Each pair sits on the trim cut, where numpy's array abs and its scalar
    # abs of one entry fall on opposite sides: the trim reads every modulus
    # with the array abs.
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
        mags = np.abs(arr)
        assert ComplexPoly(arr).degree == int(
            mags[1] > mags.max() * config.TAU_COEFF)

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    def test_array_input_copied(self, dtype):
        arr = np.array([1.0, 2.0, 0.0], dtype=dtype)
        p = ComplexPoly(arr)
        assert arr.flags.writeable
        assert not np.shares_memory(arr, p.coeffs)
        arr[0] = 5.0
        assert p == ComplexPoly([1.0, 2.0])


class TestRoots:
    def test_cube_roots(self):
        p = ComplexPoly([1, 0, 0, 1])  # z^3 + 1
        got = roots(p)
        expected = sorted([-1.0 + 0j,
                           cmath.exp(1j * cmath.pi / 3),
                           cmath.exp(-1j * cmath.pi / 3)],
                          key=lambda z: (z.real, z.imag))
        assert len(got) == 3
        for (r, mult), e in zip(got, expected):
            assert mult == 1
            assert close(r, e, tol=1e-9)

    def test_double_root_clusters(self):
        p = ComplexPoly.from_roots([2.0, 2.0, -1.0])
        got = dict(roots(p))
        assert sorted(got.values()) == [1, 2]
        assert any(close(r, 2.0, tol=1e-5) for r in got)

    def test_constant_has_no_roots(self):
        assert roots(ComplexPoly([4.0])) == []

    def test_zero_poly_raises(self):
        with pytest.raises(ZeroPolynomial):
            roots(ComplexPoly.zero())

    @given(st.lists(finite_complex.filter(lambda c: abs(c) <= 3.0),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_residual_small(self, root_list):
        p = ComplexPoly.from_roots(root_list)
        scale = max(1.0, float(np.abs(p.coeffs).max()))
        for r, _ in roots(p):
            assert abs(npoly.polyval(r, p.coeffs)) <= 1e-6 * scale


# Unit roundoff of complex128 arithmetic.
U = 2.0 ** -53

# Smallest positive subnormal double: below 2^-1022 rounding is absolute,
# up to half of this per real component, not relative to U.
TINY = 2.0 ** -1074

# Coefficient backward error allowed to the root finder, relative to N in
# ``Planted.radius``: 32 unit roundoffs.  The largest seen over 12,000
# planted roots of degree <= 20 was about 4.5 u.
ETA = 32 * U

# Roots on a coarse lattice (0 included) give exact and signed-zero
# eigenvalues; free roots give the usual scatter around multiple roots.
lattice_complex = st.builds(
    complex,
    st.integers(-4, 4).map(lambda k: k / 4),
    st.integers(-4, 4).map(lambda k: k / 4),
)


class Planted:
    """A polynomial built by ``ComplexPoly.from_roots`` with its exact roots
    and multiplicities (a root drawn twice adds up its multiplicity)."""

    def __init__(self, flat, lead):
        self.flat = list(flat)
        self.lead = lead
        self.mults: dict[complex, int] = {}
        for a in flat:
            self.mults[a] = self.mults.get(a, 0) + 1
        self.poly = ComplexPoly.from_roots(flat, leading=lead)

    def __repr__(self):
        return f"Planted({self.flat!r}, {self.lead!r})"

    def separation(self):
        roots = list(self.mults)
        return min((abs(a - b) for i, a in enumerate(roots)
                    for b in roots[i + 1:]), default=math.inf)

    def radius(self, a):
        """R(a) = (ETA N max(1, |a|)^d / |p^(m)(a)/m!|)^(1/m), in mpmath.

        N = |lead| prod_j (1 + |a_j|) is the coefficient sum of the
        polynomial |lead| prod_j (z + |a_j|), which bounds ``from_roots``'
        rounding coefficient by coefficient; a change of ETA N in the
        coefficients' 1-norm moves an m-fold root a by about R(a) at most.
        """
        m, d = self.mults[a], self.poly.degree
        with mpmath.workdps(40):
            taylor = mpmath.mpc(self.lead)
            N = mpmath.mpf(abs(self.lead))
            for b, k in self.mults.items():
                N *= (1 + abs(mpmath.mpc(b))) ** k
                if b != a:
                    taylor *= (mpmath.mpc(a) - mpmath.mpc(b)) ** k
            scale = ETA * N * max(1, abs(a)) ** d / abs(taylor)
            return float(scale ** (mpmath.mpf(1) / m))


@st.composite
def planted(draw, degrees=st.integers(min_value=1, max_value=20)):
    """Degree 1..20 from planted roots of multiplicity 1..5."""
    deg = draw(degrees)
    flat = []
    while len(flat) < deg:
        root = draw(st.one_of(finite_complex, lattice_complex))
        mult = draw(st.integers(min_value=1, max_value=5))
        flat.extend([root] * mult)
    return Planted(flat[:deg], draw(lead_complex))


def exact_root(p, r):
    """The root x of p's stored coefficients that Newton's method in mpmath
    reaches from r, with |p'(x)|, |p''(x)| and B(x) = sum_i |c_i| |x|^i."""
    with mpmath.workdps(40):
        cs = [mpmath.mpc(c) for c in reversed(p.coeffs.tolist())]
        ds = [k * c for k, c in zip(range(len(cs) - 1, 0, -1), cs)]
        x = mpmath.mpc(r)
        for _ in range(3):
            value, slope = mpmath.polyval(cs, x, derivative=True)
            if slope == 0:
                break
            x -= value / slope
        slope, curve = mpmath.polyval(ds, x, derivative=True)
        bound = mpmath.polyval([abs(c) for c in cs], abs(x))
        return x, abs(slope), abs(curve), bound


def check_planted(case, got):
    """``got``, the roots found for ``case.poly``, against its planted roots.

    Each planted m-fold root a gets one returned root of multiplicity m
    (a root drawn twice can reach m = 10), within R(a)
    (``Planted.radius``).  A simple root r is within 2 d u B(x) / |p'(x)|
    + |p''(x)| R(a)^2 / (2 |p'(x)|) of the exact root x of the stored
    polynomial near it, B(x) = sum_i |c_i| |x|^i: Horner's rounding
    bound, plus one Newton step's contraction of an eigenvalue error R(a).
    The bare eigenvalue in general is not that close.  Underflow adds
    (2 d + |p'(x)|) TINY / |p'(x)|: an absolute TINY per Horner step, and
    r itself no nearer x than the subnormal grid allows.
    """
    p = case.poly
    radii = {a: case.radius(a) for a in case.mults}
    owner = [min(case.mults, key=lambda a: abs(r - a)) for r, _ in got]
    for a, m in case.mults.items():
        [(r, k)] = [(r, k) for (r, k), o in zip(got, owner) if o == a]
        assert k == m
        assert abs(r - a) <= radii[a]
        if m == 1:
            x, slope, curve, bound = exact_root(p, r)
            assert abs(mpmath.mpc(r) - x) * slope <= (
                2 * p.degree * U * bound + curve * radii[a] ** 2 / 2
                + (2 * p.degree + slope) * TINY)


def well_posed(case):
    """Planted roots far apart against their radii, and no leading term
    lost to the trim."""
    return (case.poly.degree == sum(case.mults.values())
            and max(map(case.radius, case.mults)) < case.separation() / 4)


def _bits(z):
    """A complex number's bits, signed zeros told apart."""
    return z.real.hex(), z.imag.hex()


class TestRootsReference:
    """``roots_many`` against exact roots, at stated tolerances."""

    @given(planted().filter(well_posed))
    # Double roots where one eigenvalue lands on the root and the other a
    # few ulps off it, with a derivative there that is rounding noise: an
    # unguarded Newton step throws that one 0.1 to 0.25 away.
    @example(Planted([1j] * 2, 0.6397384874366299 + 0.34106952407486324j))
    @example(Planted([-0.75] * 2, 0.6665898026523805 + 1.3734237065282995j))
    # A subnormal root: the exact root of the stored 1.5j z + 1e-323 is
    # about 6.6e-324j, and the nearest double, 5e-324j, is 1.6e-324 off.
    @example(Planted([5e-324j], 1.5j))
    @settings(max_examples=150, deadline=None)
    def test_matches_mpmath_roots(self, case):
        check_planted(case, roots(case.poly))

    # Few distinct degrees, so most lists stack several companion matrices
    # of one degree; constants have no roots and take no eigensolve.
    @given(st.lists(st.one_of(
        planted(degrees=st.sampled_from([1, 2, 3, 5])).filter(well_posed),
        lead_complex.map(lambda c: ComplexPoly([c]))), max_size=12))
    # A triple root near 1e-109 beside a double one of modulus 0.35: LAPACK's
    # eigensolve does not converge on its companion matrix, alone or stacked
    # with a well-behaved one.
    @example([Planted([2.947036242933972e-109] * 3 + [0.25 + 0.25j] * 2,
                      3 + 0.1j)])
    @example([Planted([0.5, -0.5j, 1 + 1j, 0.25, -1.25], 1.0),
              Planted([2.947036242933972e-109] * 3 + [0.25 + 0.25j] * 2,
                      3 + 0.1j)])
    @settings(max_examples=100, deadline=None)
    def test_roots_many_matches_mpmath_roots(self, cases):
        got = roots_many([(c if isinstance(c, ComplexPoly) else c.poly).coeffs
                          for c in cases])
        for case, roots in zip(cases, got):
            if isinstance(case, ComplexPoly):
                assert roots == []
            else:
                check_planted(case, roots)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 18: two simple roots 1e-6 apart come back as one "
        "double root"))
    @pytest.mark.parametrize("flat", [[0j, 1e-6j, 0.25j],
                                      [1e-6j, 0.25j, 0j]])
    def test_simple_roots_1e6_apart_stay_apart(self, flat):
        # A draw of the tests above.  At the midpoint 5e-7i, |p| is about
        # 6e-14, under TAU_MULTIPLE times the coefficient bound, so the
        # group test accepts a double root there, though the eigenvalues
        # resolve both simple roots to rounding.
        case = Planted(flat, 1j)
        assert well_posed(case)
        [got] = roots_many([case.poly.coeffs])
        assert [m for _, m in got] == [1, 1, 1]
        check_planted(case, got)

    # Planted multiplicities 1-5 give rows with and without a linked pair.
    @given(st.lists(planted(degrees=st.sampled_from([1, 2, 3, 5])),
                    min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_rows_without_link_make_no_group_test(self, cases):
        """The first level of group tests holds one group per component of
        two or more roots that links connect, |a - b| <= 2
        TAU_MULTIPLE^(1/d) max(1, |a|, |b|) (single linkage, in Python
        here); a row with no link is its ``root_stacks`` roots, bit for
        bit, each simple."""
        rows = [c.poly.coeffs for c in cases]
        raw = [[] for _ in rows]
        for members, roots, _, _ in root_stacks(rows):
            for i, row in zip(members, roots.tolist()):
                raw[i] = row
        levels = []

        def spy(coeffs, centre, m, radius):
            levels.append(m.size)
            return accept(coeffs, centre, m, radius)

        accept = polynomial._accept
        with mock.patch.object(polynomial, "_accept", spy):
            got = roots_many(rows)
        components = 0
        for roots, points in zip(got, raw):
            reach = 2 * config.TAU_MULTIPLE ** (1 / max(1, len(points)))
            label = list(range(len(points)))
            for i, a in enumerate(points):
                for j, b in enumerate(points[:i]):
                    if abs(a - b) <= reach * max(1.0, abs(a), abs(b)):
                        old = label[i]
                        label = [label[j] if x == old else x for x in label]
            sizes = [label.count(x) for x in set(label)]
            components += sum(k > 1 for k in sizes)
            if all(k == 1 for k in sizes):
                assert [(_bits(r), m) for r, m in roots] == [
                    (_bits(r), 1) for r in points]
        assert levels[:1] == ([components] if components else [])

    def test_roots_many_zero_polynomial_raises(self):
        with pytest.raises(ZeroPolynomial):
            roots_many([ComplexPoly([1.0, 1.0]).coeffs,
                        ComplexPoly.zero().coeffs])


class TestMultipleRoots:
    def test_regroups_scattered_double_roots(self):
        # The eigenvalues of the double roots at 0.75i and i scatter more
        # than 1e-6 apart.
        planted = [0.75j, 1j, 0.25 + 0.75j]
        p = ComplexPoly.from_roots([r for r in planted for _ in range(2)])
        [(_, [raw], _, _)] = root_stacks([p.coeffs])
        for a in planted[:2]:
            near = [z for z in raw if abs(z - a) < 1e-3]
            assert abs(near[0] - near[1]) > 1e-6
        got = roots(p)
        assert [m for _, m in got] == [2, 2, 2]
        for (r, _), want in zip(got, sorted(planted, key=lambda c: (
                c.real, c.imag))):
            assert abs(r - want) < 1e-7

    @pytest.mark.parametrize("k", range(2, 9))
    def test_single_root_of_any_multiplicity(self, k):
        # The stored polynomial's k roots x_i (mpmath) scatter around a, by
        # 7e-8 at k = 3 and 2e-4 at k = 8.  Each is located only to within
        # Horner's rounding bound 2 k u B(x_i) / |p'(x_i)|, so the centre
        # found for their group lies within the largest of those bounds of
        # their mean (which is a up to the rounding of from_roots).
        a = 0.0123 + 0.0071j
        p = ComplexPoly.from_roots([a] * k)
        [(r, m)] = roots(p)
        assert m == k
        with mpmath.workdps(60):
            cs = [mpmath.mpc(c) for c in reversed(p.coeffs.tolist())]
            xs = mpmath.polyroots(cs, maxsteps=200, extraprec=300)
            bound = max(
                2 * k * U * mpmath.polyval([abs(c) for c in cs], abs(x))
                / abs(mpmath.polyval(cs, x, derivative=True)[1]) for x in xs)
            assert abs(mpmath.mpc(r) - sum(xs) / k) <= bound

    def test_close_double_root_is_one_root(self):
        # The eigenvalues of 3 (z - a)^2 sit 2.6e-9 apart and one Newton
        # step from their centroid moves about 2e-9, more than their spread
        # but well inside the link radius 2 TAU_MULTIPLE^(1/2) max(1, |c|).
        a = 0.3 + 0.2j
        p = ComplexPoly.from_roots([a, a], leading=3.0)
        [(_, [raw], _, _)] = root_stacks([p.coeffs])
        assert 0 < abs(raw[0] - raw[1]) < 1e-8
        [(r, m)] = roots(p)
        assert m == 2
        assert abs(r - a) < 1e-9

    def test_ninefold_root_is_one_root(self):
        # The polished eigenvalues of the 9-fold root have their centroid
        # 1e-3 from 1, too far for one Newton step on p^(8); the raw
        # eigenvalues' centroid is close enough.
        p = ComplexPoly.from_roots([1.0] * 9 + [0.0], leading=1j)
        [(r0, m0), (r1, m1)] = roots(p)
        assert (m0, m1) == (1, 9)
        assert abs(r0) < 1e-12 and abs(r1 - 1) < 1e-9

    def test_two_quadruple_roots(self):
        p = ComplexPoly.from_roots([0.5] * 4 + [-0.3j] * 4)
        assert [m for _, m in roots(p)] == [4, 4]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP row I: adjacent 5-fold roots are grouped as 4, 4, 4, 2 "
        "(item 18)"))
    def test_row_i_two_fivefold_roots_beside_a_fourfold(self):
        # f0 = prod (z - a)^m for a = (-3 - i)/4 (m = 4), (-4 - 2i)/4 and
        # (-4 - 3i)/4 (m = 5), ascending from np.poly.  The derived map of
        # [f0 : 1] is [s f0 : -t] with s of degree 3, so degrees [17, 2].
        planted = ([(-3 - 1j) / 4] * 4 + [(-4 - 2j) / 4] * 5
                   + [(-4 - 3j) / 4] * 5)
        f0 = ComplexPoly(np.poly(planted)[::-1])
        assert sorted(m for _, m in roots(f0)) == [4, 5, 5]
        [d] = derived_maps([ProjCurve([f0, ComplexPoly.one()],
                                      check_reduced=False)])
        assert [p.degree for p in d.components] == [17, 2]

    def test_degree_1040_root_without_warnings(self):
        # The group test's Taylor shift of (0.7 z)^1040 has binomials past
        # the float range, inf times the zero coefficients: the one
        # 1040-fold root at 0 still comes back, with no RuntimeWarning.
        row = np.zeros(1041, dtype=np.complex128)
        row[-1] = 0.7 ** 1040
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert roots_many([row]) == [[(0j, 1040)]]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "CHANGES.md FOUND after PR 25: the group test passes the 1040-fold "
        "group of (0.7 z)^1040 on NaN values (item 18)"))
    def test_degree_1040_group_decided_on_finite_values(self, monkeypatch):
        # The group test compares each lower Taylor coefficient at the
        # group's centre with its bound.  Binomials past the float range
        # make them NaN, and a NaN passes the comparison: a group must be
        # refused, or accepted on values and bounds that are finite.
        row = np.zeros(1041, dtype=np.complex128)
        row[-1] = 0.7 ** 1040
        accepted = []
        accept = polynomial._accept

        def spy(coeffs, centre, m, radius):
            c, ok = accept(coeffs, centre, m, radius)
            accepted.extend((coeffs[g:g + 1], c[g], m[g])
                            for g in np.flatnonzero(ok))
            return c, ok

        monkeypatch.setattr(polynomial, "_accept", spy)
        with np.errstate(all="ignore"):
            roots_many([row])
            assert accepted
            for coeffs, c, m in accepted:
                j = np.arange(m - 1)
                lower = _kernels._taylor(coeffs, np.zeros_like(j), j)
                vals = _kernels.polyval_grid(
                    np.concatenate([lower, np.abs(lower)]),
                    np.repeat([c, max(1.0, abs(c))], j.size)[:, None])
                assert np.isfinite(vals).all()

    def test_simple_roots_unchanged(self):
        # Distinct roots, two of them 1e-3 apart, are the raw roots, bit
        # for bit, each simple.
        p = ComplexPoly.from_roots([0.3, 0.301, -0.5j, 0.7 + 0.2j])
        [(_, [raw], _, _)] = root_stacks([p.coeffs])
        assert [(_bits(r), m) for r, m in roots(p)] == [
            (_bits(r), 1) for r in raw.tolist()]

    def test_constant_has_no_roots(self):
        assert roots_many([ComplexPoly([2.0]).coeffs])[0] == []

    # Mixed degrees, constants included, so one split level holds groups
    # of several polynomials, of several widths and multiplicities 1-5.
    @given(st.lists(st.one_of(
        planted(degrees=st.integers(1, 12)).filter(well_posed),
        lead_complex.map(lambda c: ComplexPoly([c]))), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_batched_matches_one_at_a_time(self, cases):
        """Each polynomial of a batch gets the multiplicities it gets
        alone, per planted root, and its roots lie within the m-fold
        radius R(a) of ``Planted.radius``."""
        polys = [c if isinstance(c, ComplexPoly) else c.poly for c in cases]
        for case, p, got in zip(cases, polys,
                                roots_many([p.coeffs for p in polys])):
            alone = roots(p)
            if isinstance(case, ComplexPoly):
                assert got == alone == []
                continue

            def mults(roots):
                owner = [min(case.mults, key=lambda a: abs(r - a))
                         for r, _ in roots]
                return {a: sorted(m for (_, m), o in zip(roots, owner)
                                  if o == a) for a in case.mults}

            assert mults(got) == mults(alone)
            for a, ms in mults(got).items():
                assert sum(ms) == case.mults[a]
            for r, _ in got:
                a = min(case.mults, key=lambda a: abs(r - a))
                assert abs(r - a) <= case.radius(a)

    def test_squarefree_family_makes_no_group_test(self, monkeypatch):
        """Simple roots on the 1/4 lattice in [-1, 1]^2, degree <= 8, are
        farther apart than the link radius 2 TAU_MULTIPLE^(1/8) sqrt(2) =
        0.067, so no group is tested; a 4-fold root in the same family is,
        once."""
        tested = []

        def counting(coeffs, centre, m, radius):
            tested.extend(m.tolist())
            return accept(coeffs, centre, m, radius)

        accept = polynomial._accept
        monkeypatch.setattr(polynomial, "_accept", counting)
        rng = np.random.default_rng(3)
        lattice = [complex(a, b) / 4 for a in range(-4, 5)
                   for b in range(-4, 5)]
        polys = [ComplexPoly.from_roots(
                    rng.choice(lattice, size=d, replace=False).tolist(),
                    leading=complex(*rng.normal(size=2)))
                 for d in range(1, 9) for _ in range(6)]
        got = roots_many([p.coeffs for p in polys])
        assert tested == []
        assert all(m == 1 for roots in got for _, m in roots)
        four = ComplexPoly.from_roots([0.3 + 0.2j] * 4 + [-0.5, 0.5j])
        got = roots_many([p.coeffs for p in polys + [four]])[-1]
        assert tested == [4]
        assert sorted(m for _, m in got) == [1, 1, 4]

    def test_planted_sweep_keeps_multiplicities(self):
        """2000 polynomials of degree 8 with roots in [-0.8, 0.8]^2 at least
        0.1 apart, one of multiplicity 2-5 and at times a second of 2-5:
        every planted multiplicity comes back, and each multiple root's
        eigenvalues scatter within TAU_MULTIPLE^(1/8), half the link
        radius (at most 3.7e-3 here, for the 5-fold roots)."""
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(2000):
            mults = [int(rng.integers(2, 6))]
            if 8 - mults[0] >= 3 and rng.random() < 0.5:
                mults.append(int(rng.integers(2, min(5, 8 - mults[0]) + 1)))
            mults += [1] * (8 - sum(mults))
            roots: list[complex] = []
            while len(roots) < len(mults):
                z = complex(*rng.uniform(-0.8, 0.8, 2))
                if all(abs(z - w) >= 0.1 for w in roots):
                    roots.append(z)
            cases.append(list(zip(roots, mults)))
        polys = [ComplexPoly.from_roots([a for a, m in case for _ in range(m)])
                 for case in cases]
        for case, got in zip(cases, roots_many([p.coeffs for p in polys])):
            assert sorted(m for _, m in got) == sorted(m for _, m in case)
        half_reach = config.TAU_MULTIPLE ** (1 / 8)
        [(_, raws, _, _)] = root_stacks([p.coeffs for p in polys])
        for case, raw in zip(cases, raws.tolist()):
            for r in raw:
                a, m = min(case, key=lambda am: abs(r - am[0]))
                if m > 1:
                    assert abs(r - a) < half_reach


def near_side_relaxed(points, holds):
    """``polynomial._near_side`` by its definition: each root's minimax
    distance from the group's first root, relaxed over paths of up to
    S - 1 edges, and the roots below the largest of them."""
    F, D = holds.shape
    f, i = np.nonzero(holds)
    rank = holds.cumsum(axis=1)[f, i] - 1
    S = rank.max() + 1
    pts = np.zeros((F, S), dtype=np.complex128)
    pts[f, rank] = points[f, i]
    held = np.zeros((F, S), dtype=bool)
    held[f, rank] = True
    dist = np.where(held[:, :, None] & held[:, None, :],
                    np.abs(pts[:, :, None] - pts[:, None, :]), np.inf)
    reach = dist[:, 0]
    for _ in range(S - 2):
        reach = np.maximum(reach[:, :, None], dist).min(axis=1)
    cut = np.where(held, reach, -np.inf).max(axis=1)
    near = np.zeros((F, D), dtype=bool)
    near[f, i] = (reach < cut[:, None])[f, rank]
    return near


class TestNearSide:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_relaxation(self, seed):
        # Groups of 3 to D roots in rows of D, some columns unheld; a third
        # of the rows on a quarter-integer lattice, where distances tie.
        rng = np.random.default_rng(seed)
        for _ in range(100):
            F, D = rng.integers(1, 8), rng.integers(3, 13)
            holds = np.zeros((F, D), dtype=bool)
            for row in holds:
                size = rng.integers(3, D + 1)
                row[rng.choice(D, size, replace=False)] = True
            points = rng.standard_normal((F, D)) + 1j * rng.standard_normal(
                (F, D))
            lattice = rng.random(F) < 1 / 3
            points[lattice] = (rng.integers(-3, 4, (lattice.sum(), D))
                               + 1j * rng.integers(-3, 4, (lattice.sum(), D))
                               ) / 4
            got = polynomial._near_side(points, holds)
            assert (got == near_side_relaxed(points, holds)).all()
            assert not (got & ~holds).any()


class TestNewton:
    def test_overflowing_step_refused_silently(self):
        # 1 + z^300 overflows at 20, in its value and its derivative; the
        # step from there is refused without a RuntimeWarning, and the step
        # from beside the root e^(i pi/300) is taken.
        P = np.zeros((1, 301), dtype=np.complex128)
        P[0, [0, 300]] = 1.0
        root = cmath.exp(1j * cmath.pi / 300)
        r = np.array([[20.0, root * (1 + 1e-4)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = polynomial._newton(P, r)
        assert got[0, 0] == 20.0
        assert abs(got[0, 1] - root) < abs(r[0, 1] - root)


class TestTaylorIndex:
    """The binomial table of the Taylor shift, built by Pascal's rule."""

    def test_exact_while_below_2_53(self):
        # C(56, 28) < 2**53 < C(57, 28): every entry at L <= 57 is exact.
        for L in range(58):
            binom, index = _kernels._taylor_index.__wrapped__(L)
            want = [[float(math.comb(t + j, j)) if t + j < L else 0.0
                     for t in range(L)] for j in range(L)]
            assert binom.tobytes() == np.array(want).reshape(L, L).tobytes()
            assert index.tolist() == [[min(t + j, L - 1) for t in range(L)]
                                      for j in range(L)]

    def test_inf_past_the_float_range(self):
        L = 1100
        start = time.perf_counter()
        binom, _ = _kernels._taylor_index.__wrapped__(L)
        assert time.perf_counter() - start < 1.0
        # C(t + j, j) grows with t: row j is inf from the first t whose
        # binomial exceeds the largest double up to t + j = L - 1.
        first = [bisect.bisect_left(
            range(L - j), True,
            key=lambda t: math.comb(t + j, j) > sys.float_info.max)
            for j in range(L)]
        t = np.arange(L)
        big = (t >= np.array(first)[:, None]) & (t + t[:, None] < L)
        assert big.any()
        assert (np.isinf(binom) == big).all()
        assert not np.isnan(binom).any()


class TestGcd:
    """The no-common-zero check of ``ProjCurve`` and ``MovingHyperplane``:
    the gcd of the nonzero entries must be constant."""

    BUILDERS = (ProjCurve, MovingHyperplane)

    def test_coprime_gives_constant(self):
        z = ComplexPoly([0, 1])
        for entries in ([ComplexPoly([1, 1]), ComplexPoly([-1, 1])],
                        # a nonzero constant rules out a common zero
                        [z, ComplexPoly.one(), ComplexPoly([0, 0, 1])]):
            for build in self.BUILDERS:
                build(entries)

    def test_planted_common_factor(self):
        g = ComplexPoly.from_roots([0.5, -1.5])
        pairs = ([times(g, ComplexPoly([1, 1])),
                  times(g, ComplexPoly([3, 0, 1]))],
                 # one shared root, double in the first entry
                 [ComplexPoly.from_roots([1.0, 1.0, -2.0]),
                  ComplexPoly.from_roots([1.0, 0.0])],
                 # a shared 4-fold root, whose eigenvalues scatter by 1e-4
                 [ComplexPoly.from_roots([0.0123 + 0.0071j] * 4),
                  ComplexPoly.from_roots([0.0123 + 0.0071j] * 4 + [-1.0])])
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
                build([zero, times(g, ComplexPoly([1, 1])), g])
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
