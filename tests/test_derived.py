import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projcurve._kernels import pairwise_fs_grid, polyval_grid
from projcurve.derived import derived_map, derived_maps
from projcurve.errors import FirstComponentZero
from projcurve.polynomial import ComplexPoly, stack_coeffs
from projcurve.projective import ProjCurve

ONE = ComplexPoly.one()
Z = ComplexPoly([0, 1])


def projectively_close(f, g, pts, tol=1e-10):
    return bool(np.all(pairwise_fs_grid(
        polyval_grid(stack_coeffs(f.components), pts),
        polyval_grid(stack_coeffs(g.components), pts)) <= tol))


class TestExamples:
    def test_linear(self):
        f = ProjCurve([ONE, Z])
        d = derived_map(f)
        assert d.components == (ONE, ONE)

    def test_square(self):
        f = ProjCurve([ONE, Z * Z])
        d = derived_map(f)
        # (1, 2z) after cancelling nothing: W(1, z^2) = 2z
        assert d.components[0] == ONE
        assert d.components[1] == ComplexPoly([0, 2])

    def test_rational_normal_n2(self):
        f = ProjCurve([ONE, Z, Z * Z])
        d = derived_map(f)
        assert d.components == (ONE, ONE, ComplexPoly([0, 2]))

    def test_nontrivial_first_component(self):
        f = ProjCurve([Z, ComplexPoly([1, 0, 1])])
        d = derived_map(f)
        # (z^2, z^2 - 1), no common factor
        assert d.components[0] == ComplexPoly([0, 0, 1])
        assert d.components[1] == ComplexPoly([-1, 0, 1])

    def test_constant_curve(self):
        f = ProjCurve([ONE, ComplexPoly([3.0 + 1j])])
        d = derived_map(f)
        assert d.components[1].is_zero
        assert not d.components[0].is_zero

    def test_zero_first_component(self):
        f = ProjCurve([ComplexPoly.zero(), ONE])
        with pytest.raises(FirstComponentZero):
            derived_map(f)


class TestProjectiveWellDefined:
    def test_scalar_multiple_same_map(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
        for _ in range(10):
            coeffs0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            coeffs1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            f = ProjCurve([ComplexPoly(coeffs0), ComplexPoly(coeffs1)],
                          check_reduced=False)
            c = 0.7 - 1.3j
            g = ProjCurve([c * p for p in f.components], check_reduced=False)
            assert projectively_close(derived_map(f), derived_map(g), pts)


class TestDerivativeOfRatio:
    # at n = 1 the derived map is z -> [1 : (f1/f0)'] wherever f0 != 0
    def test_matches_quotient_rule(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50)
        p = ComplexPoly([1.0, 0.5, 1.0])           # no roots near the reals
        q = ComplexPoly([0.3, -2.0, 0.0, 1.0])
        f = ProjCurve([p, q])
        d = derived_map(f)
        dp, dq = p.derivative(), q.derivative()
        for z in pts:
            # The quotient rule: (q/p)' = (p q' - p' q) / p^2.
            ratio_prime = (p(z) * dq(z) - dp(z) * q(z)) / p(z) ** 2
            got = d.components[1](z) / d.components[0](z)
            assert abs(got - ratio_prime) <= 1e-9 * max(1.0, abs(ratio_prime))

    def test_cancellation_happens(self):
        # f0 = z^2 forces f0^2 = z^4 and W divisible by z: the tuple reduces
        p = ComplexPoly([0, 0, 1.0])
        q = ComplexPoly([1.0, 0, 0, 1.0])
        f = ProjCurve([p, q], check_reduced=False)
        d = derived_map(f)
        assert max(c.degree for c in d.components) < 4


class TestMultipleRoots:
    # A root of f0 of multiplicity m leaves the factor (z - a)^(m - 1) in
    # every part of [f0^2 : W(f0, f1) : ...], and the reduction removes it.
    A = 0.0123 + 0.0071j

    def degrees(self, mult):
        f = ProjCurve([ComplexPoly.from_roots([self.A] * mult), ONE])
        return [c.degree for c in derived_map(f).components]

    def test_double_root(self):
        assert self.degrees(2) == [3, 0]

    def test_five_fold_root(self):
        assert self.degrees(5) == [6, 0]


Z_SYM = sympy.Symbol("z")

# Roots of f0 on the Gaussian lattice with step 1/4 inside [-1, 1]^2, so
# every coefficient below is a short dyadic rational, exact in floating
# point, and the only inexact step is the root solve of f0.
lattice_roots = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 5)),
    max_size=3, unique_by=lambda t: t[:2])
small_int_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=4)


def sympy_poly(expr):
    return sympy.Poly(expr, Z_SYM, domain="QQ_I")


def to_complex_poly(poly):
    return ComplexPoly([complex(c) for c in reversed(poly.all_coeffs())])


def exact_case(drawn):
    """The curve [f0 : f1 : ...] with f0 built from lattice roots, and its
    derived map's degrees from the exact gcd in sympy; None when the curve
    is not reduced (the identity needs a reduced curve)."""
    roots, others = drawn
    f0 = sympy_poly(sympy.Mul(*[
        (Z_SYM - sympy.Rational(k, 4) - sympy.I * sympy.Rational(l, 4))
        ** m for k, l, m in roots]))
    fs = [sympy_poly(sum(c * Z_SYM ** j for j, c in enumerate(cs)))
          for cs in others]
    common = f0
    for f in fs:
        common = common.gcd(f)
    if common.degree() != 0:
        return None

    parts = [f0 * f0] + [f0 * f.diff(Z_SYM) - f0.diff(Z_SYM) * f
                         for f in fs]
    g = parts[0]
    for part in parts[1:]:
        g = g.gcd(part)
    want = [part.degree() - g.degree() if not part.is_zero else -1
            for part in parts]
    curve = ProjCurve([to_complex_poly(f) for f in [f0] + fs],
                      check_reduced=False)
    return curve, want


exact_cases = st.integers(1, 6).flatmap(lambda n: st.tuples(
    lattice_roots, st.lists(small_int_polys, min_size=n, max_size=n)))


class TestExactOracle:
    @given(exact_cases)
    # Three double roots whose eigenvalues scatter more than 1e-6 apart.
    @example(([(0, 3, 2), (0, 4, 2), (1, 3, 2)], [[1]]))
    @settings(max_examples=80, deadline=None)
    def test_degrees_match_exact_gcd(self, drawn):
        case = exact_case(drawn)
        assume(case is not None)
        curve, want = case
        got = [c.degree for c in derived_map(curve).components]
        assert got == want

    # A family of curves of several n and degrees, reduced together.
    @given(st.lists(exact_cases.map(exact_case).filter(bool),
                    min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_family_degrees_match_exact_gcd(self, cases):
        got = derived_maps([curve for curve, _ in cases])
        assert [[c.degree for c in d.components] for d in got] == [
            want for _, want in cases]
