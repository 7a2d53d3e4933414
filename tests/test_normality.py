import collections
import dataclasses
import math
import warnings

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcurve import _kernels, normality, position
from projcurve._kernels import (fs_derivative_grid, pairwise_fs_grid,
                                polyval_grid)
from projcurve.errors import (DimensionMismatch, NotBlowingUp,
                              NumericOverflow, WrongCount)
from projcurve.normality import marty_sup, marty_sups, zalcman_search
from projcurve.polynomial import ComplexPoly, roots_many, stack_coeffs
from projcurve.position import Region
from projcurve.projective import ProjCurve, pair_rows
from projcurve.sharing import FamilyMember

ONE = ComplexPoly.one()
Z = ComplexPoly([0, 1])
REGION = Region(-1, 1, -1, 1, 41, 41)


def fixed_hyper(*values):
    from projcurve.projective import MovingHyperplane
    return MovingHyperplane([ComplexPoly([v]) for v in values])


def linear_family(N):
    return [ProjCurve([ONE, ComplexPoly([0.0, float(nu)])])
            for nu in range(1, N + 1)]


def zalcman(curves):
    return zalcman_search(curves, marty_sup(curves, REGION))


# Unit roundoff of complex128 arithmetic.
U = 2.0 ** -53


def derivative(p):
    """The derivative of a polynomial, by numpy's ``polyder``."""
    return ComplexPoly(npoly.polyder(p.coeffs))


def scaled(c, comps):
    """Every polynomial of ``comps`` times the number c."""
    return [ComplexPoly(c * p.coeffs) for p in comps]


def fs_at(curve, pts):
    """The Fubini-Study derivative of one curve at the points, from the
    stacked sweep."""
    return normality._fs_values(
        [curve], np.asarray(pts, dtype=np.complex128).ravel())[0]


def assert_fs_derivative_close(curve, got, pts):
    """``got`` against the Fubini-Study derivative of ``curve`` at ``pts``
    in mpmath.

    The tolerance is Horner's rounding bound carried through the
    cross-term form: 16 L P u |f|~ |f'|~ / |f|^2, with L the coefficient
    length, P = n + 1, and |f|~, |f'|~ the Euclidean norms of
    sum_i |c_li| |z|^i over the components and their derivatives.
    """
    comps = curve.components
    ders = [derivative(p) for p in comps]
    L = max(p.coeffs.size for p in comps)
    P = len(comps)
    with mpmath.workdps(40):
        for z, g in zip(pts.tolist(), got.tolist()):
            zz = mpmath.mpc(z)

            def value(p, x):
                return mpmath.polyval(
                    [mpmath.mpc(c) for c in reversed(p.coeffs.tolist())]
                    or [0], x)

            v = [value(p, zz) for p in comps]
            dv = [value(p, zz) for p in ders]
            bv = [value(ComplexPoly(np.abs(p.coeffs)), abs(zz))
                  for p in comps]
            bdv = [value(ComplexPoly(np.abs(p.coeffs)), abs(zz))
                   for p in ders]
            s2 = sum(abs(x) ** 2 for x in v)
            num = sum(abs(v[i] * dv[j] - v[j] * dv[i]) ** 2
                      for i in range(P) for j in range(i + 1, P))
            want = mpmath.sqrt(num) / s2
            tol = (16 * L * P * U * mpmath.sqrt(sum(abs(b) ** 2 for b in bv))
                   * mpmath.sqrt(sum(abs(b) ** 2 for b in bdv)) / s2)
            assert abs(g - want) <= tol


class TestFsDerivative:
    def test_identity_chart(self):
        f = ProjCurve([ONE, Z])
        # |g'| / (1 + |g|^2) with g = z
        assert fs_at(f, [0.0])[0] == 1.0
        assert abs(fs_at(f, [1.0])[0] - 0.5) <= 1e-15
        assert abs(fs_at(f, [1j])[0] - 0.5) <= 1e-15

    def test_constant_curve_zero(self):
        f = ProjCurve([ONE, ComplexPoly([2.0 + 1j])])
        assert fs_at(f, [0.37])[0] == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            coeffs = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            f = ProjCurve([ComplexPoly(c) for c in coeffs],
                          check_reduced=False)
            g = ProjCurve(scaled(2.0 - 3.0j, f.components),
                          check_reduced=False)
            z = complex(*rng.uniform(-1, 1, 2))
            a, b = fs_at(f, [z])[0], fs_at(g, [z])[0]
            assert abs(a - b) <= 1e-10 * max(1.0, a)

    def test_grid_matches_pointwise(self):
        # Near z = 0 the derivative (1, 1 + 2e-6 z) of the second curve is
        # almost parallel to the curve: the sine of the angle is about
        # 1e-6, which the naive |f|^2 |f'|^2 - |<f, f'>|^2 numerator loses.
        region = Region(-1, 1, -1, 1, 9, 9)
        pts = region.grid_points()
        some = pts[[0, 17, 40, 53, 80]]
        for comps in ([[1.0], [0.3, -1.0, 0.5]],
                      [[1.0, 1.0], [1.0, 1.0, 1e-6]],
                      [[0.2j, 1.0, -0.5], [1.0, 0.0, 0.0, 0.7], [0, 2 - 1j]]):
            f = ProjCurve([ComplexPoly(c) for c in comps],
                          check_reduced=False)
            assert_fs_derivative_close(f, fs_at(f, pts), pts)
            assert_fs_derivative_close(f, fs_at(f, some), some)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), degree=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_mpmath(self, n, degree, seed):
        rng = np.random.default_rng(seed)
        f = ProjCurve(_random_curve(rng, n, degree, 1.0),
                      check_reduced=False)
        region = Region(-1, 1, -1, 1, 5, 5)
        assert_fs_derivative_close(f, fs_at(f, region.grid_points()),
                                   region.grid_points())

    def test_quotient_formula_n1(self):
        rng = np.random.default_rng(5)
        f0 = ComplexPoly([1.0, 0.2, 0.8])
        f1 = ComplexPoly([0.1, -1.5, 0.0, 0.7])
        f = ProjCurve([f0, f1])
        # numpy's polyval and polyder as the oracle.
        pts = rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50)
        v0, v1, d0, d1 = (npoly.polyval(pts, c) for c in (
            f0.coeffs, f1.coeffs, npoly.polyder(f0.coeffs),
            npoly.polyder(f1.coeffs)))
        want = np.abs(v0 * d1 - v1 * d0) / (np.abs(v0) ** 2 + np.abs(v1) ** 2)
        assert np.all(np.abs(fs_at(f, pts) - want) <= 1e-12)


class TestMartySup:
    def test_linear_sups_exact(self):
        stats = marty_sup(linear_family(8), REGION)
        assert stats.sups == tuple(float(nu) for nu in range(1, 9))
        # the sup of nu / (1 + nu^2 |z|^2) sits at the origin
        assert all(m.argmax == 0.0 for m in stats.members)
        assert stats.verdict == "blow-up"

    def test_translation_family_bounded(self):
        curves = [ProjCurve([ONE, ComplexPoly([-0.1 * k, 1.0])])
                  for k in range(6)]
        stats = marty_sup(curves, REGION)
        assert stats.verdict == "bounded"
        assert max(stats.sups) <= 1.0 + 1e-12

    def test_too_few_members_inconclusive(self):
        stats = marty_sup(linear_family(2), REGION)
        assert stats.verdict == "inconclusive"

    def test_over_cap_without_growth_inconclusive(self):
        curves = [ProjCurve([ONE, ComplexPoly([0.0, 2000.0])])
                  for _ in range(4)]
        stats = marty_sup(curves, REGION)
        assert stats.verdict == "inconclusive"

    def test_empty_family_raises(self):
        with pytest.raises(WrongCount):
            marty_sup([], REGION)

    def test_overflowed_sup_inconclusive(self):
        # [1 : (nu z)^1040] on blowup_linear's region: at nu = 1.5, |f|^2
        # overflows at the corners, so that member's sup is NaN; a NaN that
        # is not the first sup escapes max(), which must not make the family
        # bounded.
        curves = [ProjCurve([ONE, ComplexPoly([0.0] * 1040 + [nu ** 1040])])
                  for nu in (0.7, 1.0, 1.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = marty_sup(curves, REGION)
        assert abs(stats.sups[0] - 0.0201) <= 1e-4
        assert abs(stats.sups[1] - 520.0) <= 1e-9
        assert math.isnan(stats.sups[2])
        assert stats.verdict == "inconclusive"

    def test_classify_not_finite_inconclusive(self):
        # Bounded or blow-up sequences but for one sup that is not finite,
        # wherever it sits.
        for sups in ((0.5, 0.5, 0.5, 0.5), (1.0, 2.0, 4.0, 8.0)):
            for bad in (math.nan, math.inf):
                for k in range(len(sups)):
                    broken = sups[:k] + (bad,) + sups[k + 1:]
                    assert normality._classify(broken) == "inconclusive"

    def test_constant_curves_skip_the_grid(self, monkeypatch):
        zero = ComplexPoly.zero()
        curves = [ProjCurve([ComplexPoly([c ** l]) for l in range(4)])
                  for c in (0.3 + 0.1j, -0.2j, 0.45)]
        curves += [ProjCurve([zero, ONE, zero, zero]),
                   ProjCurve([ONE, ComplexPoly([0.0, 2.0]), zero, zero])]
        # The grid path, as taken by curves that are not constant.
        monkeypatch.setattr(ProjCurve, "is_constant",
                            property(lambda self: False))
        grid = marty_sup(curves, REGION)
        monkeypatch.undo()
        swept = []
        sups = normality._fs_sups

        def recording(batch, region):
            swept.extend(batch)
            return sups(batch, region)

        monkeypatch.setattr(normality, "_fs_sups", recording)
        assert marty_sup(curves, REGION) == grid
        assert swept == curves[-1:]

    def test_tiny_and_huge_coordinates(self):
        # [c : c z] is [1 : z] projectively; |f|^2 underflows or overflows
        # unless the coordinates are rescaled first.
        ref = marty_sup([ProjCurve([ONE, Z])], REGION)
        for c in (1e-170, 1e170):
            f = ProjCurve([ComplexPoly([c]), ComplexPoly([0.0, c])])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert marty_sup([f], REGION) == ref
                assert abs(fs_at(f, [0.3])[0] - 1.0 / 1.09) <= 1e-15

    def test_grid_built_once(self, monkeypatch):
        calls = []
        meshgrid = np.meshgrid

        def counting(*args, **kwargs):
            calls.append(args)
            return meshgrid(*args, **kwargs)

        monkeypatch.setattr(position.np, "meshgrid", counting)
        region = Region(-1, 1, -1, 1, 21, 21)
        marty_sup(linear_family(50), region)
        assert len(calls) == 1

    def test_grid_refinement_monotone(self):
        # a finer grid contains the coarse one, so sups cannot decrease
        f = ProjCurve([ONE, ComplexPoly([0.3, -1.0, 2.0])])
        coarse = marty_sup([f] * 3, REGION)
        fine = marty_sup([f] * 3, dataclasses.replace(
            REGION, grid_nx=2 * REGION.grid_nx - 1,
            grid_ny=2 * REGION.grid_ny - 1))
        assert fine.sups[0] >= coarse.sups[0]


def _random_curve(rng, n, degree, scale):
    return [ComplexPoly(scale * (rng.standard_normal(degree + 1)
                                 + 1j * rng.standard_normal(degree + 1)))
            for _ in range(n + 1)]


def _unscaled_pack(curve):
    comps = curve.components
    ders = [derivative(p) for p in comps]
    L = max(p.coeffs.size for p in comps)
    Ld = max(max(p.coeffs.size for p in ders), 1)
    comp = np.zeros((len(comps), L), dtype=np.complex128)
    dcomp = np.zeros((len(comps), Ld), dtype=np.complex128)
    for i, (p, d) in enumerate(zip(comps, ders)):
        comp[i, : p.coeffs.size] = p.coeffs
        dcomp[i, : d.coeffs.size] = d.coeffs
    return comp, dcomp


class TestPowerOfTwoScaling:
    """The Fubini-Study kernels scale their inputs by a power of two."""

    grid = Region(-1, 1, -1, 1, 7, 7)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), degree=st.integers(1, 4),
           k=st.integers(-400, 400), j=st.integers(-400, 400),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_invariant(self, n, degree, k, j, seed):
        rng = np.random.default_rng(seed)
        comps = _random_curve(rng, n, degree, 1.0)
        f = ProjCurve(comps, check_reduced=False)
        g = ProjCurve(scaled(2.0 ** k, comps), check_reduced=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (fs_at(f, self.grid.grid_points()).tobytes()
                    == fs_at(g, self.grid.grid_points()).tobytes())
            z = complex(*rng.uniform(-1, 1, 2))
            assert fs_at(f, [z])[0].hex() == fs_at(g, [z])[0].hex()
            pts = self.grid.grid_points()
            a = polyval_grid(stack_coeffs(comps), pts)
            b = polyval_grid(stack_coeffs(_random_curve(rng, n, degree, 1.0)),
                             pts)
            assert (pairwise_fs_grid(a, b).tobytes()
                    == pairwise_fs_grid(2.0 ** k * a, 2.0 ** j * b).tobytes())

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), degree=st.integers(1, 4),
           exponent=st.floats(-5, 5), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_unscaled_kernel(self, n, degree, exponent, seed):
        # Where nothing underflows or overflows, scaling changes no bit.
        rng = np.random.default_rng(seed)
        f = ProjCurve(_random_curve(rng, n, degree, 10.0 ** exponent),
                      check_reduced=False)
        pts = self.grid.grid_points()
        comp, dcomp = _unscaled_pack(f)
        raw = fs_derivative_grid(comp[None], dcomp[None], pts)
        assert raw.shape == (1, pts.size)
        assert fs_at(f, self.grid.grid_points()).tobytes() == \
            raw[0].tobytes()


class TestStackedMarty:
    """A curve's sup, argmax and grid values have the same bits swept
    alone and inside a family of one n that mixes degrees, scales,
    constant curves and repeated objects, at every block size."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6),
           shapes=st.lists(st.tuples(st.integers(0, 4),
                                     st.sampled_from([-170, 0, 170])),
                           min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_alone_equals_in_family(self, n, shapes, seed):
        rng = np.random.default_rng(seed)
        region = Region(-1, 1, -0.5, 0.5, 7, 5)
        pts = region.grid_points()
        # Degree 0 makes a constant curve.
        curves = [ProjCurve(_random_curve(rng, n, degree, 10.0 ** e),
                            check_reduced=False)
                  for degree, e in shapes]
        family = curves + curves[:2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = [marty_sup([f], region).members[0] for f in family]
            grids = [fs_at(f, region.grid_points()).tobytes()
                     for f in family]
            with pytest.MonkeyPatch.context() as mp:
                # One curve per block; two; the default; all.
                for block in (1, 4 * (n + 1) * pts.size, _kernels._EVAL_BLOCK,
                              1 << 30):
                    mp.setattr(_kernels, "_EVAL_BLOCK", block)
                    got = marty_sup(family, region).members
                    assert [(m.sup.hex(), m.argmax) for m in got] == \
                        [(m.sup.hex(), m.argmax) for m in want]
                    assert [row.tobytes() for row in normality._fs_values(
                        family, pts)] == grids


def full_grid_members(curves, region):
    """(sup.hex(), argmax) of each curve from the full grid: the first
    maximum in grid order, or the first NaN."""
    pts = region.grid_points()
    vals = normality._fs_values(curves, pts)
    top = np.argmax(vals, axis=1)
    return [(float(v[k]).hex(), complex(pts[k])) for v, k in zip(vals, top)]


def blowup_scene(n=3, N=50):
    """blowup_linear's region and family: [1 : nu z : ... : (nu z)^n],
    nu = 1 ... N, on 81 x 81 points of [-1, 1]^2; by default blowup_marty's
    (n = 3, N = 50)."""
    region = Region(-1, 1, -1, 1, 81, 81)
    curves = [ProjCurve([ComplexPoly([0.0] * l + [float(nu) ** l])
                         for l in range(n + 1)])
              for nu in range(1, N + 1)]
    return region, curves


# Grid sides that are not multiples of the cell side.
SIDES = st.integers(2, 41).filter(lambda m: m % normality._CELL)


class TestPrunedMarty:
    """The Marty sweep evaluates only the cells whose bound may hold a
    member's sup, and keeps the sup and argmax of the full grid bit for
    bit."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8),
           shapes=st.lists(st.tuples(st.integers(0, 12),
                                     st.sampled_from([-170, 0, 170])),
                           min_size=1, max_size=5),
           nx=SIDES, ny=SIDES,
           box=st.tuples(st.floats(-2, 0), st.floats(0.1, 2),
                         st.floats(-2, 0), st.floats(0.1, 2)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_full_grid(self, n, shapes, nx, ny, box, seed):
        rng = np.random.default_rng(seed)
        x0, w, y0, h = box
        region = Region(x0, x0 + w, y0, y0 + h, nx, ny)
        # Degree 0 makes a constant curve; the first two curves repeat.
        curves = [ProjCurve(_random_curve(rng, n, degree, 10.0 ** e),
                            check_reduced=False)
                  for degree, e in shapes]
        family = curves + curves[:2]
        M = region.grid_points().size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = full_grid_members(family, region)
            with pytest.MonkeyPatch.context() as mp:
                # The block sizes of TestStackedMarty, and one just short
                # of a curve's grid: the sweep skips cells only for curves
                # whose grid fills more than a block.
                for block in (1, 4 * (n + 1) * M, _kernels._EVAL_BLOCK,
                              1 << 30, 2 * (n + 1) * M - 1):
                    mp.setattr(_kernels, "_EVAL_BLOCK", block)
                    got = marty_sup(family, region).members
                    assert [(m.sup.hex(), m.argmax) for m in got] == want

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6),
           shapes=st.lists(st.tuples(st.integers(1, 12),
                                     st.sampled_from([-170, 0, 170])),
                           min_size=1, max_size=4),
           nx=SIDES, ny=SIDES, seed=st.integers(0, 2 ** 32 - 1),
           box=st.sampled_from([
               (-1.2, 0.9, -0.7, 1.1),
               # R^t underflows from t = 3 on.
               (-1.2e-150, 0.9e-150, -0.7e-150, 1.1e-150),
               # |f|^2 reaches about 1e72 at degree 12.
               (1e3 - 1.2, 1e3 + 0.9, -0.7, 1.1),
               # R^t passes 2**1000 from t = 11 on and |f|^2 overflows
               # from degree 6 on: the kernel's values there are NaN.
               (1e30 - 1.2e29, 1e30 + 0.9e29, -0.7e29, 1.1e29)]))
    def test_bound_holds_at_every_point(self, n, shapes, nx, ny, seed, box):
        # Every value the kernel computes lies at or below its cell's
        # bound, and where it is NaN the bound is inf.
        rng = np.random.default_rng(seed)
        region = Region(*box, nx, ny)
        curves = [ProjCurve(_random_curve(rng, n, degree, 10.0 ** e),
                            check_reduced=False)
                  for degree, e in shapes]
        comp, dcomp = normality._fs_stack(curves)
        cells = normality._cells(region)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = normality._cell_bounds(comp, dcomp, cells)
        with np.errstate(all="ignore"):
            vals = normality._fs_values(curves, region.grid_points())
        cell_of = np.repeat(np.repeat(
            np.arange(cells.sizes.size).reshape(cells.rows.size, -1),
            cells.rows, axis=0), cells.cols, axis=1).ravel()
        assert cell_of.size == nx * ny
        assert cells.sizes.tolist() == np.bincount(cell_of).tolist()
        bound = bound[:, cell_of]
        assert ((vals <= bound) | np.isnan(vals) & (bound == np.inf)).all()

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("side", [6, 11, 41])
    def test_sup_in_one_point_corner(self, n, side):
        # A side of 1 mod 5 leaves a last corner cell of one point.  The
        # curve [1 : a w_1 (z - c) : ... : a w_n (z - c)] peaks at c, just
        # off that corner, so the sweep keeps only the corner and the
        # kernel sums |f|^2 over n + 1 >= 8 components at one point.  The
        # sups still have the bits of the full grid.
        region = Region(-1, 1, -1, 1, side, side)
        M = side * side
        kernel = normality.fs_derivative_grid
        counts = []

        def counting(comp, dcomp, pts):
            counts.append(pts.shape[0])
            return kernel(comp, dcomp, pts)

        for seed in range(8):
            rng = np.random.default_rng(seed)
            c = 1 + 1j + 1e-3 * complex(*rng.standard_normal(2))
            a = 1e3 * rng.uniform(0.5, 2.0) * (rng.standard_normal(n)
                                                + 1j * rng.standard_normal(n))
            curve = ProjCurve([ONE] + [ComplexPoly([-x * c, x]) for x in a],
                              check_reduced=False)
            want = full_grid_members([curve], region)
            assert want[0][1] == 1 + 1j
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(normality, "fs_derivative_grid", counting)
                # A block just short of the curve's grid, so that the
                # sweep skips cells at every side.
                mp.setattr(_kernels, "_EVAL_BLOCK",
                           min(_kernels._EVAL_BLOCK, 2 * (n + 1) * M - 1))
                counts.clear()
                got = marty_sup([curve], region).members
            assert [(m.sup.hex(), m.argmax) for m in got] == want
            assert counts == [1, 1]

    def test_nan_first_argmax(self, monkeypatch):
        # [1 : (nu z)^12] overflows |f|^2 off the column x = 0, so every
        # other grid value is NaN: the argmax is the first NaN in grid
        # order, as on the full grid, also when the sweep skips cells.
        region = Region(0.0, 3e25, -1.0, 1.0, 41, 41)
        curves = [ProjCurve([ONE, ComplexPoly([0.0] * 12 + [nu ** 12])])
                  for nu in (1.0, 2.0)]
        with np.errstate(all="ignore"):
            want = full_grid_members(curves, region)
        assert [a for _, a in want] == [region.grid_points()[1]] * 2
        for block in (1, _kernels._EVAL_BLOCK):
            monkeypatch.setattr(_kernels, "_EVAL_BLOCK", block)
            got = marty_sup(curves, region).members
            assert [(m.sup.hex(), m.argmax) for m in got] == want

    def test_blowup_scene_skips_most_points(self, monkeypatch):
        # blowup_marty's scene: the sweep hands fs_derivative_grid 15% of
        # the member-points of the full grid; the test allows 35%.
        region, curves = blowup_scene()
        want = full_grid_members(curves, region)
        points = []
        kernel = normality.fs_derivative_grid

        def counting(comp, dcomp, pts):
            points.append(comp.shape[0] * pts.shape[0])
            return kernel(comp, dcomp, pts)

        monkeypatch.setattr(normality, "fs_derivative_grid", counting)
        got = marty_sup(curves, region).members
        assert [(m.sup.hex(), m.argmax) for m in got] == want
        assert sum(points) <= 0.35 * len(curves) * region.grid_points().size

    def test_whole_grid_in_blocks(self, monkeypatch):
        # blowup_linear at n = 4 has rows of length 5, past _CELL_MAX_LEN,
        # so the sweep keeps every cell: it hands fs_derivative_grid each
        # member-point exactly once, in calls of at most _EVAL_BLOCK values
        # (2P values per curve-point), and keeps the full grid's bits.
        region, curves = blowup_scene(n=4, N=20)
        M = region.grid_points().size
        want = full_grid_members(curves, region)
        seen, sizes = collections.Counter(), []
        kernel = normality.fs_derivative_grid

        def counting(comp, dcomp, pts):
            sizes.append(2 * comp.shape[1] * comp.shape[0] * pts.shape[0])
            seen.update((c.tobytes(), z) for c in comp for z in pts.tolist())
            return kernel(comp, dcomp, pts)

        monkeypatch.setattr(normality, "fs_derivative_grid", counting)
        got = marty_sup(curves, region).members
        assert [(m.sup.hex(), m.argmax) for m in got] == want
        assert len(seen) == len(curves) * M == 131220
        assert set(seen.values()) == {1}
        assert max(sizes) <= _kernels._EVAL_BLOCK

    def test_blowup_scene_bounds_without_taylor_shift(self, monkeypatch):
        # The cell bounds take centre-0 majorants and the values at the
        # cell centres, and no Taylor coefficient at a centre.
        region, curves = blowup_scene()
        calls = []
        taylor = _kernels._taylor

        def counting(*args):
            calls.append(args)
            return taylor(*args)

        monkeypatch.setattr(_kernels, "_taylor", counting)
        monkeypatch.setattr(normality, "_taylor", counting)
        marty_sup(curves, region)
        assert calls == []


class TestZalcman:
    def test_linear_blowup_exact(self):
        trace = zalcman(linear_family(8))
        assert trace.rhos == tuple(1.0 / nu for nu in range(1, 9))
        assert trace.centers == tuple([0.0] * 8)
        assert trace.rho_decreasing
        # every rescaled curve is exactly (1, zeta)
        assert trace.convergence_residual == 0.0
        for g in trace.rescaled:
            assert abs(fs_at(g, [0.0])[0] - 1.0) <= 1e-12
        # the limit candidate is [1 : zeta]
        target = ProjCurve([ONE, Z])
        vals = polyval_grid(stack_coeffs(target.components),
                            trace.zeta_points)
        assert pairwise_fs_grid(trace.limit_candidate, vals).max() <= 1e-12

    def test_quadratic_blowup_facts(self):
        curves = [ProjCurve([ONE,
                             ComplexPoly([0.0, 0.0, float(nu) ** 2])])
                  for nu in range(1, 7)]
        trace = zalcman(curves)
        pts = REGION.grid_points()
        step = 2.0 / (REGION.grid_nx - 1)  # the grid step on both axes
        for k, nu in enumerate(range(1, 7)):
            # closed form of the spherical derivative on the grid
            r = np.abs(pts)
            sd = 2.0 * nu ** 2 * r / (1.0 + nu ** 4 * r ** 4)
            assert abs(trace.rhos[k] - 1.0 / sd.max()) <= 1e-12
            # center sits within a grid cell of the true maximizer radius
            r_star = 3.0 ** (-0.25) / nu
            assert abs(abs(trace.centers[k]) - r_star) <= step
        for g in trace.rescaled:
            assert abs(fs_at(g, [0.0])[0] - 1.0) <= 1e-9
        assert trace.rho_decreasing

    def test_bounded_family_refuses(self):
        curves = [ProjCurve([ONE, ComplexPoly([-0.1 * k, 1.0])])
                  for k in range(5)]
        with pytest.raises(NotBlowingUp):
            zalcman(curves)

    def test_overflowed_rescaling_raises(self):
        # Degree 1040: C(1040, 520) is past the float range, so the Taylor
        # shift gives coefficients that are not finite.
        curves = [ProjCurve([ONE, ComplexPoly([0.0] * 1040 + [nu ** 1040])])
                  for nu in (0.9, 1.0, 1.1)]
        members = tuple(normality.MemberMarty(sup=s, argmax=0.5 + 0.25j)
                        for s in (1.0, 2.0, 4.0))
        stats = normality.MartyStats(members=members,
                                     sups=tuple(m.sup for m in members),
                                     verdict="blow-up")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflow, match="member 0"):
                zalcman_search(curves, stats)

    def test_stats_must_match_members(self):
        curves = linear_family(4)
        with pytest.raises(WrongCount):
            zalcman_search(curves[:3], marty_sup(curves, REGION))

    def test_json_shape(self):
        trace = zalcman(linear_family(4))
        data = trace.to_json()
        assert data["rho_decreasing"] is True
        assert data["limit_candidate"] == data["rescaled"][-1]
        assert len(data["unit_derivative_at_zero"]) == 4

    def test_unit_derivatives_match_pointwise(self, monkeypatch):
        # One stacked kernel call at zeta = 0 gives every rescaled
        # member's unit derivative, with the bits of the member swept alone.
        curves = [ProjCurve([ONE, ComplexPoly([0.3, -1.0, 0.5 * nu])])
                  for nu in range(1, 9)]
        trace = zalcman(curves)
        calls = []
        kernel = normality.fs_derivative_grid

        def counting(comp, dcomp, pts):
            calls.append((comp.shape[0], pts.size))
            return kernel(comp, dcomp, pts)

        monkeypatch.setattr(normality, "fs_derivative_grid", counting)
        got = trace.to_json()["unit_derivative_at_zero"]
        assert calls == [(8, 1)]
        monkeypatch.undo()
        assert [x.hex() for x in got] == \
            [fs_at(g, [0.0])[0].hex() for g in trace.rescaled]


def _blowup_family(rng, n, exponents):
    """Curves into P^n, one per exponent, of component degrees 0 ... 8
    with leading moduli in [0.1, 2] times 10**exponent, and a blow-up
    ``MartyStats`` for them with chosen centres (0.1 <= |c| <= 1.5) and
    sups in [0.5, 4]."""
    curves, members = [], []
    for e in exponents:
        comps = []
        for _ in range(n + 1):
            L = int(rng.integers(1, 10))
            c = rng.standard_normal(L) + 1j * rng.standard_normal(L)
            c[-1] *= rng.uniform(0.1, 2.0) / abs(c[-1])
            comps.append(ComplexPoly(10.0 ** e * c))
        curves.append(ProjCurve(comps, check_reduced=False))
        r, t = rng.uniform(0.1, 1.5), rng.uniform(0.0, 2.0 * np.pi)
        members.append(normality.MemberMarty(
            sup=float(rng.uniform(0.5, 4.0)),
            argmax=complex(r * np.cos(t), r * np.sin(t))))
    stats = normality.MartyStats(members=tuple(members),
                                 sups=tuple(m.sup for m in members),
                                 verdict="blow-up")
    return curves, stats


class TestZalcmanOracle:
    """The rescaled members against the exact Taylor shift in mpmath.

    Component p = sum_t a_t z^t of length L rescales to q with exact
    coefficients q_j = rho^j sum_t C(t, j) a_t c^(t-j); each computed one
    lies within 2 L u of the majorant rho^j sum_t C(t, j) |a_t| |c|^(t-j),
    and g(zeta) = f(c + rho zeta) within 4 L u of
    sum_t |a_t| (|c| + rho |zeta|)^t (the shift, then Horner's rounding).
    """

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), N=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_exact_shift(self, n, N, seed):
        rng = np.random.default_rng(seed)
        curves, stats = _blowup_family(rng, n, [0] * N)
        trace = zalcman_search(curves, stats)
        assert trace.centers == tuple(m.argmax for m in stats.members)
        assert trace.rhos == tuple(1.0 / m.sup for m in stats.members)
        zeta = trace.zeta_points[::97]
        with mpmath.workdps(40):
            for f, g, c, rho in zip(curves, trace.rescaled, trace.centers,
                                    trace.rhos):
                c, rho = mpmath.mpc(c), mpmath.mpf(rho)
                for p, q in zip(f.components, g.components):
                    a = [mpmath.mpc(x) for x in p.coeffs.tolist()]
                    L = len(a)
                    assert q.coeffs.size == L
                    for j, got in enumerate(q.coeffs.tolist()):
                        terms = [mpmath.binomial(t, j) * rho ** j
                                 * c ** (t - j) * a[t] for t in range(j, L)]
                        exact = sum(terms)
                        major = sum(abs(x) for x in terms)
                        assert abs(got - exact) <= 2 * L * U * major
                    vals = polyval_grid(q.coeffs[None], zeta)[0]
                    for z, got in zip(zeta.tolist(), vals.tolist()):
                        w = c + rho * z
                        exact = sum(x * w ** t for t, x in enumerate(a))
                        major = sum(abs(x) * (abs(c) + rho * abs(z)) ** t
                                    for t, x in enumerate(a))
                        assert abs(got - exact) <= 4 * L * U * major


class TestStackedZalcman:
    """The rescaled members, residuals and limit samples have the same bits
    at every block size, and each residual is the sup of one pair's
    distances computed alone."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 6),
           exponents=st.lists(st.sampled_from([-170, 0, 170]),
                              min_size=1, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_block_independent(self, n, exponents, seed):
        rng = np.random.default_rng(seed)
        curves, stats = _blowup_family(rng, n, exponents)
        M = normality._zeta_disc(normality.ZETA_RADIUS,
                                 normality.ZETA_PER_AXIS).size
        runs = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.MonkeyPatch.context() as mp:
                # One member per block; two; the default; all.
                for block in ((n + 1) * M, 2 * (n + 1) * M,
                              _kernels._EVAL_BLOCK, 1 << 30):
                    mp.setattr(_kernels, "_EVAL_BLOCK", block)
                    t = zalcman_search(curves, stats)
                    runs.append((
                        [p.coeffs.tobytes() for g in t.rescaled
                         for p in g.components],
                        [r.hex() for r in t.residuals],
                        t.limit_distances.tobytes(),
                        t.limit_candidate.tobytes()))
        assert all(run == runs[0] for run in runs)
        samples = [polyval_grid(stack_coeffs(g.components), t.zeta_points)
                   for g in t.rescaled]
        pairs = [pairwise_fs_grid(a, b)
                 for a, b in zip(samples, samples[1:])]
        assert [r.hex() for r in t.residuals] == \
            [float(d.max()).hex() for d in pairs]
        assert t.limit_candidate.tobytes() == samples[-1].tobytes()
        assert t.limit_distances.tobytes() == (
            pairs[-1] if pairs else np.zeros(M)).tobytes()
        assert t.convergence_residual == (t.residuals[-1] if pairs else 0.0)

    def test_mixed_n_raises(self):
        # One family maps into one P^n: members of n = 1 and n = 2 raise
        # DimensionMismatch, in either order, before anything is swept.
        rng = np.random.default_rng(7)
        curves, stats = _blowup_family(rng, 1, [0, 0])
        [g], _ = _blowup_family(rng, 2, [0])
        for family in ([curves[0], g], [g, curves[0]]):
            with pytest.raises(DimensionMismatch, match="curve 1 has n="):
                zalcman_search(family, stats)
            with pytest.raises(DimensionMismatch, match="curve 1 has n="):
                marty_sup(family, REGION)
        # Across families too: every curve of one marty_sups call is swept
        # in one stack.
        with pytest.raises(DimensionMismatch):
            marty_sups([curves, [g]], REGION)


def omitted(curve, hypers):
    """Indices of the hyperplanes the curve omits on all of C: a pairing
    that is a nonzero constant has no zeros anywhere."""
    return [j for j, row in enumerate(pair_rows([curve], [hypers])[0])
            if ComplexPoly(row).degree == 0]


class TestGreenOmission:
    """A nonconstant curve into P^n cannot omit 2n+1 hyperplanes in general
    position (Fujimoto-Green); polynomial curves omit at most 2n."""

    def unity_hypers(self, n):
        q = 2 * n + 1
        out = []
        for j in range(q):
            b = np.exp(2j * np.pi * j / q)
            out.append(fixed_hyper(*[b ** l for l in range(n + 1)]))
        return out

    def test_nonconstant_curve_omits_nothing(self):
        f = ProjCurve([ONE, Z])
        hypers = self.unity_hypers(1)
        assert omitted(f, hypers) == []
        assert all(roots_many([ComplexPoly(row).coeffs
                               for row in pair_rows([f], [hypers])[0]]))

    def test_constant_curve_omits_all(self):
        f = ProjCurve([ONE, ComplexPoly([0.3 + 0.1j])])
        assert len(omitted(f, self.unity_hypers(1))) == 3

    def test_mixed_omission(self):
        # (1, z): pairing with (1, 0) is the constant 1, with (0, 1) it is z
        f = ProjCurve([ONE, Z])
        hypers = [fixed_hyper(1.0, 0.0), fixed_hyper(0.0, 1.0),
                  fixed_hyper(1.0, 1.0)]
        assert omitted(f, hypers) == [0]

    def test_wrong_count(self):
        f = ProjCurve([ONE, Z])
        with pytest.raises(WrongCount):
            FamilyMember(f, self.unity_hypers(1)[:2], "m")

    def test_n2_sweep(self):
        rng = np.random.default_rng(31)
        hypers = self.unity_hypers(2)
        for _ in range(20):
            coeffs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            f = ProjCurve([ComplexPoly(c) for c in coeffs],
                          check_reduced=False)
            if not f.is_constant:
                assert len(omitted(f, hypers)) <= 4
