import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcurve import _kernels, normality, position
from projcurve._kernels import (fs_derivative_grid, pairwise_fs_grid,
                                polyval_grid)
from projcurve.errors import NotBlowingUp, WrongCount
from projcurve.normality import (fs_derivative, fs_derivative_on_grid,
                                 marty_sup, zalcman_search)
from projcurve.polynomial import ComplexPoly, stack_coeffs
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


def assert_fs_derivative_close(curve, got, pts):
    """``got`` against the Fubini-Study derivative of ``curve`` at ``pts``
    in mpmath.

    The tolerance is Horner's rounding bound carried through the
    cross-term form: 16 L P u |f|~ |f'|~ / |f|^2, with L the coefficient
    length, P = n + 1, and |f|~, |f'|~ the Euclidean norms of
    sum_i |c_li| |z|^i over the components and their derivatives.
    """
    comps = curve.components
    ders = [p.derivative() for p in comps]
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
        assert fs_derivative(f, 0.0) == 1.0
        assert abs(fs_derivative(f, 1.0) - 0.5) <= 1e-15
        assert abs(fs_derivative(f, 1j) - 0.5) <= 1e-15

    def test_constant_curve_zero(self):
        f = ProjCurve([ONE, ComplexPoly([2.0 + 1j])])
        assert fs_derivative(f, 0.37) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            coeffs = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            f = ProjCurve([ComplexPoly(c) for c in coeffs],
                          check_reduced=False)
            g = ProjCurve([(2.0 - 3.0j) * p for p in f.components],
                          check_reduced=False)
            z = complex(*rng.uniform(-1, 1, 2))
            a, b = fs_derivative(f, z), fs_derivative(g, z)
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
            assert_fs_derivative_close(f, fs_derivative_on_grid(f, region),
                                       pts)
            assert_fs_derivative_close(
                f, np.array([fs_derivative(f, z) for z in some]), some)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), degree=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_mpmath(self, n, degree, seed):
        rng = np.random.default_rng(seed)
        f = ProjCurve(_random_curve(rng, n, degree, 1.0),
                      check_reduced=False)
        region = Region(-1, 1, -1, 1, 5, 5)
        assert_fs_derivative_close(f, fs_derivative_on_grid(f, region),
                                   region.grid_points())

    def test_quotient_formula_n1(self):
        rng = np.random.default_rng(5)
        f0 = ComplexPoly([1.0, 0.2, 0.8])
        f1 = ComplexPoly([0.1, -1.5, 0.0, 0.7])
        f = ProjCurve([f0, f1])
        d0, d1 = f0.derivative(), f1.derivative()
        for _ in range(50):
            z = complex(*rng.uniform(-1, 1, 2))
            num = abs(f0(z) * d1(z) - f1(z) * d0(z))
            den = abs(f0(z)) ** 2 + abs(f1(z)) ** 2
            assert abs(fs_derivative(f, z) - num / den) <= 1e-12


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

    def test_constant_curves_skip_the_grid(self, monkeypatch):
        curves = [ProjCurve([ComplexPoly([c ** l]) for l in range(n + 1)])
                  for n, c in ((1, 0.3 + 0.1j), (3, -0.2j), (6, 0.45))]
        curves += [ProjCurve([ComplexPoly.zero(), ONE]),
                   ProjCurve([ONE, ComplexPoly([0.0, 2.0])])]
        # The grid path, as taken by curves that are not constant.
        monkeypatch.setattr(ProjCurve, "is_constant",
                            property(lambda self: False))
        grid = marty_sup(curves, REGION)
        monkeypatch.undo()
        swept = []
        blocks = normality._fs_blocks

        def recording(batch, pts):
            swept.extend(batch)
            return blocks(batch, pts)

        monkeypatch.setattr(normality, "_fs_blocks", recording)
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
                assert abs(fs_derivative(f, 0.3) - 1.0 / 1.09) <= 1e-15

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
    ders = [p.derivative() for p in comps]
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
        g = ProjCurve([2.0 ** k * p for p in comps], check_reduced=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (fs_derivative_on_grid(f, self.grid).tobytes()
                    == fs_derivative_on_grid(g, self.grid).tobytes())
            z = complex(*rng.uniform(-1, 1, 2))
            assert fs_derivative(f, z).hex() == fs_derivative(g, z).hex()
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
        assert fs_derivative_on_grid(f, self.grid).tobytes() == \
            raw[0].tobytes()


class TestStackedMarty:
    """A curve's sup, argmax and grid values have the same bits swept
    alone and inside a family that mixes n, degrees, scales, constant
    curves and repeated objects, at every block size."""

    @settings(max_examples=30, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 4),
                                     st.sampled_from([-170, 0, 170])),
                           min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_alone_equals_in_family(self, shapes, seed):
        rng = np.random.default_rng(seed)
        region = Region(-1, 1, -0.5, 0.5, 7, 5)
        pts = region.grid_points()
        # Degree 0 makes a constant curve.
        curves = [ProjCurve(_random_curve(rng, n, degree, 10.0 ** e),
                            check_reduced=False)
                  for n, degree, e in shapes]
        family = curves + curves[:2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = [marty_sup([f], region).members[0] for f in family]
            grids = [fs_derivative_on_grid(f, region).tobytes()
                     for f in family]
            with pytest.MonkeyPatch.context() as mp:
                # One curve per block; two n = 6 curves; the default; all.
                for block in (1, 2 * 14 * pts.size, _kernels._EVAL_BLOCK,
                              1 << 30):
                    mp.setattr(_kernels, "_EVAL_BLOCK", block)
                    got = marty_sup(family, region).members
                    assert [(m.sup.hex(), m.argmax) for m in got] == \
                        [(m.sup.hex(), m.argmax) for m in want]
                    assert [row.tobytes() for row in normality._fs_values(
                        family, pts)] == grids


class TestZalcman:
    def test_linear_blowup_exact(self):
        trace = zalcman(linear_family(8))
        assert trace.rhos == tuple(1.0 / nu for nu in range(1, 9))
        assert trace.centers == tuple([0.0] * 8)
        assert trace.rho_decreasing
        # every rescaled curve is exactly (1, zeta)
        assert trace.convergence_residual == 0.0
        for g in trace.rescaled:
            assert abs(fs_derivative(g, 0.0) - 1.0) <= 1e-12
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
            assert abs(fs_derivative(g, 0.0) - 1.0) <= 1e-9
        assert trace.rho_decreasing

    def test_bounded_family_refuses(self):
        curves = [ProjCurve([ONE, ComplexPoly([-0.1 * k, 1.0])])
                  for k in range(5)]
        with pytest.raises(NotBlowingUp):
            zalcman(curves)

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
        # member's unit derivative, with fs_derivative's bits.
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
            [fs_derivative(g, 0.0).hex() for g in trace.rescaled]


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

    def test_mixed_n_pads_with_zero_components(self):
        # [f0 : f1] and [f0 : f1 : 0] are the same points of P^2: the
        # pair (f, g) has the distances of (f, f), bit for bit.
        rng = np.random.default_rng(7)
        [f], stats = _blowup_family(rng, 1, [0])
        g = ProjCurve([*f.components, ComplexPoly.zero()],
                      check_reduced=False)
        stats = dataclasses.replace(stats, members=stats.members * 2,
                                    sups=stats.sups * 2)
        same = zalcman_search([f, f], stats)
        t = zalcman_search([f, g], stats)
        assert [r.hex() for r in t.residuals] == \
            [r.hex() for r in same.residuals]
        assert t.limit_distances.tobytes() == same.limit_distances.tobytes()
        assert t.limit_candidate.shape == (3, t.zeta_points.size)
        assert not t.limit_candidate[2].any()


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
        assert all(ComplexPoly(row).roots()
                   for row in pair_rows([f], [hypers])[0])

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
