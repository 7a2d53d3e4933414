import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcurve import _kernels, normality
from projcurve.polynomial import ComplexPoly, stack_coeffs
from projcurve.position import Region, position_sweep
from projcurve.projective import MovingHyperplane, ProjCurve

# Unit roundoff of complex128 arithmetic.
U = 2.0 ** -53


def random_coeffs(rng, rows, width):
    return (rng.standard_normal((rows, width))
            + 1j * rng.standard_normal((rows, width)))


class TestPolyvalGrid:
    def test_matches_poly_eval(self):
        # Against mpmath, within Horner's rounding bound 2 L u B(z), B(z) =
        # sum_i |c_i| |z|^i; and row k at its own points is row k of the
        # shared-points form.
        rng = np.random.default_rng(0)
        coeffs = random_coeffs(rng, 3, 5)
        pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        vals = _kernels.polyval_grid_numpy(coeffs, pts)
        with mpmath.workdps(40):
            for row, got in zip(coeffs, vals):
                cs = [mpmath.mpc(c) for c in reversed(row.tolist())]
                mods = [abs(c) for c in cs]
                for z, g in zip(pts.tolist(), got.tolist()):
                    want = mpmath.polyval(cs, mpmath.mpc(z))
                    bound = mpmath.polyval(mods, abs(z))
                    assert abs(g - want) <= 2 * coeffs.shape[1] * U * bound
        own = _kernels.polyval_grid_numpy(
            coeffs, np.stack([pts[::-1], pts, pts[::2].repeat(2)]))
        assert own[0].tobytes() == vals[0, ::-1].tobytes()
        assert own[1].tobytes() == vals[1].tobytes()
        assert own[2].tobytes() == vals[2, ::2].repeat(2).tobytes()

    def test_zero_padded_rows(self):
        coeffs = np.array([[1.0, 0.0, 0.0], [2.0, 3.0, 0.0]], dtype=complex)
        pts = np.array([0.5 + 0.5j, -1.0 + 0j])
        vals = _kernels.polyval_grid_numpy(coeffs, pts)
        assert np.allclose(vals[0], [1.0, 1.0])
        assert np.allclose(vals[1], [3.5 + 1.5j, -1.0])


def iv_taylor(row, c):
    """The exact Taylor coefficients of an ascending row at c, as mpmath
    interval enclosures: q_j = sum_t C(t + j, j) a_(t+j) c^t."""
    iv = mpmath.iv
    a = [iv.mpc(x.real, x.imag) for x in row.tolist()]
    L = len(a)
    powers = [iv.mpc(1)]
    for _ in range(L - 1):
        powers.append(powers[-1] * iv.mpc(c.real, c.imag))
    return [sum((math.comb(t + j, j) * a[t + j] * powers[t]
                 for t in range(L - j)), iv.mpc(0)) for j in range(L)]


def iv_far(x, q):
    """An upper bound on the largest distance from the float x to a point
    of the complex interval q."""
    re = max(abs(mpmath.mpf(x.real) - q.real.a),
             abs(mpmath.mpf(x.real) - q.real.b))
    im = max(abs(mpmath.mpf(x.imag) - q.imag.a),
             abs(mpmath.mpf(x.imag) - q.imag.b))
    return mpmath.sqrt(re ** 2 + im ** 2)


class TestEnclose:
    """``majorants`` and ``enclose`` against mpmath interval enclosures of
    the exact values on their float inputs, in both forms: discs shared by
    the rows, and each row on its own discs."""

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 6), degree=st.integers(0, 40),
           exponent=st.integers(-3, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_interval_enclosure(self, n, degree, exponent, seed):
        rng = np.random.default_rng(seed)
        K, L = n + 1, degree + 1
        rows = 10.0 ** exponent * random_coeffs(rng, K, L)
        centres = rng.uniform(-1.5, 1.5, 3) + 1j * rng.uniform(-1.5, 1.5, 3)
        radii = np.array([0.0, rng.uniform(0.0, 0.1), rng.uniform(0.1, 1.0)])
        # Row k on the discs rolled by k.
        roll = (np.arange(3) + np.arange(K)[:, None]) % 3
        balls = [_kernels.enclose(rows, centres, radii)
                 + (np.broadcast_to(np.arange(3), roll.shape),),
                 _kernels.enclose(rows, centres[roll], radii[roll]) + (roll,)]
        far = _kernels.reach(centres, radii)
        majors = [_kernels.majorants(rows, far),
                  np.take_along_axis(_kernels.majorants(rows, far[roll]),
                                     np.argsort(roll, axis=1), axis=1)]
        assert balls[0][0].tobytes() == _kernels.polyval_grid(
            rows, centres).tobytes()
        # Points of each disc, where the value polyval_grid computes must
        # lie in the ball too.
        angle = np.exp(2j * np.pi * rng.uniform(0, 1, 2))
        with mpmath.workprec(120):
            mpmath.iv.prec = 120
            try:
                for k, d in itertools.product(range(K), range(3)):
                    reach = abs(mpmath.mpc(complex(centres[d]))) + radii[d]
                    assert reach <= far[d]
                    want = sum(abs(mpmath.mpc(x)) * reach ** m for m, x in
                               enumerate(rows[k].tolist()))
                    assert all(want <= major[k, d] for major in majors)
                for (mid, rad, at), k, e in itertools.product(
                        balls, range(K), range(3)):
                    d = at[k, e]
                    exact = iv_taylor(rows[k], centres[d])
                    # sup |p(z) - mid| on the disc is at most |q_0 - mid|
                    # plus the Taylor tail.
                    r = mpmath.iv.mpf(float(radii[d]))
                    tail = sum((abs(exact[j]) * r ** j for j in range(1, L)),
                               mpmath.iv.mpf(0))
                    assert iv_far(mid[k, e], exact[0]) + tail.b <= rad[k, e]
                    zs = centres[d] + radii[d] * np.append(angle, 0.5)
                    got = _kernels.polyval_grid(rows[k:k + 1], zs)[0]
                    for g in got.tolist():
                        assert (abs(mpmath.mpc(g) - mpmath.mpc(mid[k, e]))
                                <= rad[k, e])
            finally:
                mpmath.iv.prec = 53


    def test_rows_of_length_0_and_1(self):
        # A constant rounds nothing: its ball is the constant with rad 0,
        # and its Horner bound is 0 even where its majorant is inf.
        centres = np.array([0.3 - 0.2j, 2.0 + 0j])
        radii = np.array([0.5, 0.0])
        rows = np.array([[1.5 - 2.0j], [0.0], [1.5e308 + 1.5e308j]])
        mid, rad = _kernels.enclose(rows, centres, radii)
        assert (mid == rows).all() and (rad == 0.0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            major = _kernels.majorants(rows, radii)
            assert major[0].min() >= 2.5 and np.isinf(major[2]).all()
            assert (_kernels.horner_error(major, 1, radii) == 0.0).all()
            assert (_kernels.majorants(rows[:, :0], radii) == 0.0).all()

    def test_past_the_float_range(self):
        # Powers past the float range make the majorants inf, or NaN where
        # they meet a zero coefficient, so no ball there excludes 0; and
        # nothing warns.
        rows = np.zeros((2, 41), dtype=np.complex128)
        rows[0, 0], rows[1, 40] = 1.0, 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            major = _kernels.majorants(rows, np.array([1e20]))
            mid, rad = _kernels.enclose(rows, np.array([[1e20], [1e20]]),
                                        1.0)
        assert not (major[:, 0] < np.inf).any()
        assert not (rad < np.abs(mid)).any()


class TestFsDerivativeGrid:
    def test_linear_formula(self):
        # [1 : 2z], alone and stacked with [1 : z] on the batch axis.
        comp = np.array([[[1.0, 0.0], [0.0, 2.0]]], dtype=complex)
        dcomp = np.array([[[0.0], [2.0]]], dtype=complex)
        pts = np.array([0.0 + 0j, 1.0 + 0j, 1j])
        vals = _kernels.fs_derivative_grid_numpy(comp, dcomp, pts)
        assert vals.shape == (1, 3)
        expect = 2.0 / (1.0 + 4.0 * np.abs(pts) ** 2)
        assert np.abs(vals[0] - expect).max() <= 1e-14
        both = _kernels.fs_derivative_grid_numpy(
            np.concatenate([comp, comp / [[[1.0], [2.0]]]]),
            np.concatenate([dcomp, dcomp / 2.0]), pts)
        assert both.shape == (2, 3)
        assert both[0].tobytes() == vals[0].tobytes()
        assert np.abs(both[1] - 1.0 / (1.0 + np.abs(pts) ** 2)).max() <= 1e-14


class TestDetprodGrid:
    def test_matches_numpy_det(self):
        # The product sweep against per-point np.linalg.det, on the grid.
        rng = np.random.default_rng(1)
        q, P, L = 5, 3, 4
        coeffs = random_coeffs(rng, q * P, L).reshape(q, P, L)
        region = Region(-0.4, 1.1, -0.7, 0.2, 4, 3)
        hypers = [MovingHyperplane([ComplexPoly(c) for c in rows]
                                   ).normalized(region) for rows in coeffs]
        got = position_sweep(hypers, region)[2]
        vals = _kernels.polyval_grid_numpy(
            stack_coeffs([p for h in hypers for p in h.coeffs]),
            region.grid_points())
        vals = vals.reshape(q, P, -1)
        subsets = list(itertools.combinations(range(q), P))
        for m in range(got.size):
            prod = 1.0
            for idx in subsets:
                prod *= abs(np.linalg.det(vals[list(idx), :, m]))
            assert abs(got[m] - prod) <= 1e-10 * max(1.0, prod)


class TestPairwiseFsGrid:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 6), tilt=st.sampled_from([0.0, 1e-9, 1e-5, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_mpmath(self, n, tilt, seed):
        """sqrt(1 - |<a,b>|^2 / (|a|^2 |b|^2)) in mpmath, within 8 P u.
        b = c a + tilt e brings the points to within about ``tilt``, where
        the naive formula keeps only half the digits."""
        rng = np.random.default_rng(seed)
        a = random_coeffs(rng, n + 1, 20)
        b = (rng.standard_normal() * a
             + tilt * random_coeffs(rng, n + 1, 20))
        got = _kernels.pairwise_fs_grid_numpy(a, b)
        with mpmath.workdps(40):
            for k, g in enumerate(got.tolist()):
                x = [mpmath.mpc(c) for c in a[:, k].tolist()]
                y = [mpmath.mpc(c) for c in b[:, k].tolist()]
                xx = sum(abs(c) ** 2 for c in x)
                yy = sum(abs(c) ** 2 for c in y)
                xy = abs(sum(c * mpmath.conj(d) for c, d in zip(x, y))) ** 2
                want = mpmath.sqrt(max(0, 1 - xy / (xx * yy)))
                assert abs(g - want) <= 8 * (n + 1) * U

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6),
           exponents=st.lists(st.tuples(st.sampled_from([-600, 0, 600]),
                                        st.sampled_from([-600, 0, 600])),
                              min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_is_items_alone(self, n, exponents, seed):
        """A (B, P, M) stack gives each item the bits of its own 2-D call,
        each item scaled by its own power of two: items of moduli 2**-600
        and 2**600 ride in one stack without underflow or overflow."""
        rng = np.random.default_rng(seed)
        a = np.stack([2.0 ** ea * random_coeffs(rng, n + 1, 9)
                      for ea, _ in exponents])
        b = np.stack([2.0 ** eb * random_coeffs(rng, n + 1, 9)
                      for _, eb in exponents])
        got = _kernels.pairwise_fs_grid_numpy(a, b)
        assert got.shape == (len(exponents), 9)
        assert np.all(np.isfinite(got))
        for row, x, y in zip(got, a, b):
            assert row.tobytes() == \
                _kernels.pairwise_fs_grid_numpy(x, y).tobytes()


# The kernels as they were before a sweep reused its block arrays: Horner
# from a zero start, derivative rows padded by a zero column and evaluated
# with the curve rows, |x|^2 as np.abs(x) ** 2, and the power-of-two
# scaling through np.where.  The kernels must give their bytes.

def ref_polyval(coeffs, pts):
    K, L = coeffs.shape
    out = np.zeros((K, pts.shape[-1]), dtype=np.complex128)
    for l in range(L - 1, -1, -1):
        out *= pts
        out += coeffs[:, l, None]
    return out


def ref_cross_terms(a, b):
    P = a.shape[-2]
    num = np.zeros(a[..., 0, :].shape, dtype=np.float64)
    for i in range(P):
        for j in range(i + 1, P):
            cross = a[..., i, :] * b[..., j, :] - a[..., j, :] * b[..., i, :]
            num += np.abs(cross) ** 2
    return num


def ref_fs_derivative(comp, dcomp, pts):
    B, P, L = comp.shape
    rows = np.zeros((2, B, P, L), dtype=np.complex128)
    rows[0] = comp
    rows[1, :, :, :dcomp.shape[2]] = dcomp
    v, dv = ref_polyval(rows.reshape(2 * B * P, L), pts).reshape(2, B, P, -1)
    s2 = np.sum(np.abs(v) ** 2, axis=1)
    return np.sqrt(ref_cross_terms(v, dv)) / s2


def ref_pairwise(vals_a, vals_b):
    scaled = []
    for vals in (vals_a, vals_b):
        finite, factor = _kernels.pow2_factors(np.abs(vals).max(
            axis=(-2, -1), keepdims=True, initial=0.0))
        scaled.append(np.where(finite, vals * factor, vals))
    a, b = scaled
    na = np.sqrt(np.sum(np.abs(a) ** 2, axis=-2))
    nb = np.sqrt(np.sum(np.abs(b) ** 2, axis=-2))
    return np.sqrt(ref_cross_terms(a, b)) / (na * nb)


SCALES = st.sampled_from([-170, 0, 170])


def ragged(rng, shape, exponents):
    """Complex rows of the given shape, item k (axis 0) of modulus about
    10**exponents[k], each row zero-padded from a random length on."""
    rows = random_coeffs(rng, int(np.prod(shape[:-1])), shape[-1])
    rows[np.arange(shape[-1]) >= rng.integers(0, shape[-1] + 1,
                                              (rows.shape[0], 1))] = 0.0
    scale = 10.0 ** np.asarray(exponents, dtype=float)
    return rows.reshape(shape) * scale.reshape((-1,) + (1,) * (len(shape) - 1))


class TestReferenceBytes:
    """The kernels against the reference forms above, bit for bit, for
    n <= 6, degree <= 12, items of moduli 10**-170 ... 10**170 and rows of
    length 0, on the shared-points and own-points forms."""

    @settings(max_examples=80, deadline=None)
    @given(K=st.integers(1, 7), L=st.integers(0, 13),
           M=st.integers(1, 20), own=st.booleans(), e=SCALES,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_polyval_grid(self, K, L, M, own, e, seed):
        rng = np.random.default_rng(seed)
        coeffs = ragged(rng, (K, L), [e] * K)
        pts = random_coeffs(rng, K if own else 1, M)
        pts = pts if own else pts[0]
        out = np.full((K, M), np.nan, dtype=np.complex128)
        with np.errstate(all="ignore"):
            want = ref_polyval(coeffs, pts).tobytes()
            assert _kernels.polyval_grid(coeffs, pts).tobytes() == want
            assert _kernels.polyval_grid(coeffs, pts, out=out) is out
        assert out.tobytes() == want

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6), degree=st.integers(0, 12),
           exponents=st.lists(SCALES, min_size=1, max_size=3),
           M=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
    def test_fs_derivative_grid(self, n, degree, exponents, M, seed):
        rng = np.random.default_rng(seed)
        B, P, L = len(exponents), n + 1, degree + 1
        comp = ragged(rng, (B, P, L), exponents)
        dcomp = comp[:, :, 1:] * np.arange(1, L)
        pts = random_coeffs(rng, 1, M)[0]
        with np.errstate(all="ignore"):
            want = ref_fs_derivative(comp, dcomp, pts).tobytes()
            assert _kernels.fs_derivative_grid(comp, dcomp, pts).tobytes() \
                == want

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6),
           exponents=st.lists(st.tuples(SCALES, SCALES), min_size=1,
                              max_size=4),
           M=st.integers(1, 20), zero=st.integers(0, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_pairwise_fs_grid(self, n, exponents, M, zero, seed):
        rng = np.random.default_rng(seed)
        B, P = len(exponents), n + 1
        a = ragged(rng, (B, P, M), [ea for ea, _ in exponents])
        b = ragged(rng, (B, P, M), [eb for _, eb in exponents])
        # Items that are not scaled: one of zeros, one with an infinite
        # coordinate.
        a[zero:zero + 1] = 0.0
        b[zero:zero + 1, 0, 0] = np.inf
        with np.errstate(all="ignore"):
            assert _kernels.pairwise_fs_grid(a, b).tobytes() == \
                ref_pairwise(a, b).tobytes()
            assert _kernels.pairwise_fs_grid(a[0], b[0]).tobytes() == \
                ref_pairwise(a[0], b[0]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6),
           shapes=st.lists(st.tuples(st.integers(1, 12), SCALES),
                           min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_zalcman_residuals(self, n, shapes, seed):
        rng = np.random.default_rng(seed)
        curves, sups, argmax = [], [], []
        for degree, e in shapes:
            comps = ragged(rng, (n + 1, degree + 1), [e] * (n + 1))
            comps[0, degree] = 10.0 ** e  # a member of this degree
            curves.append(ProjCurve([ComplexPoly(c) for c in comps],
                                    check_reduced=False))
            sups.append(float(rng.uniform(0.5, 4.0)))
            argmax.append(rng.uniform(-1.0, 1.0, 2).tolist())
        stats = {"sups": sups, "argmax": argmax, "verdict": "blow-up"}
        M = normality.ZETA_POINTS.size
        with pytest.MonkeyPatch.context() as mp:
            # One member per block, and the default.
            for block in ((n + 1) * M, _kernels._EVAL_BLOCK):
                mp.setattr(_kernels, "_EVAL_BLOCK", block)
                section, rows = normality.zalcman_search(curves, stats)
                # The rescaled curves from the report; [re, im] round-trips
                # exactly.
                samples = [ref_polyval(stack_coeffs(
                    [ComplexPoly([complex(*c) for c in comp])
                     for comp in g["components"]]),
                    normality.ZETA_POINTS) for g in section["rescaled"]]
                pairs = [ref_pairwise(a, b)
                         for a, b in zip(samples, samples[1:])]
                assert [r.hex() for r in section["residuals"]] == \
                    [float(d.max()).hex() for d in pairs]
                assert np.array([d for _, _, d in rows]).tobytes() == (
                    pairs[-1] if pairs else np.zeros(M)).tobytes()
