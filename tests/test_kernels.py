import itertools

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from projcurve import _kernels
from projcurve.polynomial import ComplexPoly, stack_coeffs
from projcurve.position import Region, position_sweep
from projcurve.projective import MovingHyperplane

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
