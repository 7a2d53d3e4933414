import itertools

import numpy as np

from projcurve import _kernels
from projcurve.polynomial import ComplexPoly
from projcurve.position import Region, SubsetDeterminants
from projcurve.projective import MovingHyperplane, fs_distance


def random_coeffs(rng, rows, width):
    return (rng.standard_normal((rows, width))
            + 1j * rng.standard_normal((rows, width)))


class TestPolyvalGrid:
    def test_matches_poly_eval(self):
        rng = np.random.default_rng(0)
        coeffs = random_coeffs(rng, 3, 5)
        pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        vals = _kernels.polyval_grid_numpy(coeffs, pts)
        for i in range(3):
            p = ComplexPoly(coeffs[i])
            assert np.abs(vals[i] - p(pts)).max() <= 1e-12 * \
                max(1.0, np.abs(vals[i]).max())

    def test_zero_padded_rows(self):
        coeffs = np.array([[1.0, 0.0, 0.0], [2.0, 3.0, 0.0]], dtype=complex)
        pts = np.array([0.5 + 0.5j, -1.0 + 0j])
        vals = _kernels.polyval_grid_numpy(coeffs, pts)
        assert np.allclose(vals[0], [1.0, 1.0])
        assert np.allclose(vals[1], [3.5 + 1.5j, -1.0])


class TestFsDerivativeGrid:
    def test_linear_formula(self):
        comp = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
        dcomp = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)
        pts = np.array([0.0 + 0j, 1.0 + 0j, 1j])
        vals = _kernels.fs_derivative_grid_numpy(comp, dcomp, pts)
        expect = 2.0 / (1.0 + 4.0 * np.abs(pts) ** 2)
        assert np.abs(vals - expect).max() <= 1e-14


class TestDetprodGrid:
    def test_matches_numpy_det(self):
        # The product sweep against per-point np.linalg.det, on the grid.
        rng = np.random.default_rng(1)
        q, P, L = 5, 3, 4
        coeffs = random_coeffs(rng, q * P, L).reshape(q, P, L)
        hypers = [MovingHyperplane([ComplexPoly(c) for c in rows])
                  for rows in coeffs]
        region = Region(-0.4, 1.1, -0.7, 0.2, 4, 3)
        got = SubsetDeterminants.of(hypers, region).product(
            region.grid_points())
        vals = _kernels.polyval_grid_numpy(coeffs.reshape(q * P, L),
                                           region.grid_points())
        vals = vals.reshape(q, P, -1)
        subsets = list(itertools.combinations(range(q), P))
        for m in range(got.size):
            prod = 1.0
            for idx in subsets:
                prod *= abs(np.linalg.det(vals[list(idx), :, m]))
            assert abs(got[m] - prod) <= 1e-10 * max(1.0, prod)


class TestPairwiseFsGrid:
    def test_matches_fs_distance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
        b = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
        got = _kernels.pairwise_fs_grid_numpy(a, b)
        for k in range(20):
            assert abs(got[k] - fs_distance(a[:, k], b[:, k])) <= 1e-12
