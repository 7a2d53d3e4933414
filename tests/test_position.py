import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcurve.errors import WrongCount
from projcurve.polynomial import ComplexPoly
from projcurve.position import (Region, gen_pos_det, gen_pos_product,
                                gen_pos_product_grid, is_general_position,
                                normalize_hyperplanes, refinement_check,
                                uniform_delta)
from projcurve.projective import MovingHyperplane

ONE = ComplexPoly.one()
Z = ComplexPoly([0, 1])


def fixed(*values):
    return MovingHyperplane([ComplexPoly([v]) for v in values])


def coordinate_hyperplanes(n):
    out = []
    for j in range(n + 1):
        vals = [0.0] * (n + 1)
        vals[j] = 1.0
        out.append(fixed(*vals))
    return out


class TestRegion:
    def test_grid_shape(self):
        r = Region(-1, 1, -2, 2, 3, 5)
        pts = r.grid_points()
        assert pts.shape == (15,)
        assert pts[0] == -1 - 2j
        assert pts[-1] == 1 + 2j

    def test_refine_is_supergrid(self):
        r = Region(-1, 1, -1, 1, 11, 7)
        fine = r.refine()
        assert (fine.grid_nx, fine.grid_ny) == (21, 13)
        coarse_pts = set(r.grid_points().tolist())
        fine_pts = set(fine.grid_points().tolist())
        assert coarse_pts <= fine_pts

    def test_validation(self):
        with pytest.raises(ValueError):
            Region(1, -1, 0, 1, 5, 5)
        with pytest.raises(ValueError):
            Region(-1, 1, -1, 1, 1, 5)

    def test_contains(self):
        r = Region(-1, 1, -1, 1, 5, 5)
        assert r.contains(0.5 + 0.5j)
        assert r.contains(1.0 + 1j)  # boundary, with slack
        assert not r.contains(2.0)

    def test_json_round_trip(self):
        r = Region(-1.5, 2.0, -1.0, 1.0, 9, 17)
        assert Region.from_json(r.to_json()) == r


class TestGenPosDet:
    def test_identity_exact(self):
        for n in (1, 2, 3):
            d = gen_pos_det(coordinate_hyperplanes(n), 0.0)
            assert d == 1.0

    def test_wrong_count(self):
        with pytest.raises(WrongCount):
            gen_pos_det(coordinate_hyperplanes(1) + [fixed(1.0, 1.0)], 0.0)

    def test_moving_example(self):
        # rows (1, z) and (0, 1): determinant is the normalization factor
        region = Region(-1, 1, -1, 1, 5, 5)
        h1 = MovingHyperplane([ONE, Z])
        h2 = fixed(0.0, 1.0)
        pts = region.grid_points()
        sup = max(1.0, float(np.abs(pts).max()))
        got = gen_pos_det([h1, h2], 0.7 + 0.2j, region=region)
        assert abs(got - 1.0 / sup) <= 1e-12

    def test_moving_needs_region(self):
        from projcurve.errors import NotFixed
        h1 = MovingHyperplane([ONE, Z])
        h2 = fixed(0.0, 1.0)
        with pytest.raises(NotFixed):
            gen_pos_det([h1, h2], 0.0)

    def test_dependent_rows_zero(self):
        h = fixed(1.0, 2.0)
        g = fixed(2.0, 4.0)
        # scalar multiples normalize to the same row
        assert gen_pos_det([h, g], 0.0) <= 1e-15


class TestGenPosProduct:
    def test_three_coordinate_like(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0), fixed(1.0, 1.0)]
        # subsets: dets 1, 1, -1; all coefficients already unit-normalized
        assert abs(gen_pos_product(hypers, 0.0) - 1.0) <= 1e-12

    def test_vanishes_at_collision(self):
        # (z - t, 1) collides with (0, 1) as z -> t
        t = 0.25
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0),
                  MovingHyperplane([ComplexPoly([-t, 1.0]), ONE])]
        region = Region(-1, 1, -1, 1, 5, 5)
        vals = [abs(gen_pos_product(hypers, z, region=region))
                for z in (t, t + 0.5)]
        assert vals[0] <= 1e-12
        assert vals[1] > 1e-4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        hypers = [fixed(*(rng.standard_normal(3)
                          + 1j * rng.standard_normal(3)))
                  for _ in range(5)]
        base = gen_pos_product(hypers, 0.3)
        for perm in itertools.permutations(range(5)):
            v = gen_pos_product([hypers[i] for i in perm], 0.3)
            assert abs(v - base) <= 1e-12 * max(1.0, base)


class TestUniformDelta:
    def test_constant_family(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0), fixed(1.0, 1.0)]
        region = Region(-1, 1, -1, 1, 9, 9)
        ud = uniform_delta(hypers, region)
        assert abs(ud.value - 1.0) <= 1e-12
        assert ud.argmin in set(region.grid_points().tolist())

    def test_near_degenerate_grid_min(self):
        # independent oracle: product = |z - t| / sigma^2 on the grid, with
        # sigma the grid sup of max(|z - t|, 1)
        t = 0.01
        region = Region(-1, 1, -1, 1, 41, 41)
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0),
                  MovingHyperplane([ComplexPoly([-t, 1.0]), ONE])]
        pts = region.grid_points()
        sigma = max(np.abs(pts - t).max(), 1.0)
        oracle = np.abs(pts - t) / sigma ** 2
        ud = uniform_delta(hypers, region)
        k = int(np.argmin(oracle))
        assert abs(ud.value - oracle[k]) <= 1e-12
        assert abs(ud.argmin - pts[k]) <= 1e-15

    def test_grid_consistency(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0),
                  MovingHyperplane([ComplexPoly([-0.01, 1.0]), ONE])]
        region = Region(-1, 1, -1, 1, 41, 41)
        chk = refinement_check(hypers, region, delta=0.05)
        assert set(chk) == {"coarse_min", "fine_min", "consistent"}
        # refined grid only adds points, so the min cannot increase
        assert chk["fine_min"] <= chk["coarse_min"] + 1e-15

    def test_matches_grid_kernel(self):
        rng = np.random.default_rng(11)
        hypers = [MovingHyperplane([
            ComplexPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
            ComplexPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
        ]) for _ in range(3)]
        region = Region(-1, 1, -1, 1, 7, 7)
        normed = normalize_hyperplanes(hypers, region)
        vals = gen_pos_product_grid(normed, region)
        ud = uniform_delta(hypers, region)
        assert abs(ud.value - float(vals.min())) <= 1e-12


class TestIsGeneralPosition:
    def test_coordinate_plus_diagonal(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0), fixed(1.0, 1.0)]
        assert is_general_position(hypers)

    def test_duplicate_fails(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0), fixed(2.0, 0.0)]
        assert not is_general_position(hypers)

    def test_rank_oracle_n2(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rows = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            hypers = [fixed(*row) for row in rows]
            expect = all(
                np.linalg.matrix_rank(rows[list(idx)]) == 3
                for idx in itertools.combinations(range(5), 3))
            assert is_general_position(hypers) == expect

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        hypers = [fixed(*row) for row in rows]
        scales = rng.uniform(0.1, 10.0, 3) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 3))
        scaled = [fixed(*(s * row)) for s, row in zip(scales, rows)]
        assert is_general_position(hypers) == is_general_position(scaled)


def per_point_product(hypers, pts):
    """Product of |det| over (n+1)-subsets, one np.linalg.det per point."""
    rows = np.stack([np.stack([p(pts) for p in h.coeffs]) for h in hypers])
    subsets = list(itertools.combinations(range(len(hypers)),
                                          hypers[0].n + 1))
    out = np.ones(pts.size)
    for m in range(pts.size):
        for idx in subsets:
            out[m] *= abs(np.linalg.det(rows[list(idx), :, m]))
    return out


class TestDeterminantPolynomials:
    @given(st.integers(1, 6), st.integers(0, 2),
           st.integers(0, 2 ** 31 - 1),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.1, 3.0), st.floats(0.1, 3.0),
           st.integers(2, 6), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_point_det(self, n, extra, seed, cx, cy, w, h,
                                   nx, ny):
        rng = np.random.default_rng(seed)
        hypers = []
        for _ in range(n + 1 + extra):
            degree = int(rng.integers(0, 4))
            hypers.append(MovingHyperplane([
                ComplexPoly(rng.standard_normal(degree + 1)
                            + 1j * rng.standard_normal(degree + 1))
                for _ in range(n + 1)]))
        region = Region(cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2,
                        nx, ny)
        normed = normalize_hyperplanes(hypers, region)
        got = gen_pos_product_grid(normed, region)
        ref = per_point_product(normed, region.grid_points())
        assert np.abs(got - ref).max() <= 1e-9 * max(1.0, ref.max())


def vandermonde(n):
    nodes = np.exp(2j * np.pi * np.arange(2 * n + 1) / (2 * n + 1))
    return [fixed(*(b ** np.arange(n + 1))) for b in nodes]


def random_fixed(n, seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(n + 1, 2 * n + 2))
    rows = rng.standard_normal((q, n + 1)) + 1j * rng.standard_normal(
        (q, n + 1))
    return [fixed(*row) for row in rows]


# At n = 5 the Vandermonde product overflows to inf, on both sides.
FIXED_FAMILIES = ([vandermonde(n) for n in range(2, 6)]
                  + [random_fixed(n, seed) for n in range(1, 6)
                     for seed in range(3)])


class TestFixedFamiliesExact:
    @pytest.mark.parametrize("hypers", FIXED_FAMILIES)
    def test_one_determinant_per_subset(self, hypers):
        region = Region(-0.5, 1.5, -1.0, 0.25, 9, 6)
        A = np.stack([h.at(0.0)
                      for h in normalize_hyperplanes(hypers, region)])
        dets = [np.linalg.det(A[list(idx)]) for idx in
                itertools.combinations(range(len(hypers)), hypers[0].n + 1)]
        # np.abs, as in the sweeps: the scalar abs() of a complex can
        # differ from the array kernel in the last bit.
        prod = 1.0
        for mag in np.abs(dets):
            prod *= mag
        ud = uniform_delta(hypers, region)
        assert ud.value == prod
        assert ud.argmin == region.grid_points()[0]
        chk = refinement_check(hypers, region, delta=0.5 * prod)
        assert chk["fine_min"] == chk["coarse_min"] == prod
        assert chk["consistent"]

    @pytest.mark.parametrize("values", [(1.0, 0.0), (0.0, 1.0, 0.5j),
                                        (3.0, -4.0j, 0.25, 1e-7),
                                        (0.6 + 0.8j, 0.3)])
    def test_normalized_matches_grid_sup(self, values):
        h = fixed(*values)
        region = Region(-1.0, 2.0, -0.5, 0.5, 7, 4)
        pts = region.grid_points()
        sup = max(float(np.max(np.abs(p(pts)))) for p in h.coeffs)
        factor = 1.0 if abs(sup - 1.0) <= 1e-12 else 1.0 / sup
        got = h.normalized(region)
        assert got.normalization == {"factor": factor, "sup_before": sup}
        for p, q in zip(got.coeffs, h.coeffs):
            expect = q.coeffs if factor == 1.0 else (factor * q).coeffs
            assert p.coeffs.tobytes() == expect.tobytes()
