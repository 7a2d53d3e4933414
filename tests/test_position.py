import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projcurve import _kernels, config
from projcurve.errors import WrongCount
from projcurve._kernels import polyval_grid
from projcurve.harness import generate_scene, rebuild_scene, run_pipeline
from projcurve.polynomial import ComplexPoly, stack_coeffs
from projcurve.position import Region, position_sweep, position_sweeps
from projcurve.projective import MovingHyperplane

ONE = ComplexPoly.one()
Z = ComplexPoly([0, 1])
# A fixed family's product is the same at every grid point, so a 2x2 grid
# reads it; test-local positivity threshold for the general-position verdict.
SMALL = Region(-1, 1, -1, 1, 2, 2)
TAU_GP = 1e-10


def fixed(*values):
    return MovingHyperplane([ComplexPoly([v]) for v in values])


def in_general_position(hypers):
    return position_sweep(hypers, SMALL)[0].value > TAU_GP


def normalized(hypers, region):
    return [h.normalized(region) for h in hypers]


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

    def test_validation(self):
        with pytest.raises(ValueError):
            Region(1, -1, 0, 1, 5, 5)
        with pytest.raises(ValueError):
            Region(-1, 1, -1, 1, 1, 5)
        # The grid is built lazily, so these allocate nothing.
        for nx, ny in ((2049, 2049), (2, 2 ** 21 + 1), (10 ** 400, 2)):
            with pytest.raises(ValueError, match="more than 4194304 points"):
                Region(-1, 1, -1, 1, nx, ny)
        Region(-1, 1, -1, 1, 2, config.MAX_GRID_POINTS // 2)

    @pytest.mark.parametrize("bounds", [
        (-1, math.inf, -1, 1), (-math.inf, 1, -1, 1), (-1, 1, math.nan, 1)])
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            Region(*bounds, 3, 3)

    def test_contains(self):
        r = Region(-1, 1, -1, 1, 5, 5)
        assert r.contains(0.5 + 0.5j)
        assert r.contains(1.0 + 1j)  # boundary, with slack
        assert not r.contains(2.0)

    def test_json_round_trip(self):
        r = Region(-1.5, 2.0, -1.0, 1.0, 9, 17)
        assert Region.from_json(r.to_json()) == r

    def test_grid_built_once_and_read_only(self):
        r = Region(-1, 1, -1, 1, 5, 4)
        twin = Region(-1, 1, -1, 1, 5, 4)
        before = hash(r)
        pts = r.grid_points()
        assert r.grid_points() is pts
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 0.0
        # Caching the grid leaves equality and hashing to the fields.
        assert hash(r) == before == hash(twin)
        assert r == twin
        assert twin.grid_points() is not pts
        assert np.array_equal(twin.grid_points(), pts)
        # The benchmark's trace wraps the method on the class.
        assert callable(vars(Region)["grid_points"])


class TestGenPosDet:
    """The determinant D of exactly n+1 hyperplanes, read through
    position_sweep on a small region."""

    def test_identity_exact(self):
        for n in (1, 2, 3):
            d = position_sweep(coordinate_hyperplanes(n), SMALL)[0].value
            assert d == 1.0

    def test_wrong_count(self):
        with pytest.raises(WrongCount):
            position_sweep(coordinate_hyperplanes(1)[:1], SMALL)

    def test_empty_tuple(self):
        with pytest.raises(WrongCount):
            position_sweep([], SMALL)
        with pytest.raises(WrongCount):
            position_sweeps([coordinate_hyperplanes(1), ()], SMALL)

    def test_moving_example(self):
        # rows (1, z) and (0, 1): determinant is the normalization factor
        region = Region(-1, 1, -1, 1, 5, 5)
        h1 = MovingHyperplane([ONE, Z])
        h2 = fixed(0.0, 1.0)
        pts = region.grid_points()
        sup = max(1.0, float(np.abs(pts).max()))
        got = position_sweep([h1, h2], region)[0].value
        assert abs(got - 1.0 / sup) <= 1e-12

    def test_dependent_rows_zero(self):
        h = fixed(1.0, 2.0)
        g = fixed(2.0, 4.0)
        # scalar multiples normalize to the same row
        assert position_sweep([h, g], SMALL)[0].value <= 1e-15


class TestGenPosProduct:
    """The product of D over all (n+1)-subsets."""

    def test_three_coordinate_like(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0), fixed(1.0, 1.0)]
        # subsets: dets 1, 1, -1; all coefficients already unit-normalized
        assert abs(position_sweep(hypers, SMALL)[0].value - 1.0) <= 1e-12

    def test_vanishes_at_collision(self):
        # (z - t, 1) collides with (0, 1) as z -> t; t and t + 0.5 are
        # grid points.
        t = 0.25
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0),
                  MovingHyperplane([ComplexPoly([-t, 1.0]), ONE])]
        region = Region(-1, 1, -1, 1, 9, 9)
        pts = region.grid_points()
        vals = position_sweep(hypers, region)[2]
        assert vals[pts == t] <= 1e-12
        assert vals[pts == t + 0.5] > 1e-4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        hypers = [fixed(*(rng.standard_normal(3)
                          + 1j * rng.standard_normal(3)))
                  for _ in range(5)]
        base = position_sweep(hypers, SMALL)[0].value
        for perm in itertools.permutations(range(5)):
            v = position_sweep([hypers[i] for i in perm], SMALL)[0].value
            assert abs(v - base) <= 1e-12 * max(1.0, base)


class TestUniformDelta:
    def test_constant_family(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0), fixed(1.0, 1.0)]
        region = Region(-1, 1, -1, 1, 9, 9)
        ud = position_sweep(hypers, region)[0]
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
        ud = position_sweep(hypers, region)[0]
        k = int(np.argmin(oracle))
        assert abs(ud.value - oracle[k]) <= 1e-12
        assert abs(ud.argmin - pts[k]) <= 1e-15

    def test_grid_consistency(self):
        # The degenerate_position family: the product vanishes at z = t,
        # between grid points, so the grid min stays positive while the
        # bound over the region reaches 0.
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0),
                  MovingHyperplane([ComplexPoly([-0.01, 1.0]), ONE])]
        region = Region(-1, 1, -1, 1, 41, 41)
        ud, low, _ = position_sweep(hypers, region)
        assert abs(ud.value - 0.00495) <= 1e-5
        assert low == 0.0
        # The position stage marks a member inconsistent when its grid min
        # clears delta but the bound is at most delta / 2.
        scene = generate_scene("degenerate_position", {})
        for delta, consistent in ((0.05, True), (0.001, False)):
            report, _ = run_pipeline(rebuild_scene(scene, delta=delta),
                                     which=("position",))
            [entry] = report["stages"]["position"]["per_member"]
            assert entry["min"] == ud.value
            assert entry["lower_bound"] == 0.0
            assert entry["consistent"] is consistent

    def test_matches_grid_kernel(self):
        rng = np.random.default_rng(11)
        hypers = [MovingHyperplane([
            ComplexPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
            ComplexPoly(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
        ]) for _ in range(3)]
        region = Region(-1, 1, -1, 1, 7, 7)
        vals = per_point_product(normalized(hypers, region),
                                 region.grid_points())
        ud = position_sweep(hypers, region)[0]
        assert abs(ud.value - float(vals.min())) <= 1e-12


class TestIsGeneralPosition:
    """The verdict: the product clears a test-local threshold."""

    def test_coordinate_plus_diagonal(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0), fixed(1.0, 1.0)]
        assert in_general_position(hypers)

    def test_duplicate_fails(self):
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0), fixed(2.0, 0.0)]
        assert not in_general_position(hypers)

    def test_rank_oracle_n2(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            rows = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            hypers = [fixed(*row) for row in rows]
            expect = all(
                np.linalg.matrix_rank(rows[list(idx)]) == 3
                for idx in itertools.combinations(range(5), 3))
            assert in_general_position(hypers) == expect

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        hypers = [fixed(*row) for row in rows]
        scales = rng.uniform(0.1, 10.0, 3) * np.exp(
            2j * np.pi * rng.uniform(0, 1, 3))
        scaled = [fixed(*(s * row)) for s, row in zip(scales, rows)]
        assert in_general_position(hypers) == in_general_position(scaled)


def per_point_product(hypers, pts):
    """Product of |det| over (n+1)-subsets, one determinant per point of
    the hyperplanes' values there."""
    rows = np.stack([polyval_grid(stack_coeffs(h.coeffs), pts)
                     for h in hypers])
    out = np.ones(pts.size)
    for idx in itertools.combinations(range(len(hypers)), hypers[0].n + 1):
        out *= np.abs(np.linalg.det(rows[list(idx)].transpose(2, 0, 1)))
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
        normed = normalized(hypers, region)
        got = position_sweep(normed, region)[2]
        ref = per_point_product(normed, region.grid_points())
        assert np.abs(got - ref).max() <= 1e-9 * max(1.0, ref.max())


class TestLowerBound:
    """position_sweep's lower bound holds on the whole region, not only at
    the grid points."""

    @given(st.integers(1, 4), st.integers(0, 2),
           st.integers(0, 2 ** 31 - 1),
           st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.1, 3.0), st.floats(0.1, 3.0),
           st.integers(2, 8), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_bounds_product_off_grid(self, n, extra, seed, cx, cy, w, h,
                                     nx, ny):
        rng = np.random.default_rng(seed)
        hypers = []
        for _ in range(n + 1 + extra):
            degree = int(rng.integers(0, 4))
            hypers.append(MovingHyperplane([
                ComplexPoly(rng.standard_normal(degree + 1)
                            + 1j * rng.standard_normal(degree + 1))
                for _ in range(n + 1)]))
        x0, y0 = cx - w / 2, cy - h / 2
        region = Region(x0, x0 + w, y0, y0 + h, nx, ny)
        ud, bound, _ = position_sweep(hypers, region)
        assert 0.0 <= bound <= ud.value
        normed = normalized(hypers, region)
        off_grid = (x0 + w * rng.uniform(0, 1, 200)
                    + 1j * (y0 + h * rng.uniform(0, 1, 200)))
        denser = Region(x0, x0 + w, y0, y0 + h, 2 * nx - 1, 2 * ny - 1)
        for pts in (off_grid, denser.grid_points()):
            assert bound <= per_point_product(normed, pts).min() * (
                1 + 1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("g", [5, 11, 41])
    def test_zero_at_corner_cell_centre(self, g, k):
        # det((0, 1), (z^k - t^k, 1)) vanishes at t, the centre of the
        # corner cell: as far from the grid as a point can be, and where
        # |det'| comes closest to its bound sum_k k |c_k|.  The infimum of
        # the product is 0, so the bound must be too.
        t = complex(1 - 1 / (g - 1), 1 - 1 / (g - 1))
        p = ComplexPoly(np.r_[-t ** k, np.zeros(k - 1), 1.0])
        hypers = [fixed(1.0, 0.0), fixed(0.0, 1.0),
                  MovingHyperplane([p, ONE])]
        ud, low, _ = position_sweep(hypers, Region(-1, 1, -1, 1, g, g))
        assert ud.value > 1e-3
        assert low == 0.0


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
        # Fixed hyperplanes: the constant coefficients are the values.
        A = np.stack([stack_coeffs(h.coeffs)[:, 0]
                      for h in normalized(hypers, region)])
        dets = [np.linalg.det(A[list(idx)]) for idx in
                itertools.combinations(range(len(hypers)), hypers[0].n + 1)]
        # np.abs, as in the sweeps: the scalar abs() of a complex can
        # differ from the array kernel in the last bit.
        prod = 1.0
        for mag in np.abs(dets):
            prod *= mag
        ud, low, _ = position_sweep(hypers, region)
        assert ud.value == low == prod
        assert ud.argmin == region.grid_points()[0]

    @pytest.mark.parametrize("values", [(1.0, 0.0), (0.0, 1.0, 0.5j),
                                        (3.0, -4.0j, 0.25, 1e-7),
                                        (0.6 + 0.8j, 0.3)])
    def test_normalized_matches_grid_sup(self, values):
        h = fixed(*values)
        region = Region(-1.0, 2.0, -0.5, 0.5, 7, 4)
        pts = region.grid_points()
        sup = float(np.abs(polyval_grid(stack_coeffs(h.coeffs), pts)).max())
        factor = 1.0 if abs(sup - 1.0) <= 1e-12 else 1.0 / sup
        got = h.normalized(region)
        assert got.is_normalized
        for p, q in zip(got.coeffs, h.coeffs):
            expect = (q.coeffs if factor == 1.0 else
                      ComplexPoly(q.coeffs * complex(factor)).coeffs)
            assert p.coeffs.tobytes() == expect.tobytes()


def sweep_key(sweep):
    """Every bit of a sweep: minimum, argmin, lower bound, grid values."""
    ud, low, vals = sweep
    return ud.value.hex(), ud.argmin, low.hex(), vals.tobytes()


class TestBlockSize:
    """The sweep multiplies the subsets in order whatever its block size:
    each block's first row carries the running product."""

    @pytest.mark.parametrize("grid", [3, 41])
    @pytest.mark.parametrize("template, params", [
        ("montel_omitting", {"n": 3}),
        ("montel_omitting", {"n": 5}),
        ("wandering_shared", {}),
        ("degenerate_position", {}),
    ])
    def test_bits_do_not_depend_on_block(self, monkeypatch, template,
                                         params, grid):
        scene = generate_scene(template, {**params, "grid_nx": grid,
                                          "grid_ny": grid})
        tuples = list(dict.fromkeys(m.hyperplanes for m in scene.members))
        pts = scene.region.grid_points()

        def sweeps():
            alone = [sweep_key(position_sweep(h, scene.region))
                     for h in tuples]
            stacked = [sweep_key(s)
                       for s in position_sweeps(tuples, scene.region)]
            assert stacked == alone
            return alone

        default = _kernels._EVAL_BLOCK
        # A block that holds every subset of every tuple at once.
        monkeypatch.setattr(_kernels, "_EVAL_BLOCK", len(tuples) * max(
            math.comb(len(h), h[0].n + 1) for h in tuples) * pts.size)
        whole = sweeps()
        for block in (1, 7, 100, default):
            monkeypatch.setattr(_kernels, "_EVAL_BLOCK", block)
            assert sweeps() == whole

    def test_subset_determinants_in_blocks(self, monkeypatch):
        # blowup_linear at n = 8 holds one fixed tuple of 17 hyperplanes,
        # C(17, 9) = 24,310 subsets of 9 x 9 entries: more than one block,
        # from generating the scene on, and one block at 1 << 21 entries.
        # Its product overflows (ROADMAP item 2), so the determinants are
        # compared too.
        with np.errstate(over="ignore"):
            scene = generate_scene("blowup_linear", {"n": 8, "N": 1,
                                                     "grid_nx": 3,
                                                     "grid_ny": 3})
            hypers = scene.members[0].hyperplanes
            dets = record_outputs(monkeypatch, np.linalg, "det")
            got = sweep_key(position_sweep(hypers, scene.region))
            taken = np.concatenate([d.ravel() for d in dets])
            assert taken.size == 24310
            assert len(dets) > 1
            dets.clear()
            monkeypatch.setattr(_kernels, "_EVAL_BLOCK", 1 << 21)
            assert sweep_key(position_sweep(hypers, scene.region)) == got
        assert len(dets) == 1
        assert dets[0].tobytes() == taken.tobytes()

    def test_no_call_spans_every_subset(self, monkeypatch):
        # Each determinant and FFT call of the n = 8 sweep, from generating
        # the scene on, takes at most one block of its 24,310 subsets, and
        # each determinant call's input at most one block of matrix entries.
        dets = record_outputs(monkeypatch, np.linalg, "det")
        ffts = record_outputs(monkeypatch, np.fft, "fft")
        entries = []
        det = np.linalg.det

        def counted(a):
            entries.append(a.size)
            return det(a)

        monkeypatch.setattr(np.linalg, "det", counted)
        with np.errstate(over="ignore"):
            scene = generate_scene("blowup_linear", {"n": 8, "N": 1,
                                                     "grid_nx": 3,
                                                     "grid_ny": 3})
            position_sweep(scene.members[0].hyperplanes, scene.region)
        for calls in (dets, ffts):
            assert sum(a.size for a in calls) == 2 * 24310
            assert max(a.size for a in calls) <= _kernels._EVAL_BLOCK
        assert len(entries) == len(dets)
        assert max(entries) <= _kernels._EVAL_BLOCK


def record_outputs(monkeypatch, owner, name):
    """Every array that owner.name returns, in call order."""
    outputs = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        outputs.append(original(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(owner, name, recording)
    return outputs


def _random_tuples(rng, n, q, count):
    """``count`` tuples of q random hyperplanes of P^n with one pattern of
    degrees, so one stack: each hyperplane fixed or moving of degree 1
    or 2."""
    sizes = rng.integers(1, 4, q)
    return [[MovingHyperplane([
        ComplexPoly(rng.standard_normal(size)
                    + 1j * rng.standard_normal(size))
        for _ in range(n + 1)]) for size in sizes] for _ in range(count)]


class TestStackedSweep:
    """A tuple's sweep has the same bits swept alone and inside a family
    that mixes n, q, K, fixed and moving hyperplanes and duplicates, at
    every block size."""

    @settings(max_examples=25, deadline=None)
    @given(shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(0, 2),
                                     st.integers(1, 4)),
                           min_size=1, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_alone_equals_in_family(self, shapes, seed):
        rng = np.random.default_rng(seed)
        # Small enough that the lower bounds are positive, so that every
        # bit of each L_s reaches them.
        region = Region(0.3, 0.31, -0.1, -0.092, 4, 3)
        # q runs from n + 1 to n + 3, at most 36 subsets (n = 6, q = 9).
        tuples = [h for n, extra, count in shapes
                  for h in _random_tuples(rng, n, n + 1 + min(extra, n),
                                          count)]
        # Duplicates: a repeated tuple, and one sharing another's objects.
        family = tuples + [tuples[0], tuples[-1][::-1]]
        M = region.grid_points().size
        largest = max(math.comb(len(h), h[0].n + 1) for h in family) * M
        default = _kernels._EVAL_BLOCK
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_EVAL_BLOCK", len(family) * largest)
            want = [sweep_key(position_sweep(h, region)) for h in family]
            # One subset per block; a split of the larger tuples; one
            # tuple per block; the default; everything in one block.
            for block in (1, 5 * M, largest, default, len(family) * largest):
                mp.setattr(_kernels, "_EVAL_BLOCK", block)
                assert [sweep_key(position_sweep(h, region))
                        for h in family] == want
                assert [sweep_key(s)
                        for s in position_sweeps(family, region)] == want
