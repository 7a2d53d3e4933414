"""The verdict ledger: families whose right answer is known, where the
checker is wrong today.

Each test asserts the right answer and is a strict xfail naming the
ROADMAP row and the item that fixes it, so tier-1 shows each row until its
item flips it; that item then drops the marker.
"""

import dataclasses
import warnings

import pytest

from projcurve import harness
from projcurve.normality import marty_sup
from projcurve.polynomial import ComplexPoly
from projcurve.position import Region
from projcurve.projective import ProjCurve

ONE = ComplexPoly.one()
SQUARE = Region(-1.0, 1.0, -1.0, 1.0, 41, 41)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP row B: position decides on the grid minimum, not its lower "
    "bound 0.0 (items 11, 2 and 22)"))
def test_row_b_degenerate_position_is_not_a_pass():
    # det vanishes at z = t = 0.01 + 0j, inside the region, so no delta
    # holds there; the grid minimum 0.00495 is above delta = 0.001.
    scene = harness.rebuild_scene(
        harness.generate_scene("degenerate_position"), delta=0.001)
    report, _ = harness.run_pipeline(scene, which=("position",))
    assert report["stages"]["position"]["verdict"] is not True


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP row C: the n = 5 Vandermonde product overflows to inf "
    "(item 2)"))
def test_row_c_montel_n5_delta_is_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scene = harness.generate_scene("montel_omitting", {"n": 5})
    assert 0.0 < scene.config.delta < float("inf")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP row D: the grid misses the peak nu at a, between grid points "
    "(item 4)"))
def test_row_d_shrinking_peak_blows_up():
    # [1 : nu (z - a)] has f^# = nu / (1 + |nu (z - a)|^2), sup nu at a.
    a = 0.0123 + 0.0071j
    members = [ProjCurve([ONE, ComplexPoly([-nu * a, nu])])
               for nu in (10, 30, 100, 300, 1000, 3000)]
    assert marty_sup(members, SQUARE)["verdict"] == "blow-up"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP row E: the growing sups sit at the corner -1 - i, on the "
    "region's boundary (item 4)"))
def test_row_e_decaying_powers_do_not_blow_up():
    # [1 : (z / sqrt 2)^k] tends to [1 : 0] locally uniformly inside the
    # disc |z| < sqrt 2, which holds the open square.
    members = [ProjCurve([ONE, ComplexPoly([0.0] * k + [2.0 ** (-k / 2)])])
               for k in (2, 4, 8, 16, 32, 64)]
    assert marty_sup(members, SQUARE)["verdict"] != "blow-up"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP row F: check reads an inconclusive induced verdict as a "
    "pass (item 11)"))
def test_row_f_inconclusive_is_not_a_pass():
    scene = harness.generate_scene("wandering_shared")
    scene = dataclasses.replace(scene, members=scene.members[:2])
    report, _ = harness.run_pipeline(scene, which=("check",))
    check = report["stages"]["check"]
    undecided = all(e["verdict"] == "inconclusive"
                    for e in check["induced_normality"])
    assert not (undecided and check["normality_ok"] is True)
