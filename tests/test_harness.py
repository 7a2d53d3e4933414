import copy
import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projcurve import (_kernels, harness, normality, position,
                       projective, sharing)
from projcurve.cli import main as cli_main
from projcurve.errors import (BadParams, ParseError, UnknownTemplate,
                              ValidationError)
from projcurve.harness import (STAGES, generate_scene, json_text,
                               load_scene, run_pipeline, save_scene,
                               scene_from_json, scene_to_json)
from projcurve.polynomial import ComplexPoly
from projcurve.position import Region
from projcurve.projective import (MovingHyperplane, ProjCurve,
                                  normalized_many)
from projcurve.sharing import CheckConfig, FamilyMember


def minimal_scene_dict():
    return {
        "schema_version": 1,
        "n": 1,
        "region": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0,
                   "grid_nx": 11, "grid_ny": 11},
        "config": {"epsilon": 0.5, "delta": 1e-4},
        "members": [{
            "label": "m0",
            "curve": {"n": 1, "components": [[[1.0, 0.0]],
                                             [[0.0, 0.0], [1.0, 0.0]]]},
            "hyperplanes": [
                {"n": 1, "coeffs": [[[0.0, 0.0]], [[1.0, 0.0]]]},
                {"n": 1, "coeffs": [[[1.0, 0.0]], [[0.5, 0.0]]]},
                {"n": 1, "coeffs": [[[1.0, 0.0]], [[-0.5, 0.0]]]},
            ],
        }],
        "metadata": {},
    }


def planted_scene():
    """Curves [f0 : f1 : f2] whose f0 of degree 8 has roots of multiplicity
    1 to 4, against five fixed hyperplanes in general position."""
    region = Region(-1.0, 1.0, -1.0, 1.0, 21, 21)
    hypers = [MovingHyperplane([ComplexPoly([b ** l]) for l in range(3)]
                               ).normalized(region)
              for b in 0.9 * np.exp(2j * np.pi * np.arange(5) / 5)]
    rng = np.random.default_rng(5)
    plants = ([(0.3 + 0.2j, 4), (-0.4j, 2), (0.5, 1), (-0.6 + 0.1j, 1)],
              [(0.1, 3), (-0.5 + 0.5j, 3), (0.7j, 2)],
              [(-0.2 - 0.3j, 2), (0.6, 2), (0.0, 2), (0.4 + 0.7j, 2)])
    members = []
    for k, roots in enumerate(plants):
        f0 = ComplexPoly.from_roots([a for a, m in roots for _ in range(m)])
        rest = [ComplexPoly(c) for c in
                rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))]
        members.append(FamilyMember(ProjCurve([f0, *rest]), hypers, f"p{k}"))
    return harness.Scene(n=2, region=region, members=tuple(members),
                         config=CheckConfig(region, 0.5, 1e-6), metadata={})


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = generate_scene("wandering_shared")
        path = tmp_path / "scene.json"
        save_scene(scene, str(path))
        loaded = load_scene(str(path))
        assert scene_to_json(loaded) == scene_to_json(scene)

    def test_round_trip_stable_bytes(self, tmp_path):
        scene = generate_scene("montel_omitting", {"seed": 4})
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(scene, str(p1))
        save_scene(load_scene(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_scene(str(tmp_path / "nope.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scene(str(path))

    def test_wrong_hyperplane_count_path(self):
        data = minimal_scene_dict()
        del data["members"][0]["hyperplanes"][2]
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert "expected 2n+1" in str(err.value)
        assert "members[0]" in str(err.value)

    def test_common_zero_hyperplane_path(self):
        data = minimal_scene_dict()
        # both coefficients vanish at z = 0
        data["members"][0]["hyperplanes"][1]["coeffs"] = [
            [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert "hyperplanes[1]" in str(err.value)

    def test_shared_curve_root_path(self):
        # The second member's [z : z (z - 1)] has the common zero z = 0.
        data = minimal_scene_dict()
        second = copy.deepcopy(data["members"][0])
        second["label"] = "m1"
        second["curve"]["components"] = [
            [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]]
        data["members"].append(second)
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert err.value.path == "$.members[1].curve"
        assert "share a zero" in str(err.value)
        # Every member's structure is checked before any curve is solved:
        # a third member's malformed label is met first.
        third = copy.deepcopy(data["members"][0])
        third["label"] = ""
        data["members"].append(third)
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert err.value.path == "$.members[2].label"

    def test_one_root_solve_per_load(self, monkeypatch):
        # One stacked solve of each curve's lowest-degree component (f1 of
        # degree 3, against f0 of degree 8); f0 and f2 clear its roots
        # unsolved.
        from projcurve import polynomial
        data = scene_to_json(planted_scene())
        calls = count_calls(monkeypatch, polynomial, "roots_many")
        scene = scene_from_json(data)
        # The fixed hyperplanes have a constant entry: nothing to solve.
        assert [len(rows) for rows, in calls] == [len(data["members"])]
        assert all(m.curve.components[1]._roots is not None
                   and m.curve.components[0]._roots is None
                   for m in scene.members)
        # Moving hyperplanes (z - b, z - 2b, z + b) have no constant
        # entry: the first entry of each, as given and normalized, is
        # solved in the same call.
        for member in data["members"]:
            member["hyperplanes"] = [{"n": 2, "coeffs": [
                ComplexPoly([-c * b, 1.0]).to_json() for c in (1, 2, -1)]}
                for b in (0.5, 0.5j, -0.5, -0.5j, 0.25 + 0.25j)]
        calls.clear()
        scene = scene_from_json(data)
        assert not any(h.is_fixed for h in scene.members[0].hyperplanes)
        assert [len(rows) for rows, in calls] == [
            2 * 5 + len(data["members"])]

    @pytest.mark.parametrize("at", ["curve", "hyperplane"])
    @pytest.mark.parametrize("defect, entry, message", [
        ("polynomial", 5, "polynomial must be a list of [re, im]"),
        ("polynomial", {"re": 1.0}, "polynomial must be a list of [re, im]"),
        ("entry", [1.0, 0.0, 0.0], "coefficient must be a [re, im] pair"),
        ("entry", 1.0, "coefficient must be a [re, im] pair"),
        ("entry", [True, 0.0], "coefficient must be a [re, im] pair"),
        ("entry", [1.0, "x"], "coefficient must be a [re, im] pair"),
        ("entry", [math.nan, 0.0],
         "coefficient must be finite, got [nan, 0.0]"),
        ("entry", [0.5, math.inf],
         "coefficient must be finite, got [0.5, inf]"),
        ("entry", [-math.inf, 0.0],
         "coefficient must be finite, got [-inf, 0.0]"),
        ("entry", [10 ** 400, 0.0],
         f"coefficient must be finite, got [{10 ** 400}, 0.0]"),
        # float() rounds this integer down to the largest double, so a
        # float64 cast alone would accept it.
        ("entry", [0.0, int(sys.float_info.max) + 1],
         f"coefficient must be finite, got [0.0, "
         f"{int(sys.float_info.max) + 1}]"),
        # Finite parts whose modulus hypot(re, im) overflows to inf.
        ("entry", [1.5e308, 1.5e308],
         "coefficient modulus must be finite, got [1.5e+308, 1.5e+308]"),
        ("entry", [-13 * 10 ** 307, 13 * 10 ** 307],
         f"coefficient modulus must be finite, got [{-13 * 10 ** 307}, "
         f"{13 * 10 ** 307}]"),
    ])
    def test_single_defect_message_and_path(self, at, defect, entry,
                                            message):
        # Member 1 of two holds the one defect, at its curve's component 1
        # or its hyperplane 2's coefficient 1.
        data = minimal_scene_dict()
        data["members"].append(copy.deepcopy(data["members"][0]))
        data["members"][1]["label"] = "m1"
        member = data["members"][1]
        polys, path = ((member["curve"]["components"],
                        "$.members[1].curve.components[1]")
                       if at == "curve" else
                       (member["hyperplanes"][2]["coeffs"],
                        "$.members[1].hyperplanes[2].coeffs[1]"))
        if defect == "polynomial":
            polys[1] = entry
        else:
            polys[1][0] = entry
            path += "[0]"
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert str(err.value) == f"{path}: {message}"
        assert err.value.path == path

    @pytest.mark.parametrize("first", ["modulus", "nan"])
    def test_bad_values_report_in_document_order(self, first):
        # A NaN entry sends the scene through the exact check, which must
        # still report an overflowing modulus before it, and after it.
        data = minimal_scene_dict()
        comps = data["members"][0]["curve"]["components"]
        entries = {"modulus": [1.5e308, -1.5e308], "nan": [math.nan, 0.0]}
        comps[1][0] = entries[first]
        comps[1][1] = entries[{"modulus": "nan", "nan": "modulus"}[first]]
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert err.value.path == "$.members[0].curve.components[1][0]"
        assert str(err.value).endswith(
            "coefficient modulus must be finite, got [1.5e+308, -1.5e+308]"
            if first == "modulus" else
            "coefficient must be finite, got [nan, 0.0]")

    def test_several_defects_report_in_pass_order(self):
        # Structure, then coefficient values, then hyperplane invariants,
        # then curve zeros, whatever their order in the document: each
        # defect fixed reveals the next.
        data = minimal_scene_dict()
        for k in (1, 2):
            data["members"].append(copy.deepcopy(data["members"][0]))
            data["members"][k]["label"] = f"m{k}"
        m0, m1, m2 = data["members"]
        m0["curve"]["components"] = [[[0.0, 0.0], [1.0, 0.0]],
                                     [[0.0, 0.0], [2.0, 0.0]]]
        m0["hyperplanes"][1]["coeffs"] = [[[1.0, 0.0], [1.0, 0.0]],
                                          [[1.0, 0.0], [1.0, 0.0]]]
        m1["curve"]["components"][1][0] = [math.nan, 0.0]
        del m2["hyperplanes"][2]
        expected = [
            "$.members[2].hyperplanes: expected 2n+1 = 3 hyperplanes, got 2",
            "$.members[1].curve.components[1][0]: coefficient must be "
            "finite, got [nan, 0.0]",
            "$.members[0].hyperplanes[1]: components share a zero; reduce "
            "the representation first",
            "$.members[0].curve: components share a zero; reduce the "
            "representation first",
        ]
        repairs = [
            lambda: m2["hyperplanes"].append(m1["hyperplanes"][2]),
            lambda: m1["curve"]["components"][1].__setitem__(0, [0.0, 0.0]),
            lambda: m0.__setitem__("hyperplanes", m1["hyperplanes"]),
            lambda: m0["curve"].__setitem__("components",
                                            m1["curve"]["components"]),
        ]
        for message, repair in zip(expected, repairs):
            with pytest.raises(ValidationError) as err:
                scene_from_json(data)
            assert str(err.value) == message
            repair()
        assert len(scene_from_json(data).members) == 3

    def test_duplicate_labels(self):
        data = minimal_scene_dict()
        data["members"].append(json.loads(json.dumps(data["members"][0])))
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert "duplicate" in str(err.value)

    def test_dimension_mismatch_path(self):
        data = minimal_scene_dict()
        data["members"][0]["curve"]["n"] = 2
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert "curve" in str(err.value)

    def test_bad_region(self):
        data = minimal_scene_dict()
        data["region"]["grid_nx"] = 1
        with pytest.raises(ValidationError):
            scene_from_json(data)

    def test_normalized_on_load(self):
        scene = scene_from_json(minimal_scene_dict())
        for h in scene.members[0].hyperplanes:
            assert h.is_normalized

    def test_saved_config_holds_epsilon_and_delta(self):
        data = scene_to_json(generate_scene("wandering_shared"))
        assert data["config"] == {"epsilon": 0.5, "delta": 1e-4}

    @pytest.mark.parametrize("key, value", [
        ("tau_root", 1e-3), ("tau_root", None), ("tau_match", 0.01),
        ("tau_match", 1e-6)])
    def test_tau_values_other_than_the_fixed_ones_rejected(self, key,
                                                            value):
        data = minimal_scene_dict()
        data["config"][key] = value
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert err.value.path == f"$.config.{key}"

    @pytest.mark.parametrize("section, key, value", [
        ("config", "delta", math.nan),
        ("region", "x_max", math.inf), ("region", "x_min", -math.inf),
        ("region", "y_min", math.nan)])
    def test_non_finite_values_rejected(self, section, key, value):
        data = minimal_scene_dict()
        data[section][key] = value
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert err.value.path == f"$.{section}"

    def test_overflowed_delta_still_loads(self, tmp_path):
        # At n = 5 the montel_omitting determinant product overflows to inf
        # (ROADMAP item 2), so the template writes delta = Infinity.
        scene = generate_scene("montel_omitting",
                               {"n": 5, "N": 1, "grid_nx": 3, "grid_ny": 3})
        assert scene.config.delta == math.inf
        path = str(tmp_path / "scene.json")
        save_scene(scene, path)
        assert load_scene(path).config.delta == math.inf


class TestTemplates:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("template", ["montel_omitting", "blowup_linear"])
    def test_delta_from_assembled_hyperplanes(self, monkeypatch, template,
                                              n):
        # One normalization per scene, and delta is half the sweep of the
        # members' own normalized hyperplanes (still inf at n >= 5, where
        # the product overflows: ROADMAP item 2).
        calls = []

        def counting(tuples, region):
            calls.append(len(tuples))
            return normalized_many(tuples, region)

        for module in (harness, position):
            monkeypatch.setattr(module, "normalized_many", counting)
        scene = generate_scene(template, {"n": n, "N": 3, "grid_nx": 7,
                                          "grid_ny": 7})
        assert calls == [2 * n + 1]
        ud = position.position_sweep(scene.members[0].hyperplanes,
                                     scene.region)[0]
        assert scene.config.delta.hex() == (ud.value / 2.0).hex()
        assert math.isinf(scene.config.delta) == (n >= 5)

    @pytest.mark.parametrize("template, params", [
        *(("wandering_shared", {"mutate": mutate})
          for mutate in ("none", "delta", "epsilon", "cond1")),
        ("degenerate_position", {}),
        *((template, {"n": n}) for template in ("montel_omitting",
                                                "blowup_linear")
          for n in (1, 2, 3)),
        ("blowup_linear", {"n": 3, "N": 50}),
    ])
    def test_generated_scene_is_its_reloaded_file(self, monkeypatch,
                                                  template, params):
        # A template takes the loader's last pass: one first_common_zero
        # call, and the scene its own file loads as, down to which member
        # slots hold one hyperplane object.
        calls = [count_calls(monkeypatch, module, "first_common_zero")
                 for module in (harness, projective)]
        scene = generate_scene(template, params)
        assert sum(map(len, calls)) == 1
        text = harness.scene_text(scene)
        loaded = scene_from_json(json.loads(text))
        assert harness.scene_text(loaded) == text
        assert slot_partition(loaded) == slot_partition(scene)
        assert loaded.config.delta.hex() == scene.config.delta.hex()
        # The file holds the normalized coefficients, which its load keeps.
        assert normalizations(loaded) == normalizations(scene)
        assert all(flag for flag, _ in normalizations(scene))

    def test_unknown(self):
        with pytest.raises(UnknownTemplate):
            generate_scene("nope")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generate_scene("blowup_linear", {"bogus": 3})
        with pytest.raises(BadParams):
            generate_scene("wandering_shared", {"mutate": "what"})

    def test_montel_members_constant(self):
        scene = generate_scene("montel_omitting", {"N": 5, "seed": 1})
        assert len(scene.members) == 5
        for m in scene.members:
            assert m.curve.is_constant

    def test_montel_seed_determinism(self):
        a = generate_scene("montel_omitting", {"seed": 9})
        b = generate_scene("montel_omitting", {"seed": 9})
        c = generate_scene("montel_omitting", {"seed": 10})
        assert scene_to_json(a) == scene_to_json(b)
        assert scene_to_json(a) != scene_to_json(c)

    def test_blowup_n2(self):
        scene = generate_scene("blowup_linear", {"n": 2, "N": 4})
        assert scene.n == 2
        m = scene.members[-1]
        assert len(m.curve.components) == 3
        assert len(m.hyperplanes) == 5

    def test_wandering_mutations_differ(self):
        base = scene_to_json(generate_scene("wandering_shared"))
        for mutate in ("delta", "epsilon", "cond1"):
            mutated = scene_to_json(
                generate_scene("wandering_shared", {"mutate": mutate}))
            assert mutated != base


class TestDeterminism:
    """The same scene gives the same report bytes: every stage, run twice on
    two loads of one scene file."""

    @pytest.mark.parametrize("build", [
        lambda: generate_scene("wandering_shared", {"N": 5}),
        planted_scene,
        lambda: generate_scene("blowup_linear", {"n": 2, "N": 5}),
    ], ids=["wandering_shared", "planted", "blowup_linear"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_same_bytes_twice(self, build, stage, tmp_path):
        path = str(tmp_path / "scene.json")
        save_scene(build(), path)
        runs = [run_pipeline(load_scene(path), which=(stage,))
                for _ in range(2)]
        (first, code), (second, again) = runs
        assert code == again
        assert (json.dumps(first, sort_keys=True, indent=2)
                == json.dumps(second, sort_keys=True, indent=2))


class TestPipeline:
    def test_deterministic_report(self):
        scene = generate_scene("wandering_shared")
        r1, c1 = run_pipeline(scene, which=("position", "check"))
        r2, c2 = run_pipeline(scene, which=("position", "check"))
        assert c1 == c2 == 0
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_zalcman_pulls_in_normality(self):
        scene = generate_scene("blowup_linear")
        report, code = run_pipeline(scene, which=("zalcman",))
        assert code == 0
        assert "normality" in report["stages"]
        assert report["stages"]["normality"]["verdict"] == "blow-up"

    def test_zalcman_reuses_normality_sups(self, monkeypatch):
        # The stacked sweep receives each member once, on the grid; zalcman
        # sweeps only the rescaled members, and only at zeta = 0.
        scene = generate_scene("blowup_linear")
        swept = record_swept(monkeypatch)
        _, code = run_pipeline(scene, which=("zalcman",))
        assert code == 0
        grid = scene.region.grid_points().size
        assert [f for f, m in swept if m == grid] == \
            [m.curve for m in scene.members]
        assert [m for _, m in swept if m != grid] == [1] * len(scene.members)

    def test_fixed_hyperplanes_check_sweeps_no_grid(self, monkeypatch):
        # Fixed hyperplanes induce constant curves; montel members are
        # constant too, so neither check nor normality sweeps a grid.
        scene = generate_scene("montel_omitting", {"n": 2, "N": 4})
        swept = record_swept(monkeypatch)
        report, _ = run_pipeline(scene, which=("check", "normality"))
        assert len(report["stages"]["check"]["induced_normality"]) == 5
        assert report["stages"]["normality"]["sups"] == [0.0] * 4
        assert swept == []

    def test_zalcman_csv_reuses_last_residual(self, tmp_path, monkeypatch):
        scene = generate_scene("blowup_linear", {"N": 8})
        calls = []

        def counting(*args):
            calls.append(1)
            return fs_distance(*args)

        fs_distance = normality.fs_distance
        # Count the distance kernel wherever the pipeline binds it.
        for mod in (normality, harness):
            if hasattr(mod, "fs_distance"):
                monkeypatch.setattr(mod, "fs_distance", counting)
        report, code = run_pipeline(scene, which=("zalcman",),
                                    csv_dir=str(tmp_path))
        assert code == 0
        # One call per block of whole members of at most _EVAL_BLOCK
        # sampled values; at the default budget, 6 of the 8 two-component
        # members and then 2.
        M = report["stages"]["zalcman"]["num_zeta_points"]
        per = max(1, _kernels._EVAL_BLOCK // (2 * M))
        assert len(calls) == -(-8 // per)
        rows = (tmp_path / "zalcman.csv").read_text().splitlines()[1:]
        dists = [float(r.split(",")[2]) for r in rows]
        assert len(dists) == report["stages"]["zalcman"]["num_zeta_points"]
        assert max(dists) == report["stages"]["zalcman"]["residuals"][-1]

    def test_empty_family_every_stage(self):
        data = minimal_scene_dict()
        data["members"] = []
        scene = scene_from_json(data)
        expected = {"position": 3, "check": 0, "normality": 3, "zalcman": 3}
        for stage, code in expected.items():
            report, got = run_pipeline(scene, which=(stage,))
            assert got == report["exit_code"] == code
        report, got = run_pipeline(scene, which=STAGES)
        assert got == 3
        assert report["stages"]["position"]["error"]["type"] == "WrongCount"
        assert report["stages"]["check"]["overall"] is True

    def test_zalcman_on_bounded_family_fails(self):
        scene = generate_scene("montel_omitting")
        report, code = run_pipeline(scene, which=("zalcman",))
        assert code == 2
        assert report["stages"]["zalcman"]["error"]["type"] == "NotBlowingUp"

    def test_degenerate_exit_code(self):
        scene = generate_scene("degenerate_position")
        report, code = run_pipeline(scene, which=("position",))
        assert code == 2  # well-formed scene, failing verdict
        assert report["stages"]["position"]["verdict"] is False

    def test_unknown_stage(self):
        scene = generate_scene("wandering_shared")
        with pytest.raises(BadParams):
            run_pipeline(scene, which=("nope",))

    def test_load_scene_grid(self, tmp_path):
        path = str(tmp_path / "scene.json")
        save_scene(generate_scene("wandering_shared"), path)
        region = Region(-1, 1, -1, 1, 21, 21)
        scene = load_scene(path, grid=(21, 21))
        assert scene.region == region
        assert scene.config.region == region
        for m in scene.members:
            for h in m.hyperplanes:
                assert h.is_normalized

    def test_schema_version_present(self):
        scene = generate_scene("wandering_shared")
        report, _ = run_pipeline(scene, which=("position",))
        assert report["schema_version"] == 1


def record_swept(monkeypatch):
    """(curve, point count) for every curve the stacked Fubini-Study
    sweeps receive: the grid sup sweep, which counts its region's grid,
    and the sweep of values at given points."""
    swept = []
    sups, values = normality._fs_sups, normality._fs_values

    def recording_sups(curves, region):
        swept.extend((f, region.grid_points().size) for f in curves)
        return sups(curves, region)

    def recording_values(curves, pts):
        swept.extend((f, pts.size) for f in curves)
        return values(curves, pts)

    monkeypatch.setattr(normality, "_fs_sups", recording_sups)
    monkeypatch.setattr(normality, "_fs_values", recording_values)
    return swept


def count_calls(monkeypatch, owner, name):
    """Record each call of owner.name, a function or an instance method."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def determinants(monkeypatch):
    """A function giving the number of matrices that ``np.linalg.det``
    has taken since this call, wherever the package calls it."""
    calls = count_calls(monkeypatch, np.linalg, "det")
    return lambda: sum(math.prod(a.shape[:-2]) for a, in calls)


def count_normalized(monkeypatch):
    """The region of each hyperplane that ``normalized_many`` normalizes,
    wherever the package calls it."""
    regions = []

    def counting(tuples, region):
        tuples = list(tuples)
        regions.extend([region] * len(tuples))
        return normalized_many(tuples, region)

    for module in (harness, position):
        monkeypatch.setattr(module, "normalized_many", counting)
    return regions


def hyperplane_ids(scene):
    return {id(h) for m in scene.members for h in m.hyperplanes}


def slot_partition(scene):
    """Each (member, slot) as the first (member, slot) holding its
    hyperplane object: equal for two scenes when their slots share objects
    alike."""
    first: dict = {}
    return [[first.setdefault(id(h), (i, k))
             for k, h in enumerate(m.hyperplanes)]
            for i, m in enumerate(scene.members)]


def normalizations(scene):
    """Each hyperplane's flag and coefficient bytes, member by member."""
    return [(h.is_normalized, [p.coeffs.tobytes() for p in h.coeffs])
            for m in scene.members for h in m.hyperplanes]


class TestSharedHyperplanes:
    """Identical hyperplanes are one object per scene, and stages do their
    work once per distinct hyperplane tuple."""

    def test_load_normalizes_each_distinct_hyperplane_once(self,
                                                           monkeypatch):
        data = scene_to_json(generate_scene(
            "blowup_linear", {"n": 3, "N": 50, "grid_nx": 11,
                              "grid_ny": 11}))
        regions = count_normalized(monkeypatch)
        scene = scene_from_json(data)
        assert len(regions) == 7
        assert len(hyperplane_ids(scene)) == 7
        first = scene.members[0].hyperplanes
        assert all(m.hyperplanes == first for m in scene.members)
        assert scene_to_json(scene) == data

    def test_signed_zeros_stay_distinct(self):
        data = minimal_scene_dict()
        twin = copy.deepcopy(data["members"][0])
        twin["label"] = "m1"
        twin["hyperplanes"][1]["coeffs"][0] = [[1.0, -0.0]]
        data["members"].append(twin)
        scene = scene_from_json(data)
        m0, m1 = scene.members
        assert m1.hyperplanes[0] is m0.hyperplanes[0]
        assert m1.hyperplanes[1] is not m0.hyperplanes[1]
        assert m1.hyperplanes[2] is m0.hyperplanes[2]
        signs = [math.copysign(1.0, m["hyperplanes"][1]["coeffs"][0][0][1])
                 for m in scene_to_json(scene)["members"]]
        assert signs == [1.0, -1.0]

    def test_equal_values_share_one_object(self):
        # Keys are the parsed coefficient bytes: 1 and 1.0 are one value.
        data = minimal_scene_dict()
        twin = copy.deepcopy(data["members"][0])
        twin["label"] = "m1"
        twin["hyperplanes"][0]["coeffs"] = [[[0, 0]], [[1, 0]]]
        data["members"].append(twin)
        m0, m1 = scene_from_json(data).members
        assert m1.hyperplanes == m0.hyperplanes
        assert all(a is b for a, b in zip(m0.hyperplanes, m1.hyperplanes))

    def test_malformed_hyperplane_raises_at_its_own_path(self):
        data = minimal_scene_dict()
        for k in range(1, 4):
            member = copy.deepcopy(data["members"][0])
            member["label"] = f"m{k}"
            data["members"].append(member)
        bad = copy.deepcopy(data)
        bad["members"][3]["hyperplanes"][1]["coeffs"][0] = [[1.0, "x"]]
        with pytest.raises(ValidationError) as err:
            scene_from_json(bad)
        assert err.value.path == "$.members[3].hyperplanes[1].coeffs[0][0]"
        bad = copy.deepcopy(data)
        bad["members"][3]["hyperplanes"][1]["coeffs"] = [
            [[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
        with pytest.raises(ValidationError) as err:
            scene_from_json(bad)
        assert err.value.path == "$.members[3].hyperplanes[1]"

    def test_generated_and_regridded_scenes_share(self, monkeypatch):
        scene = generate_scene("blowup_linear",
                               {"n": 2, "N": 10, "grid_nx": 11,
                                "grid_ny": 11})
        assert len(hyperplane_ids(scene)) == 5
        data = scene_to_json(scene)
        regions = count_normalized(monkeypatch)
        regridded = scene_from_json(data, grid=(9, 7))
        assert [(r.grid_nx, r.grid_ny) for r in regions] == [(9, 7)] * 5
        assert len(hyperplane_ids(regridded)) == 5

    def test_grid_override_normalizes_once_on_the_final_grid(
            self, monkeypatch, tmp_path):
        # 12 members: the shared fixed (0, 1) and 24 moving hyperplanes.
        path = str(tmp_path / "ws.json")
        save_scene(generate_scene("wandering_shared",
                                  {"N": 12, "grid_nx": 21, "grid_ny": 21}),
                   path)
        regions = count_normalized(monkeypatch)
        report = str(tmp_path / "r.json")
        assert cli_main(["position", path, "--grid", "11", "11",
                         "-o", report]) == 0
        assert [(r.grid_nx, r.grid_ny) for r in regions] == [(11, 11)] * 25

    def test_check_reuses_position_deltas(self, monkeypatch):
        scene = generate_scene("wandering_shared",
                               {"N": 12, "grid_nx": 21, "grid_ny": 21})
        alone = {stage: run_pipeline(scene, which=(stage,))[0]["stages"][stage]
                 for stage in ("position", "check")}
        # position interpolates each of the 12 distinct tuples once, and
        # check none again.
        taken = determinants(monkeypatch)
        position.position_sweeps([m.hyperplanes for m in scene.members],
                                 scene.region)
        once = taken()
        report, code = run_pipeline(scene, which=("position", "check"))
        assert code == 0
        assert taken() == 2 * once
        assert json.dumps(report["stages"], sort_keys=True) == \
            json.dumps(alone, sort_keys=True)

    def test_check_builds_subset_determinants_once(self, monkeypatch,
                                                   tmp_path):
        # 30 nonconstant curves carrying the same fixed Vandermonde
        # hyperplanes, loaded from a scene file.
        path = str(tmp_path / "scene.json")
        save_scene(generate_scene("blowup_linear",
                                  {"n": 2, "N": 30, "grid_nx": 11,
                                   "grid_ny": 11}), path)
        scene = load_scene(path)
        shared = scene.members[0].hyperplanes
        taken = determinants(monkeypatch)
        position.position_sweep(shared, scene.region)
        # C(5, 3) = 10 subsets of the one fixed tuple, one node each.
        assert taken() == 10
        report, _ = run_pipeline(scene, which=("check",))
        assert taken() == 20
        assert len(report["stages"]["check"]["members"]) == 30
        sweeps = count_calls(monkeypatch, harness, "position_sweeps")
        report, _ = run_pipeline(scene, which=("position",),
                                 csv_dir=str(tmp_path / "csv"))
        assert taken() == 30
        assert [list(tuples) for tuples, _ in sweeps] == [[shared]]
        assert len(report["stages"]["position"]["per_member"]) == 30
        rows = (tmp_path / "csv" / "position.csv").read_text().splitlines()
        assert len(rows) == 1 + 30 * 11 * 11

    def test_position_builds_no_second_grid(self, monkeypatch):
        # 12 members with 12 distinct hyperplane tuples: one stacked sweep
        # of all 12 reads the scene's grid, built when the hyperplanes were
        # normalized, and bounds the product without a finer grid.
        scene = generate_scene("wandering_shared",
                               {"N": 12, "grid_nx": 21, "grid_ny": 21})
        calls = count_calls(monkeypatch, position.np, "meshgrid")
        sweeps = count_calls(monkeypatch, harness, "position_sweeps")
        report, _ = run_pipeline(scene, which=("position",))
        assert [list(tuples) for tuples, _ in sweeps] == \
            [[m.hyperplanes for m in scene.members]]
        assert calls == []
        for entry in report["stages"]["position"]["per_member"]:
            assert set(entry) == {"label", "min", "argmin", "lower_bound",
                                  "consistent"}
            assert 0.0 <= entry["lower_bound"] <= entry["min"]

    def test_generated_scene_shares_induced_curves(self, monkeypatch):
        # The 12 members' (0, 1) hyperplanes are one object, so check hands
        # marty_sups its induced curve once: 25 distinct curves, the
        # shared one and two moving ones per member.
        scene = generate_scene("wandering_shared", {"N": 12})
        calls = count_calls(monkeypatch, sharing, "marty_sups")
        report = run_pipeline(scene, which=("check",))
        [(families, _)] = calls
        assert len({id(f) for family in families for f in family}) == 25
        loaded = scene_from_json(json.loads(harness.scene_text(scene)))
        again = run_pipeline(loaded, which=("check",))
        assert json_text(again[0]) == json_text(report[0])
        assert again[1] == report[1]

    def test_check_sweeps_each_induced_curve_once(self, monkeypatch):
        # Every member lists member 0's hyperplanes: one fixed, whose
        # induced curve is constant, and two moving ones.
        scene = generate_scene("wandering_shared",
                               {"N": 12, "grid_nx": 21, "grid_ny": 21})
        first = scene.members[0].hyperplanes
        shared = dataclasses.replace(scene, members=tuple(
            FamilyMember(m.curve, first, m.label) for m in scene.members))
        copies = dataclasses.replace(scene, members=tuple(
            FamilyMember(m.curve, [copy.deepcopy(h) for h in first], m.label)
            for m in scene.members))
        swept = record_swept(monkeypatch)
        reports = []
        for sc, sweeps in ((shared, 2), (copies, 24)):
            swept.clear()
            report, code = run_pipeline(sc, which=("check",))
            reports.append((json.dumps(report, sort_keys=True), code))
            # Each moving hyperplane object's induced curve, once.
            curves = [f for f, _ in swept]
            assert len(curves) == len(set(curves)) == sweeps
            assert not any(f.is_constant for f in curves)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("template, params", [
        ("blowup_linear", {"n": 2, "N": 6, "grid_nx": 15, "grid_ny": 15}),
        ("wandering_shared", {"N": 5, "grid_nx": 15, "grid_ny": 15}),
    ])
    def test_reports_equal_for_distinct_copies(self, template, params,
                                               tmp_path):
        path = str(tmp_path / "scene.json")
        save_scene(generate_scene(template, params), path)
        shared = load_scene(path)
        copies = dataclasses.replace(shared, members=tuple(
            FamilyMember(m.curve, [copy.deepcopy(h) for h in m.hyperplanes],
                         m.label)
            for m in shared.members))
        assert len(hyperplane_ids(copies)) == \
            sum(len(m.hyperplanes) for m in shared.members)
        reports = []
        for label, scene in (("a", shared), ("b", copies)):
            report, code = run_pipeline(scene, csv_dir=str(tmp_path / label))
            reports.append((json.dumps(report, sort_keys=True), code))
        assert reports[0] == reports[1]
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_save_turns_each_distinct_hyperplane_into_json_once(
            self, monkeypatch, tmp_path):
        # 50 members carry one tuple of 7 hyperplanes: 350 in the file.
        scene = generate_scene("blowup_linear", {"n": 3, "N": 50})
        calls = count_calls(monkeypatch, MovingHyperplane, "to_json")
        path = tmp_path / "scene.json"
        save_scene(scene, str(path))
        assert len(calls) == 7
        assert {id(h) for h, in calls} == hyperplane_ids(scene)
        data = json.loads(path.read_text())
        assert sum(len(m["hyperplanes"]) for m in data["members"]) == 350

    def test_scene_to_json_members_own_their_lists(self):
        scene = generate_scene("blowup_linear", {"n": 1, "N": 4})
        data = scene_to_json(scene)
        before = copy.deepcopy(data)
        data["members"][0]["hyperplanes"][1]["coeffs"][0][0] = [9.0, 9.0]
        data["members"][1]["hyperplanes"].pop()
        assert data["members"][2:] == before["members"][2:]
        assert data["members"][1]["hyperplanes"] == \
            before["members"][1]["hyperplanes"][:-1]
        assert scene_to_json(scene) == before


class TestCli:
    def run(self, *argv):
        return cli_main(list(argv))

    def test_gen_and_check(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        assert self.run("gen", "wandering_shared", "-o", scene_path) == 0
        report_path = str(tmp_path / "report.json")
        assert self.run("check", scene_path, "-o", report_path) == 0
        report = json.loads(open(report_path).read())
        assert report["stages"]["check"]["overall"] is True

    def test_options_do_not_leak_between_calls(self, tmp_path,
                                               monkeypatch):
        # One parser serves every call in a process; each call still sees
        # only its own options.
        from projcurve import cli
        seen = []
        monkeypatch.setattr(cli, "_cmd_run",
                            lambda args: seen.append(vars(args)) or 0)
        assert self.run("check", "s.json", "--grid", "5", "7",
                        "--delta", "0.5") == 0
        assert self.run("check", "s.json") == 0
        assert self.run("position", "t.json", "--epsilon", "0.25") == 0
        assert [(a["command"], a["scene"], a["grid"], a["delta"],
                 a["epsilon"]) for a in seen] == [
            ("check", "s.json", [5, 7], 0.5, None),
            ("check", "s.json", None, None, None),
            ("position", "t.json", None, None, 0.25)]
        assert cli._parser() is cli._parser()

    def test_second_call_report_matches_first_process(self, tmp_path):
        scene_path = str(tmp_path / "scene.json")
        assert self.run("gen", "wandering_shared", "-o", scene_path) == 0
        plain, narrow = (str(tmp_path / f"{k}.json") for k in "ab")
        assert self.run("check", scene_path, "--grid", "9", "9",
                        "--delta", "1e9", "-o", narrow) == 2
        assert self.run("check", scene_path, "-o", plain) == 0
        report = json.loads(open(plain).read())
        assert report["stages"]["check"]["delta_ok"] is True
        assert report["scene"]["region"]["grid_nx"] != 9

    def test_gen_stdout(self, capsys):
        assert self.run("gen", "degenerate_position") == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["schema_version"] == 1

    def test_unknown_template_exit_3(self, capsys):
        assert self.run("gen", "bogus") == 3

    def test_bad_params_exit_3(self, capsys):
        assert self.run("gen", "blowup_linear", "--params", "{bad") == 3
        assert self.run("gen", "blowup_linear", "--params", '{"x": 1}') == 3

    def test_overflowing_blowup_coefficient_exit_3(self, tmp_path, capsys):
        # 8**400 is past the float range; this used to end in an
        # OverflowError traceback (exit 1).
        out = tmp_path / "b.json"
        assert self.run("gen", "blowup_linear", "--params",
                        '{"n": 400, "N": 8}', "-o", str(out)) == 3
        assert capsys.readouterr() == (
            "", "error: blowup_linear coefficient N**n = 8**400 is past the "
            "float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("template", ["blowup_linear",
                                          "degenerate_position"])
    def test_seedless_templates_reject_seed(self, capsys, template):
        # Neither template draws samples, so neither takes a seed, and
        # their scenes record none.
        for argv in (["--params", '{"seed": 1.5}'], ["--seed", "1"]):
            assert self.run("gen", template, *argv) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: template {template!r} does not "
                                  "accept parameter 'seed'")
        assert self.run("gen", template) == 0
        data = json.loads(capsys.readouterr().out)
        assert "seed" not in data["metadata"]["params"]

    @pytest.mark.parametrize("template, params, name", [
        ("montel_omitting", '{"n": "x"}', "n"),
        ("montel_omitting", '{"N": [1]}', "N"),
        ("montel_omitting", '{"n": 2.7}', "n"),
        ("montel_omitting", '{"N": 4.9}', "N"),
        ("montel_omitting", '{"n": true}', "n"),
        ("montel_omitting", '{"seed": -1}', "seed"),
        ("wandering_shared", '{"seed": 1.5}', "seed"),
        ("wandering_shared", '{"grid_nx": true}', "grid_nx"),
        ("degenerate_position", '{"grid_ny": 21.0}', "grid_ny"),
        ("degenerate_position", '{"t": "x"}', "t"),
        ("degenerate_position", '{"t": [0.01]}', "t"),
        ("degenerate_position", '{"t": [0.01, true]}', "t"),
        ("degenerate_position", '{"t": true}', "t"),
        ("degenerate_position", '{"t": NaN}', "t"),
    ])
    def test_mistyped_params_exit_3(self, capsys, template, params, name):
        # These used to truncate, coerce, or end in a traceback.
        assert self.run("gen", template, "--params", params) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(
            f"error: template {template!r} parameter {name!r} must be ")

    def test_t_as_real_or_pair(self, capsys):
        scenes = []
        for params in ('{"t": 0.01}', '{"t": [0.01, 0.0]}', None):
            argv = ["gen", "degenerate_position"]
            if params is not None:
                argv += ["--params", params]
            assert self.run(*argv) == 0
            scenes.append(capsys.readouterr().out)
        assert scenes[0] == scenes[1] == scenes[2]
        assert self.run("gen", "degenerate_position", "--params",
                        '{"t": [0.02, -0.01]}') == 0
        data = json.loads(capsys.readouterr().out)
        assert data["metadata"]["params"]["t"] == [0.02, -0.01]

    @pytest.mark.parametrize("where, path, message", [
        (("members", 0, "curve", "components", 1, 0, 0),
         "$.members[0].curve.components[1][0]",
         "coefficient must be a [re, im] pair"),
        (("members", 0, "hyperplanes", 1, "coeffs", 1, 0, 1),
         "$.members[0].hyperplanes[1].coeffs[1][0]",
         "coefficient must be a [re, im] pair"),
        (("n",), "$.n", "n must be an integer >= 1"),
        (("members", 0, "curve", "n"), "$.members[0].curve.n",
         "curve dimension True"),
        (("members", 0, "hyperplanes", 2, "n"), "$.members[0].hyperplanes[2].n",
         "hyperplane dimension True"),
        (("region", "x_max"), "$.region.x_max", "region needs numeric x_max"),
        (("region", "grid_nx"), "$.region.grid_nx",
         "region needs integer grid_nx"),
        (("config", "epsilon"), "$.config.epsilon",
         "config needs numeric epsilon"),
        (("config", "delta"), "$.config.delta", "config needs numeric delta"),
        (("schema_version",), "$.schema_version",
         "unsupported schema_version True"),
    ])
    def test_boolean_number_exit_3(self, tmp_path, capsys, where, path,
                                   message):
        # JSON true is a Python bool, a subclass of int: it used to load as
        # the number 1 at each of these places.
        data = minimal_scene_dict()
        item = data
        for key in where[:-1]:
            item = item[key]
        item[where[-1]] = True
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert self.run("check", str(scene_path)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("section, key", [
        ("region", "x_max"), ("config", "epsilon"), ("config", "delta")])
    def test_integer_beyond_double_range_exit_3(self, tmp_path, capsys,
                                                section, key):
        # float() of such an integer raised OverflowError: a traceback.
        data = minimal_scene_dict()
        data[section][key] = 10 ** 400
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert self.run("check", str(scene_path)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: $.{section}: int too large to convert to "
                       "float\n")

    def test_mutated_scene_fails(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "wandering_shared", "--params",
                 '{"mutate": "cond1"}', "-o", scene_path)
        assert self.run("check", scene_path,
                        "-o", str(tmp_path / "r.json")) == 2

    def test_shared_fourfold_root_exit_3(self, tmp_path, capsys):
        # [(z - a)^4 : (z - a)^4 (z + 1)]: the eigenvalues of each 4-fold
        # root scatter by about 1e-4, farther apart than TAU_ROOT; their
        # regrouped centres match.
        a = 0.0123 + 0.0071j
        data = minimal_scene_dict()
        data["members"][0]["curve"]["components"] = [
            ComplexPoly.from_roots([a] * 4).to_json(),
            ComplexPoly.from_roots([a] * 4 + [-1.0]).to_json()]
        with pytest.raises(ValidationError) as err:
            scene_from_json(data)
        assert err.value.path == "$.members[0].curve"
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert self.run("check", str(scene_path)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: $.members[0].curve: ")

    def test_degenerate_scene_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert self.run("position", str(bad)) == 3

    def test_position_with_csv(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "degenerate_position", "-o", scene_path)
        csv_dir = str(tmp_path / "tables")
        code = self.run("position", scene_path, "--csv", csv_dir,
                        "-o", str(tmp_path / "r.json"))
        assert code == 2
        lines = open(os.path.join(csv_dir, "position.csv")).read().splitlines()
        assert lines[0] == "label,x,y,D"
        assert len(lines) == 1 + 41 * 41

    def test_zalcman_csv(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "blowup_linear", "-o", scene_path)
        csv_dir = str(tmp_path / "tables")
        code = self.run("zalcman", scene_path, "--csv", csv_dir,
                        "-o", str(tmp_path / "r.json"))
        assert code == 0
        lines = open(os.path.join(csv_dir, "zalcman.csv")).read().splitlines()
        assert lines[0] == "zeta_x,zeta_y,fs_distance_to_limit"
        assert len(lines) > 1

    def test_normality_csv_and_exit(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "montel_omitting", "-o", scene_path)
        csv_dir = str(tmp_path / "tables")
        code = self.run("normality", scene_path, "--csv", csv_dir,
                        "-o", str(tmp_path / "r.json"))
        assert code == 0
        lines = open(os.path.join(csv_dir, "normality.csv")).read().splitlines()
        assert lines[0] == "member_index,sup"
        assert len(lines) == 11

    def test_grid_override(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "blowup_linear", "-o", scene_path)
        report_path = str(tmp_path / "r.json")
        code = self.run("normality", scene_path, "--grid", "21", "21",
                        "-o", report_path)
        assert code == 2  # blow-up family: normality check fails
        report = json.loads(open(report_path).read())
        assert report["scene"]["region"]["grid_nx"] == 21

    def test_grid_below_two_points_exit_3(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "wandering_shared", "-o", scene_path)
        capsys.readouterr()
        assert self.run("position", scene_path, "--grid", "1", "1") == 3
        assert self.run("gen", "blowup_linear", "--grid", "1", "1") == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --grid: need at least 2 grid samples per axis\n"
                       "error: need at least 2 grid samples per axis\n")

    @pytest.mark.parametrize("entry, where", [
        ("scene", "$.region: "), ("--grid", "--grid: "), ("gen", "")])
    def test_grid_too_large_exit_3(self, tmp_path, capsys, entry, where):
        # Each size is rejected by Region before any grid is allocated.
        data = minimal_scene_dict()
        if entry == "scene":
            data["region"]["grid_nx"] = 10 ** 400
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        if entry == "gen":
            args = ("gen", "blowup_linear", "--params",
                    '{"grid_nx": %d}' % 10 ** 400)
        else:
            args = ("check", str(scene_path))
            if entry == "--grid":
                args += ("--grid", "2049", "2049")
        assert self.run(*args) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {where}grid has more than 4194304 points\n"

    def test_fixed_tau_keys_give_identical_reports(self, tmp_path, capsys):
        # Scene files saved before the tolerances became constants carry
        # both keys with the only values ever written.
        data = scene_to_json(generate_scene("blowup_linear", {"N": 5}))
        legacy = copy.deepcopy(data)
        legacy["config"].update({"tau_match": None, "tau_root": 1e-06})
        paths = []
        for name, scene in (("new", data), ("legacy", legacy)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(scene))
        for stage in STAGES:
            outs = [tmp_path / f"{p.stem}.{stage}.out" for p in paths]
            codes = [self.run(stage, str(p), "-o", str(o))
                     for p, o in zip(paths, outs)]
            assert codes[0] == codes[1]
            assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_other_tau_root_exit_3(self, tmp_path, capsys):
        data = minimal_scene_dict()
        data["config"]["tau_root"] = 1e-3
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        capsys.readouterr()
        assert self.run("check", str(scene_path)) == 3
        assert capsys.readouterr().err.startswith(
            "error: $.config.tau_root: ")

    def test_tol_root_flag_is_gone(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(minimal_scene_dict()))
        with pytest.raises(SystemExit):
            self.run("check", str(scene_path), "--tol-root", "1e-6")

    def test_non_finite_delta_exit_3(self, tmp_path, capsys):
        data = minimal_scene_dict()
        data["config"]["delta"] = math.nan
        nan_path = tmp_path / "nan.json"
        nan_path.write_text(json.dumps(data))
        assert "NaN" in nan_path.read_text()
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(minimal_scene_dict()))
        capsys.readouterr()
        assert self.run("position", str(nan_path)) == 3
        assert self.run("position", str(scene_path), "--delta", "inf") == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: $.config: delta must be positive, got nan\n"
            "error: --delta: must be finite, got inf\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       10 ** 400],
                             ids=["nan", "inf", "-inf", "huge-int"])
    @pytest.mark.parametrize("where", [
        ("curve", "components", 1, 0),
        ("hyperplanes", 1, "coeffs", 1, 0),
    ], ids=["curve", "hyperplane"])
    def test_non_finite_coefficient_exit_3(self, tmp_path, capsys, value,
                                           where):
        # Python's json reads NaN and +-Infinity; a NaN used to end in a
        # LinAlgError traceback and an infinity loaded as the zero
        # polynomial.
        data = scene_to_json(generate_scene("wandering_shared", {"N": 3}))
        item = data["members"][1]
        for key in where:
            item = item[key]
        item[0] = value
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        path = "$.members[1]" + "".join(
            f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)
        capsys.readouterr()
        for stage in ("position", "check"):
            assert self.run(stage, str(scene_path)) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(
                f"error: {path}: coefficient must be finite, got [")

    def test_zalcman_zero_sup_reports_error(self, tmp_path, capsys):
        # [1 : 0.5], [1 : z], [1 : 2z], [1 : 3z]: sups (0, 1, 2, 3) grow,
        # so the verdict is blow-up, but the constant member has no scale.
        data = minimal_scene_dict()
        data["region"]["grid_nx"] = data["region"]["grid_ny"] = 21
        template = data["members"][0]
        data["members"] = []
        for k, second in enumerate(([[0.5, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
                                    [[0.0, 0.0], [2.0, 0.0]],
                                    [[0.0, 0.0], [3.0, 0.0]])):
            member = copy.deepcopy(template)
            member["label"] = f"m{k}"
            member["curve"]["components"] = [[[1.0, 0.0]], second]
            data["members"].append(member)
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(data))
        report_path = tmp_path / "r.json"
        assert self.run("zalcman", str(scene_path),
                        "-o", str(report_path)) == 2
        report = json.loads(report_path.read_text())
        assert report["stages"]["normality"]["sups"] == [0.0, 1.0, 2.0, 3.0]
        assert report["stages"]["normality"]["verdict"] == "blow-up"
        error = report["stages"]["zalcman"]["error"]
        assert error["type"] == "NotBlowingUp"
        assert "member 0" in error["message"]

    def test_delta_override_flips_verdict(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "degenerate_position", "-o", scene_path)
        report_path = str(tmp_path / "r.json")
        # the scene min is ~0.005; a tiny delta lets it pass
        code = self.run("position", scene_path, "--delta", "1e-6",
                        "-o", report_path)
        assert code == 0

    def test_empty_family_every_stage(self, tmp_path, capsys):
        data = minimal_scene_dict()
        data["members"] = []
        scene_path = tmp_path / "empty.json"
        scene_path.write_text(json.dumps(data))
        expected = {"position": 3, "check": 0, "normality": 3, "zalcman": 3}
        for stage, code in expected.items():
            report_path = tmp_path / f"{stage}.json"
            assert self.run(stage, str(scene_path),
                            "-o", str(report_path)) == code
            report = json.loads(report_path.read_text())
            assert report["exit_code"] == code

    def test_empty_family_check_is_strict_json(self, tmp_path, capsys):
        data = minimal_scene_dict()
        data["members"] = []
        scene_path = tmp_path / "empty.json"
        scene_path.write_text(json.dumps(data))
        report_path = tmp_path / "check.json"
        assert self.run("check", str(scene_path),
                        "-o", str(report_path)) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(report_path.read_text(), parse_constant=reject)
        assert report["stages"]["check"]["delta_estimate"] is None

    def test_run_subcommands_take_no_seed(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "wandering_shared", "--seed", "3", "-o", scene_path)
        with pytest.raises(SystemExit):
            self.run("check", scene_path, "--seed", "3")

    def test_reports_identical_across_runs(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "wandering_shared", "-o", scene_path)
        p1, p2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        self.run("check", scene_path, "-o", p1)
        self.run("check", scene_path, "-o", p2)
        assert open(p1).read() == open(p2).read()


def stdlib_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# Scalars at the edges of the encoder: escapes, the indentation pattern
# inside a string, signed zero, non-finite and subnormal floats, big ints.
EDGE_STRINGS = ['"', "\\", "\x00\x1f\t\n\r", "\u00e9\u4e2d\U0001f600",
                '"],\n  ["', "],\n    [", "\n", ""]
EDGE_NUMBERS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324,
                2.2250738585072014e-308 / 3, 1.7976931348623157e308,
                2 ** 64, -(2 ** 200), 0, -1]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(), st.sampled_from(EDGE_STRINGS + EDGE_NUMBERS))
# Keys of one kind per dict, so the dict sorts: strings, numbers (int,
# float and bool compare with each other), or None.
KEY_KINDS = [st.text() | st.sampled_from(EDGE_STRINGS),
             st.integers() | st.floats() | st.booleans(), st.none()]


def trees(children):
    rows = st.integers(1, 3).flatmap(lambda width: st.lists(
        st.lists(SCALARS, min_size=width, max_size=width)
        .map(tuple) | st.lists(SCALARS, min_size=width, max_size=width),
        max_size=4))
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        rows,
        *[st.dictionaries(keys, children, max_size=4) for keys in KEY_KINDS],
    )


JSON_TREES = st.recursive(SCALARS, trees, max_leaves=40)


@st.composite
def shared_trees(draw):
    """A tree holding one list or dict object several times, at equal and
    at different depths, and a list that holds it twice, repeated too."""
    inner = draw(st.dictionaries(st.text(max_size=2), JSON_TREES,
                                 min_size=1, max_size=3)
                 | st.lists(JSON_TREES, min_size=1, max_size=3).map(
                     lambda items: [{"k": items[0]}, *items[1:]]))
    pair = [inner, {"again": inner}]
    places = []
    for shared in draw(st.lists(st.sampled_from([inner, pair]),
                                min_size=2, max_size=6)):
        for wrap in draw(st.lists(st.sampled_from("ldt"), max_size=3)):
            shared = {"l": [shared], "d": {"x": shared},
                      "t": (shared, None)}[wrap]
        places.append(shared)
        places.append(draw(JSON_TREES))
    return draw(st.sampled_from([places, tuple(places),
                                 {str(k): v for k, v in enumerate(places)}]))


def nest(obj, depth: int):
    """``obj`` under ``depth`` alternating list and dict levels, with
    scalars beside it at each level."""
    for level in range(depth):
        obj = ([level, obj, [-0.0, "x"]] if level % 2
               else {"a": obj, "b": [[1.5, level]], "c": None})
    return obj


class Row(list):
    pass


@st.composite
def row_lists(draw):
    """A list of lists of rows, such as a curve's components: mostly rows
    of one width, sometimes a row of another width, an empty list or row,
    a tuple or a list subclass, and numpy floats beside plain scalars."""
    width = draw(st.integers(1, 3))
    values = SCALARS | st.floats().map(np.float64)
    row = st.lists(values, min_size=width, max_size=width)
    rows = st.one_of(row, row, row.map(tuple), row.map(Row),
                     st.lists(values, max_size=4))
    items = st.lists(rows, max_size=4)
    return draw(st.lists(items | items.map(tuple), max_size=4))


class TestJsonText:
    """``json_text`` writes the stdlib's ``indent=2`` bytes."""

    @staticmethod
    def assert_same(obj):
        try:
            expected = stdlib_text(obj)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)):
                json_text(obj)
        else:
            assert json_text(obj) == expected

    @settings(max_examples=400, deadline=None)
    @given(JSON_TREES)
    @example([])
    @example({})
    @example(())
    @example([[], {}, ()])
    @example([[1.0, 2.0], (3.0, -0.0), [math.nan, math.inf]])
    @example([[1, "a"], [2]])
    @example([["],\n    [", '"]'], ["\n", None]])
    @example({1: "a", 2.5: [True], True: None})
    @example({None: 1})
    @example({"z": [[0.0, -0.0]], "a": {"b": [], "c": ()}})
    def test_equals_stdlib_on_trees(self, obj):
        self.assert_same(obj)

    @settings(max_examples=100, deadline=None)
    @given(JSON_TREES, st.integers(6, 10))
    def test_equals_stdlib_nested_deep(self, obj, depth):
        self.assert_same(nest(obj, depth))

    @settings(max_examples=100, deadline=None)
    @given(shared_trees())
    def test_equals_stdlib_on_repeated_subtrees(self, obj):
        self.assert_same(obj)

    def test_each_later_repeat_is_one_call(self, monkeypatch):
        shared = [{"a": [1.0, -0.0], "b": None}, {"c": [[1, 2], [3, 4]]}]
        calls = count_calls(monkeypatch, harness, "_walk")
        counts = []
        for k in (2, 40):
            obj = {"x": [shared] * k, "y": [[shared] * k]}
            assert json_text(obj) == stdlib_text(obj)
            counts.append(len(calls))
            calls.clear()
        # Past the second, each occurrence of shared, at depth 2 under x
        # and at depth 3 under y, appends a text laid out before: one call.
        assert counts[1] - counts[0] == 2 * 38

    @settings(max_examples=200, deadline=None)
    @given(row_lists(), st.integers(0, 3))
    @example([[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]], 0)
    @example([[[1.0, 2.0]], [[3.0, 4.0, 5.0]]], 0)
    @example([[[1.0, 2.0]], []], 1)
    @example([[[1.0, 2.0], []]], 0)
    @example([[[]], [[], ()]], 1)
    @example([[(1.0, 2.0)], ((3.0, 4.0), [5.0, 6.0])], 2)
    @example([[[-0.0, math.nan]], [[math.inf, -math.inf]]], 3)
    @example([[[np.float64(0.5), 1.0]], [Row([2.0, 3.0])]], 1)
    @example([Row([[1.0, 2.0]]), [[3.0, 4.0]]], 0)
    def test_equals_stdlib_on_row_lists(self, obj, depth):
        self.assert_same(nest(obj, depth))

    def test_each_further_member_is_four_calls(self, monkeypatch):
        calls = count_calls(monkeypatch, harness, "_walk")
        counts = []
        for k in (2, 40):
            scene = generate_scene("blowup_linear", {"n": 3, "N": k})
            calls.clear()
            assert harness.scene_text(scene) == stdlib_text(
                scene_to_json(scene))
            counts.append(len(calls))
        # Each member past the second: its dict, its curve's dict, its
        # components in one step, and a copy of the shared hyperplane list.
        assert counts[1] - counts[0] == 4 * 38

    def test_key_rules(self):
        self.assert_same({math.nan: 1, -0.0: 2, math.inf: 3})
        self.assert_same({False: [1], None: {"x": []}})
        with pytest.raises(TypeError, match="keys must be"):
            json_text({(1, 2): 3})
        with pytest.raises(TypeError):
            json_text({1: 1, "a": 2})  # unsortable, as in the stdlib

    def test_unserializable_values_raise(self):
        for bad in ({"a": {1, 2}}, [object()], [[1.0, b"x"]]):
            with pytest.raises(TypeError):
                stdlib_text(bad)
            with pytest.raises(TypeError):
                json_text(bad)

    def test_subclasses_and_numpy_scalars(self):
        class Row(list):
            pass

        class Name(str):
            pass

        self.assert_same([Row([1.0, 2.0]), Row([3.0, 4.0])])
        self.assert_same({Name("k"): [np.float64(0.1), np.float64(-0.0)]})
        self.assert_same([[np.float64(1.5), 2.0], [3.0, np.float64(4.5)]])


REFERENCE_SCENES = [
    *[(f"mutant_{m}", lambda m=m: generate_scene(
        "wandering_shared", {"mutate": m}))
      for m in ("none", "delta", "epsilon", "cond1")],
    *[(f"blowup_linear_n{n}", lambda n=n: generate_scene(
        "blowup_linear", {"n": n})) for n in (1, 3)],
    *[(f"montel_omitting_n{n}", lambda n=n: generate_scene(
        "montel_omitting", {"n": n})) for n in (3, 5)],
    ("degenerate_position", lambda: generate_scene("degenerate_position")),
    ("planted", planted_scene),
]


class TestReportBytes:
    """The CLI's report files and scene files are the stdlib's
    ``indent=2`` encoding of what they hold."""

    @pytest.mark.parametrize("build", [b for _, b in REFERENCE_SCENES],
                             ids=[name for name, _ in REFERENCE_SCENES])
    def test_every_stage_matches_stdlib(self, build, tmp_path, capsys):
        scene = build()
        path = str(tmp_path / "scene.json")
        save_scene(scene, path)
        with open(path, "rb") as fh:
            assert fh.read() == stdlib_text(scene_to_json(scene)).encode()
        loaded = load_scene(path)
        for stage in STAGES:
            out = str(tmp_path / f"{stage}.json")
            code = cli_main([stage, path, "-o", out])
            report, again = run_pipeline(loaded, which=(stage,))
            assert code == again
            with open(out, "rb") as fh:
                assert fh.read() == stdlib_text(report).encode(), stage

    @pytest.mark.parametrize("template, params", [
        ("wandering_shared", "{}"), ("montel_omitting", '{"n": 5}'),
        ("blowup_linear", '{"n": 3}'),
        ("blowup_linear", '{"n": 3, "N": 50}')])
    def test_gen_stdout_and_file_agree(self, template, params, tmp_path,
                                       capsys):
        path = str(tmp_path / "scene.json")
        assert cli_main(["gen", template, "--params", params,
                         "-o", path]) == 0
        capsys.readouterr()
        assert cli_main(["gen", template, "--params", params]) == 0
        out = capsys.readouterr().out
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert out == text
        assert text == stdlib_text(json.loads(text))
