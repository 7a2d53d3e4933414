import json
import os

import pytest

from projcurve import harness, normality
from projcurve.cli import main as cli_main
from projcurve.errors import (BadParams, ParseError, UnknownTemplate,
                              ValidationError)
from projcurve.harness import (STAGES, generate_scene, load_scene,
                               rebuild_scene, run_pipeline, save_scene,
                               scene_from_json, scene_to_json)
from projcurve.position import Region


def minimal_scene_dict():
    return {
        "schema_version": 1,
        "n": 1,
        "region": {"x_min": -1.0, "x_max": 1.0, "y_min": -1.0, "y_max": 1.0,
                   "grid_nx": 11, "grid_ny": 11},
        "config": {"epsilon": 0.5, "delta": 1e-4, "tau_match": None,
                   "tau_root": 1e-6},
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
            assert h.normalization is not None


class TestTemplates:
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
        scene = generate_scene("blowup_linear")
        calls = []

        def counting(curve, region):
            calls.append(curve)
            return fs_derivative_on_grid(curve, region)

        fs_derivative_on_grid = normality.fs_derivative_on_grid
        monkeypatch.setattr(normality, "fs_derivative_on_grid", counting)
        _, code = run_pipeline(scene, which=("zalcman",))
        assert code == 0
        assert len(calls) == len(scene.members)

    def test_fixed_hyperplanes_check_sweeps_no_grid(self, monkeypatch):
        # Fixed hyperplanes induce constant curves; montel members are
        # constant too, so neither check nor normality sweeps a grid.
        scene = generate_scene("montel_omitting", {"n": 2, "N": 4})
        calls = []
        monkeypatch.setattr(normality, "fs_derivative_on_grid",
                            lambda curve, region: calls.append(curve))
        report, _ = run_pipeline(scene, which=("check", "normality"))
        assert len(report["stages"]["check"]["induced_normality"]) == 5
        assert report["stages"]["normality"]["sups"] == [0.0] * 4
        assert calls == []

    def test_zalcman_csv_reuses_last_residual(self, tmp_path, monkeypatch):
        scene = generate_scene("blowup_linear", {"N": 8})
        calls = []

        def counting(a, b):
            calls.append(1)
            return pairwise_fs_grid(a, b)

        pairwise_fs_grid = normality.pairwise_fs_grid
        # Count the kernel wherever the pipeline binds it.
        for mod in (normality, harness):
            if hasattr(mod, "pairwise_fs_grid"):
                monkeypatch.setattr(mod, "pairwise_fs_grid", counting)
        report, code = run_pipeline(scene, which=("zalcman",),
                                    csv_dir=str(tmp_path))
        assert code == 0
        assert len(calls) == 7
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

    def test_rebuild_scene_grid(self):
        scene = generate_scene("wandering_shared")
        region = Region(-1, 1, -1, 1, 21, 21)
        rebuilt = rebuild_scene(scene, region=region)
        assert rebuilt.region.grid_nx == 21
        assert rebuilt.config.region == region
        for m in rebuilt.members:
            for h in m.hyperplanes:
                assert h.normalization is not None

    def test_schema_version_present(self):
        scene = generate_scene("wandering_shared")
        report, _ = run_pipeline(scene, which=("position",))
        assert report["schema_version"] == 1


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

    def test_mutated_scene_fails(self, tmp_path, capsys):
        scene_path = str(tmp_path / "scene.json")
        self.run("gen", "wandering_shared", "--params",
                 '{"mutate": "cond1"}', "-o", scene_path)
        assert self.run("check", scene_path,
                        "-o", str(tmp_path / "r.json")) == 2

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
