import json
import pathlib
import re

import pytest

import projcurve
from projcurve import cli, derived, harness, polynomial, sharing

ROOT = pathlib.Path(__file__).resolve().parents[1]

PUBLIC = {
    "AllZero", "BadParams", "CheckConfig", "ComplexPoly",
    "DimensionMismatch", "FamilyMember",
    "FirstComponentZero", "IdenticallyZero",
    "MovingHyperplane", "NotBlowingUp", "NumericOverflow", "ParseError",
    "ProjCurve",
    "ProjcurveError", "Region", "Scene", "UniformDelta", "UnknownTemplate",
    "ValidationError", "WrongCount", "ZeroPolynomial",
    "config", "derived_map", "generate_scene",
    "hypotheses_check", "induced_curve", "load_scene", "marty_sup",
    "position_sweep", "run_pipeline", "save_scene", "scene_from_json",
    "scene_to_json", "zalcman_search",
    "__version__",
}


def test_public_surface_is_pinned():
    assert len(projcurve.__all__) == len(PUBLIC)
    assert set(projcurve.__all__) == PUBLIC
    for name in projcurve.__all__:
        assert getattr(projcurve, name) is not None


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^## Library\n\n```python\n(.*?)^```", text,
                         re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})


BENCHMARK_WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_perfbench_calls_still_run(name, tmp_path, monkeypatch):
    """The library calls of perfbench/, imported as perfbench/run.py
    imports it: every case of the workload at seed 1 builds, saves and
    loads, runs the workload's stages without a stage error, and each
    planted member's derived map has its known degree."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    for case in workload.cases(1):
        path = str(tmp_path / f"{case.label}.json")
        harness.save_scene(case.build(), path)
        scene = harness.load_scene(path)
        report, _ = harness.run_pipeline(scene, which=workload.stages)
        assert set(workload.stages) <= set(report["stages"])
        assert not [s for s in report["stages"].values() if "error" in s]
        curves = {m.label: m.curve for m in scene.members}
        for label, degree in case.derived:
            assert derived.derived_map(curves[label]).degree == degree


def test_check_solves_each_polynomial_once(tmp_path, monkeypatch):
    """``projcurve check`` on planted_roots' scene at seed 1 solves 330
    companion matrices in two ``roots_many`` calls: each curve's f0 at
    load, which the derived maps reuse, and every pairing of the curves
    and their derived maps."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    [case] = WORKLOADS["planted_roots"].cases(1)
    path = str(tmp_path / "planted.json")
    harness.save_scene(case.build(), path)
    calls, solved = [], []
    roots_many, eigvals = polynomial.roots_many, polynomial._eigvals

    def counted_roots_many(rows):
        calls.append(len(rows))
        return roots_many(rows)

    def counted_eigvals(C):
        solved.append(len(C))
        return eigvals(C)

    monkeypatch.setattr(polynomial, "roots_many", counted_roots_many)
    monkeypatch.setattr(sharing, "roots_many", counted_roots_many)
    monkeypatch.setattr(polynomial, "_eigvals", counted_eigvals)
    assert cli.main(["check", path, "-o", str(tmp_path / "r.json")]) == 2
    assert calls == [30, 300]
    assert sum(solved) == 330
