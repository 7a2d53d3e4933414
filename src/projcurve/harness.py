"""Scene files, scene generators, and pipeline orchestration.

A scene is a declarative JSON document: a dimension, a rectangular region
with a grid, a checker configuration, and an explicit list of members (curve
plus its 2n+1 hyperplanes).  Generators build canonical scenes in code; the
file format stays free of any expression language.

The pipeline runs the requested stages in dependency order and merges their
results into a single versioned report.  Reports are deterministic: no
timestamps, sorted keys, and every number derived from scene data alone.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._kernels import pairwise_fs_grid
from .errors import (AllZero, BadParams, DimensionMismatch, FirstComponentZero,
                     IdenticallyZero, NotGeneralPosition, ParseError,
                     ProjcurveError, UnknownTemplate, ValidationError,
                     WrongCount, ZeroPolynomial)
from .normality import marty_sup, zalcman_search
from .polynomial import ComplexPoly
from .position import Region, position_sweep, uniform_delta
from .projective import MovingHyperplane, ProjCurve
from .sharing import CheckConfig, FamilyMember, hypotheses_check

SCHEMA_VERSION = 1

STAGES = ("position", "check", "normality", "zalcman")

TEMPLATES = ("montel_omitting", "blowup_linear", "wandering_shared",
             "degenerate_position")

# Scene defects: malformed input or configurations outside the theory's
# setting.  They exit 3; failed checks exit 2.
DEGENERATE_ERRORS = (IdenticallyZero, FirstComponentZero, AllZero,
                     ZeroPolynomial, NotGeneralPosition, ParseError,
                     ValidationError, DimensionMismatch, WrongCount,
                     UnknownTemplate, BadParams)


@dataclass
class Scene:
    n: int
    region: Region
    members: tuple[FamilyMember, ...]
    config: CheckConfig
    metadata: dict


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------

def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ValidationError(message, path=path)


def _poly_from_json(data, path: str) -> ComplexPoly:
    _expect(isinstance(data, list), "polynomial must be a list of [re, im]",
            path)
    coeffs = []
    for i, item in enumerate(data):
        _expect(isinstance(item, list) and len(item) == 2
                and all(isinstance(v, (int, float)) for v in item),
                "coefficient must be a [re, im] pair", f"{path}[{i}]")
        coeffs.append(complex(item[0], item[1]))
    return ComplexPoly(coeffs)


def _region_from_json(data, path: str) -> Region:
    _expect(isinstance(data, dict), "region must be an object", path)
    for key in ("x_min", "x_max", "y_min", "y_max"):
        _expect(key in data and isinstance(data[key], (int, float)),
                f"region needs numeric {key}", f"{path}.{key}")
    for key in ("grid_nx", "grid_ny"):
        _expect(key in data and isinstance(data[key], int),
                f"region needs integer {key}", f"{path}.{key}")
    try:
        return Region.from_json(data)
    except ValueError as exc:
        raise ValidationError(str(exc), path=path) from exc


def scene_from_json(data: dict) -> Scene:
    _expect(isinstance(data, dict), "scene must be a JSON object", "$")
    version = data.get("schema_version", SCHEMA_VERSION)
    _expect(version == SCHEMA_VERSION,
            f"unsupported schema_version {version}", "$.schema_version")
    _expect(isinstance(data.get("n"), int) and data["n"] >= 1,
            "n must be an integer >= 1", "$.n")
    n = data["n"]
    region = _region_from_json(data.get("region"), "$.region")

    cfg_data = data.get("config")
    _expect(isinstance(cfg_data, dict), "config must be an object", "$.config")
    for key in ("epsilon", "delta"):
        _expect(key in cfg_data and isinstance(cfg_data[key], (int, float)),
                f"config needs numeric {key}", f"$.config.{key}")
    tau_match = cfg_data.get("tau_match")
    _expect(tau_match is None or isinstance(tau_match, (int, float)),
            "tau_match must be numeric or null", "$.config.tau_match")
    tau_root = cfg_data.get("tau_root", None)
    _expect(tau_root is None or isinstance(tau_root, (int, float)),
            "tau_root must be numeric", "$.config.tau_root")
    try:
        cfg_kwargs = {"region": region,
                      "epsilon": float(cfg_data["epsilon"]),
                      "delta": float(cfg_data["delta"]),
                      "tau_match": None if tau_match is None
                      else float(tau_match)}
        if tau_root is not None:
            cfg_kwargs["tau_root"] = float(tau_root)
        cfg = CheckConfig(**cfg_kwargs)
    except ValidationError as exc:
        raise ValidationError(str(exc), path="$.config") from exc

    members_data = data.get("members")
    _expect(isinstance(members_data, list), "members must be a list",
            "$.members")
    expected = 2 * n + 1
    members = []
    labels = set()
    for i, mdata in enumerate(members_data):
        mpath = f"$.members[{i}]"
        _expect(isinstance(mdata, dict), "member must be an object", mpath)
        label = mdata.get("label")
        _expect(isinstance(label, str) and label, "member needs a label",
                f"{mpath}.label")
        _expect(label not in labels, f"duplicate label {label!r}",
                f"{mpath}.label")
        labels.add(label)

        cdata = mdata.get("curve")
        _expect(isinstance(cdata, dict), "curve must be an object",
                f"{mpath}.curve")
        _expect(cdata.get("n") == n,
                f"curve dimension {cdata.get('n')} does not match scene n={n}",
                f"{mpath}.curve.n")
        comps_data = cdata.get("components")
        _expect(isinstance(comps_data, list) and len(comps_data) == n + 1,
                f"curve needs n+1 = {n + 1} components",
                f"{mpath}.curve.components")
        comps = [_poly_from_json(c, f"{mpath}.curve.components[{k}]")
                 for k, c in enumerate(comps_data)]
        try:
            curve = ProjCurve(comps)
        except ProjcurveError as exc:
            raise ValidationError(str(exc), path=f"{mpath}.curve") from exc

        hdata = mdata.get("hyperplanes")
        _expect(isinstance(hdata, list), "hyperplanes must be a list",
                f"{mpath}.hyperplanes")
        _expect(len(hdata) == expected,
                f"expected 2n+1 = {expected} hyperplanes, got {len(hdata)}",
                f"{mpath}.hyperplanes")
        hypers = []
        for k, hd in enumerate(hdata):
            hpath = f"{mpath}.hyperplanes[{k}]"
            _expect(isinstance(hd, dict), "hyperplane must be an object",
                    hpath)
            _expect(hd.get("n") == n,
                    f"hyperplane dimension {hd.get('n')} does not match n={n}",
                    f"{hpath}.n")
            coeffs_data = hd.get("coeffs")
            _expect(isinstance(coeffs_data, list)
                    and len(coeffs_data) == n + 1,
                    f"hyperplane needs n+1 = {n + 1} coefficients",
                    f"{hpath}.coeffs")
            coeffs = [_poly_from_json(c, f"{hpath}.coeffs[{j}]")
                      for j, c in enumerate(coeffs_data)]
            try:
                hypers.append(MovingHyperplane(coeffs).normalized(region))
            except ProjcurveError as exc:
                raise ValidationError(str(exc), path=hpath) from exc
        members.append(FamilyMember(curve, hypers, label))

    metadata = data.get("metadata", {})
    _expect(isinstance(metadata, dict), "metadata must be an object",
            "$.metadata")
    return Scene(n=n, region=region, members=tuple(members), config=cfg,
                 metadata=metadata)


def load_scene(path: str) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scene file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene file {path} is not valid JSON: {exc}") from exc
    return scene_from_json(data)


def scene_to_json(scene: Scene) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": scene.n,
        "region": scene.region.to_json(),
        "config": {
            "epsilon": scene.config.epsilon,
            "delta": scene.config.delta,
            "tau_match": scene.config.tau_match,
            "tau_root": scene.config.tau_root,
        },
        "members": [{
            "label": m.label,
            "curve": m.curve.to_json(),
            "hyperplanes": [h.to_json() for h in m.hyperplanes],
        } for m in scene.members],
        "metadata": scene.metadata,
    }


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(scene_to_json(scene), sort_keys=True, indent=2))
        fh.write("\n")


def rebuild_scene(scene: Scene, region: Region | None = None,
                  epsilon: float | None = None, delta: float | None = None,
                  tau_root: float | None = None) -> Scene:
    """Scene with overridden settings; hyperplanes renormalized if the
    region changed."""
    new_region = region if region is not None else scene.region
    cfg = CheckConfig(
        region=new_region,
        epsilon=epsilon if epsilon is not None else scene.config.epsilon,
        delta=delta if delta is not None else scene.config.delta,
        tau_match=scene.config.tau_match,
        tau_root=tau_root if tau_root is not None else scene.config.tau_root,
        tau_proj=scene.config.tau_proj,
        marty=scene.config.marty,
    )
    members = scene.members
    if region is not None:
        members = tuple(
            FamilyMember(m.curve,
                         [h.normalized(new_region) for h in m.hyperplanes],
                         m.label)
            for m in scene.members)
    return Scene(n=scene.n, region=new_region, members=members, config=cfg,
                 metadata=scene.metadata)


# ---------------------------------------------------------------------------
# scene generators
# ---------------------------------------------------------------------------

def _fixed(*values: complex) -> MovingHyperplane:
    return MovingHyperplane([ComplexPoly([v]) for v in values])


def _check_params(params: dict, allowed: dict, template: str) -> dict:
    out = dict(allowed)
    for key, value in params.items():
        if key not in allowed:
            raise BadParams(
                f"template {template!r} does not accept parameter {key!r}; "
                f"allowed: {sorted(allowed)}")
        out[key] = value
    return out


def _template_region(p: dict) -> Region:
    return Region(-1.0, 1.0, -1.0, 1.0, int(p["grid_nx"]), int(p["grid_ny"]))


def _assemble(n: int, region: Region, raw_members, epsilon: float,
              delta: float, metadata: dict) -> Scene:
    members = tuple(
        FamilyMember(curve, [h.normalized(region) for h in hypers], label)
        for label, curve, hypers in raw_members)
    cfg = CheckConfig(region=region, epsilon=epsilon, delta=delta)
    return Scene(n=n, region=region, members=members, config=cfg,
                 metadata=metadata)


def _vandermonde_hyperplanes(n: int) -> list[MovingHyperplane]:
    """2n+1 fixed hyperplanes (1, b, ..., b^n) at the (2n+1)-th roots of
    unity: every (n+1)-subset is a Vandermonde system, hence nonsingular."""
    q = 2 * n + 1
    out = []
    for j in range(q):
        b = np.exp(2j * np.pi * j / q)
        out.append(_fixed(*[b ** l for l in range(n + 1)]))
    return out


def _gen_montel_omitting(params: dict) -> Scene:
    p = _check_params(params, {"n": 1, "N": 10, "seed": 0,
                               "grid_nx": 41, "grid_ny": 41},
                      "montel_omitting")
    n, N, seed = int(p["n"]), int(p["N"]), int(p["seed"])
    if n < 1 or N < 1:
        raise BadParams("montel_omitting needs n >= 1 and N >= 1")
    region = _template_region(p)
    rng = np.random.default_rng(seed)
    hypers = _vandermonde_hyperplanes(n)
    raw = []
    for k in range(N):
        r = rng.uniform(0.1, 0.45)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c = r * np.exp(1j * theta)
        # Geometric coordinates keep every pairing a nonzero constant:
        # sum_l (b c)^l has modulus >= (1 - |c|^2) / (1 + |c|) > 0.
        curve = ProjCurve([ComplexPoly([c ** l]) for l in range(n + 1)])
        raw.append((f"m{k}", curve, list(hypers)))
    ud = uniform_delta([h.normalized(region) for h in hypers], region)
    return _assemble(n, region, raw, epsilon=0.5, delta=ud.value / 2.0,
                     metadata={"template": "montel_omitting",
                               "params": {"n": n, "N": N, "seed": seed}})


def _gen_blowup_linear(params: dict) -> Scene:
    p = _check_params(params, {"n": 1, "N": 8, "seed": 0,
                               "grid_nx": 41, "grid_ny": 41},
                      "blowup_linear")
    n, N = int(p["n"]), int(p["N"])
    if n < 1 or N < 1:
        raise BadParams("blowup_linear needs n >= 1 and N >= 1")
    region = _template_region(p)
    hypers = _vandermonde_hyperplanes(n)
    raw = []
    for nu in range(1, N + 1):
        comps = [ComplexPoly([0.0] * l + [float(nu) ** l])
                 for l in range(n + 1)]
        raw.append((f"m{nu}", ProjCurve(comps), list(hypers)))
    ud = uniform_delta([h.normalized(region) for h in hypers], region)
    return _assemble(n, region, raw, epsilon=0.5, delta=ud.value / 2.0,
                     metadata={"template": "blowup_linear",
                               "params": {"n": n, "N": N, "seed": int(p["seed"])}})


def _gen_wandering_shared(params: dict) -> Scene:
    p = _check_params(params, {"N": 6, "seed": 0, "mutate": "none",
                               "grid_nx": 41, "grid_ny": 41},
                      "wandering_shared")
    N = int(p["N"])
    mutate = str(p["mutate"])
    if N < 3:
        raise BadParams("wandering_shared needs N >= 3")
    if mutate not in ("none", "delta", "epsilon", "cond1"):
        raise BadParams(
            f"mutate must be one of none/delta/epsilon/cond1, got {mutate!r}")
    region = _template_region(p)
    n = 1
    centers = np.linspace(-0.5, 0.5, N)
    eps_c = 0.01
    one = ComplexPoly.one()
    raw = []
    for k in range(N):
        a = float(centers[k])
        c = 0.1 * (1.0 + 0.05 * k)
        # Curve (1, (z-a)^2): its derived map is (1, 2(z-a)), so the
        # coordinate hyperplane (0, 1) is shared with identical zero set {a}.
        curve = ProjCurve([one, ComplexPoly([a * a, -2.0 * a, 1.0])])
        h1 = MovingHyperplane([ComplexPoly.zero(), one])
        # The moving pair (1, +-(c + eps*z)) keeps both pairings zero-free
        # on the region (|c + eps*z| * |z-a|^2 < 1 there) while their mutual
        # determinant 2|c + eps*z| stays well above zero.
        h2 = MovingHyperplane([one, ComplexPoly([c, eps_c])])
        h3 = MovingHyperplane([one, ComplexPoly([-c, -eps_c])])
        raw.append((f"m{k}", curve, [h1, h2, h3]))

    a0 = float(centers[0])
    if mutate == "delta":
        # Duplicate hyperplane: one vanishing determinant factor drives the
        # general-position product to zero identically.
        label, curve, hypers = raw[0]
        hypers = [hypers[0],
                  MovingHyperplane([ComplexPoly.zero(), one]),
                  hypers[2]]
        raw[0] = (label, curve, hypers)
    elif mutate == "epsilon":
        # Member 0 becomes (1, q) with q = 5(z-a0)^2 + 4.55: at z0 = a0+0.7
        # both q and q' equal 7, so the hyperplane (7, -1) is hit by the
        # curve and its derived map at exactly z0 (the second q = 7 root
        # a0-0.7 leaves the region), keeping condition 1 intact while
        # |f_0(z0)| = 1 < epsilon * |q(z0)| = 3.5 violates condition 2.
        # The flanking hyperplanes (+-20, -1) have no preimages in the
        # region for either curve.
        q = ComplexPoly([5.0 * a0 * a0 + 4.55, -10.0 * a0, 5.0])
        curve = ProjCurve([one, q])
        hypers = [_fixed(20.0, -1.0), _fixed(7.0, -1.0), _fixed(-20.0, -1.0)]
        raw[0] = (raw[0][0], curve, hypers)
    elif mutate == "cond1":
        # Perturbing (0,1) to (0.01, 1) splits the curve-side preimage into
        # a0 +- 0.1i while the derived-map side moves to a0 - 0.005: the
        # sets no longer match, but determinants and the epsilon bound are
        # barely disturbed.
        label, curve, hypers = raw[0]
        hypers = [MovingHyperplane([ComplexPoly([0.01]), one]),
                  hypers[1], hypers[2]]
        raw[0] = (label, curve, hypers)

    return _assemble(n, region, raw, epsilon=0.5, delta=1e-4,
                     metadata={"template": "wandering_shared",
                               "params": {"N": N, "seed": int(p["seed"]),
                                          "mutate": mutate}})


def _gen_degenerate_position(params: dict) -> Scene:
    p = _check_params(params, {"t": 0.01, "seed": 0,
                               "grid_nx": 41, "grid_ny": 41},
                      "degenerate_position")
    t = complex(p["t"])
    region = _template_region(p)
    one = ComplexPoly.one()
    curve = ProjCurve([one, ComplexPoly([0.0, 1.0])])
    h3 = MovingHyperplane([ComplexPoly([-t, 1.0]), one])
    raw = [("m0", curve,
            [_fixed(1.0, 0.0), _fixed(0.0, 1.0), h3])]
    return _assemble(1, region, raw, epsilon=0.5, delta=0.05,
                     metadata={"template": "degenerate_position",
                               "params": {"t": [t.real, t.imag],
                                          "seed": int(p["seed"])}})


_GENERATORS = {
    "montel_omitting": _gen_montel_omitting,
    "blowup_linear": _gen_blowup_linear,
    "wandering_shared": _gen_wandering_shared,
    "degenerate_position": _gen_degenerate_position,
}


def generate_scene(template: str, params: dict | None = None) -> Scene:
    """Build a deterministic scene from a named template."""
    if template not in _GENERATORS:
        raise UnknownTemplate(
            f"unknown template {template!r}; available: {TEMPLATES}")
    return _GENERATORS[template](dict(params or {}))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def _c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _write_csv(csv_dir: str, name: str, header: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    os.makedirs(csv_dir, exist_ok=True)
    with open(os.path.join(csv_dir, name), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in row])


def _stage_position(scene: Scene, csv_dir: str | None) -> tuple[dict, int]:
    per = []
    rows = []
    pts = scene.region.grid_points()
    for m in scene.members:
        ud, ref, vals = position_sweep(m.hyperplanes, scene.region,
                                       scene.config.delta)
        per.append({"label": m.label, "min": ud.value,
                    "argmin": _c(ud.argmin), "refinement": ref})
        if csv_dir is not None:
            rows.extend((m.label, float(z.real), float(z.imag), float(v))
                        for z, v in zip(pts, vals))
    worst = min(per, key=lambda e: e["min"])
    verdict = worst["min"] > scene.config.delta
    if csv_dir is not None:
        _write_csv(csv_dir, "position.csv", ("label", "x", "y", "D"), rows)
    result = {"per_member": per, "min": worst["min"],
              "argmin": worst["argmin"], "delta": scene.config.delta,
              "verdict": verdict}
    return result, 0 if verdict else 2


def _stage_check(scene: Scene, csv_dir: str | None) -> tuple[dict, int]:
    report = hypotheses_check(scene.members, scene.config)
    return report.to_json(), 0 if report.overall else 2


def _stage_normality(scene: Scene, csv_dir: str | None) -> tuple[dict, int]:
    stats = marty_sup([m.curve for m in scene.members], scene.region,
                      thresholds=scene.config.marty)
    if csv_dir is not None:
        _write_csv(csv_dir, "normality.csv", ("member_index", "sup"),
                   [(i, s) for i, s in enumerate(stats.sups)])
    result = stats.to_json()
    result["empirical"] = True
    return result, 0 if stats.verdict == "bounded" else 2


def _stage_zalcman(scene: Scene, csv_dir: str | None) -> tuple[dict, int]:
    trace = zalcman_search([m.curve for m in scene.members], scene.region,
                           thresholds=scene.config.marty)
    if csv_dir is not None:
        prev = trace.rescaled[-2].at_many(trace.zeta_points)
        dists = pairwise_fs_grid(prev, trace.limit_candidate)
        _write_csv(csv_dir, "zalcman.csv",
                   ("zeta_x", "zeta_y", "fs_distance_to_limit"),
                   [(float(z.real), float(z.imag), float(d))
                    for z, d in zip(trace.zeta_points, dists)])
    return trace.to_json(), 0


_STAGE_RUNNERS = {
    "position": _stage_position,
    "check": _stage_check,
    "normality": _stage_normality,
    "zalcman": _stage_zalcman,
}


def run_pipeline(scene: Scene, which: Sequence[str] = STAGES,
                 csv_dir: str | None = None) -> tuple[dict, int]:
    """Run the requested stages and merge their results into one report.

    Stage errors are captured per stage so independent stages still run.
    Returns (report, exit_code): 0 when every stage's verdict holds, 2 when
    some check fails, 3 on degenerate scenes.
    """
    requested = set(which)
    unknown = requested - set(STAGES)
    if unknown:
        raise BadParams(f"unknown stages: {sorted(unknown)}")
    to_run = set(requested)
    if "zalcman" in to_run:
        # The rescaling trace presupposes a blow-up verdict, so the report
        # always carries the classification alongside it.  Only verdicts of
        # stages the caller asked for decide the exit code.
        to_run.add("normality")
    stages: dict = {}
    codes = [0]
    for stage in STAGES:
        if stage not in to_run:
            continue
        try:
            result, code = _STAGE_RUNNERS[stage](scene, csv_dir)
        except ProjcurveError as exc:
            stages[stage] = {"error": {"type": type(exc).__name__,
                                       "message": str(exc)}}
            if stage in requested:
                codes.append(3 if isinstance(exc, DEGENERATE_ERRORS) else 2)
            continue
        stages[stage] = result
        if stage in requested:
            codes.append(code)
    exit_code = max(codes)
    report = {
        "schema_version": SCHEMA_VERSION,
        "scene": {
            "n": scene.n,
            "region": scene.region.to_json(),
            "config": {"epsilon": scene.config.epsilon,
                       "delta": scene.config.delta,
                       "tau_match": scene.config.match_tolerance,
                       "tau_root": scene.config.tau_root},
            "member_labels": [m.label for m in scene.members],
            "metadata": scene.metadata,
        },
        "stages": stages,
        "exit_code": exit_code,
    }
    return report, exit_code
