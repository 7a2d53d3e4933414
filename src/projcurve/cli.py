"""Command line front end.

Subcommands:
  gen        build a scene file from a named template
  position   general-position sweep over the scene region
  check      sharing and pairing hypotheses for every member
  normality  empirical boundedness of the spherical derivative
  zalcman    rescaling trace at the blow-up member

Exit codes: 0 all requested checks hold, 2 some check fails, 3 the scene is
degenerate or malformed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .errors import ProjcurveError, ValidationError
from .harness import (TEMPLATES, generate_scene, json_text, load_scene,
                      rebuild_scene, run_pipeline, scene_text)


def _add_run_parser(sub, name: str, help_text: str) -> None:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("scene", help="path to a scene JSON file")
    p.add_argument("-o", "--output", default=None,
                   help="write the report here instead of stdout")
    p.add_argument("--csv", default=None, metavar="DIR",
                   help="also write per-point CSV tables into DIR")
    p.add_argument("--grid", nargs=2, type=int, metavar=("NX", "NY"),
                   help="override the region grid resolution")
    p.add_argument("--epsilon", type=float, default=None,
                   help="override the lower-bound constant")
    p.add_argument("--delta", type=float, default=None,
                   help="override the general-position threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projcurve",
        description="checks for families of polynomial projective curves")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a scene from a template")
    gen.add_argument("template", metavar="template",
                     help=f"one of: {', '.join(TEMPLATES)}")
    gen.add_argument("--params", default=None,
                     help="inline JSON object with template parameters")
    gen.add_argument("--seed", type=int, default=None,
                     help="random seed (templates that draw samples)")
    gen.add_argument("--grid", nargs=2, type=int, metavar=("NX", "NY"),
                     help="grid resolution for the scene region")
    gen.add_argument("-o", "--output", default=None,
                     help="write the scene here instead of stdout")

    _add_run_parser(sub, "position",
                    "evaluate the general-position measure over the region")
    _add_run_parser(sub, "check",
                    "verify sharing and pairing hypotheses for all members")
    _add_run_parser(sub, "normality",
                    "classify the family by its spherical-derivative sups")
    _add_run_parser(sub, "zalcman",
                    "rescale at the blow-up member and trace convergence")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process; each ``parse_args``
    returns a new namespace, so no call sees another's options."""
    return build_parser()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    params = {}
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            print(f"error: --params is not valid JSON: {exc}",
                  file=sys.stderr)
            return 3
        if not isinstance(params, dict):
            print("error: --params must be a JSON object", file=sys.stderr)
            return 3
    if args.seed is not None:
        params["seed"] = args.seed
    if args.grid is not None:
        params["grid_nx"], params["grid_ny"] = args.grid
    _emit(scene_text(generate_scene(args.template, params)), args.output)
    return 0


def _cmd_run(args) -> int:
    if args.delta is not None and not math.isfinite(args.delta):
        raise ValidationError(f"must be finite, got {args.delta}",
                              path="--delta")
    scene = rebuild_scene(load_scene(args.scene, grid=args.grid),
                          epsilon=args.epsilon, delta=args.delta)
    report, code = run_pipeline(scene, which=(args.command,),
                                csv_dir=args.csv)
    _emit(json_text(report), args.output)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_run(args)
    except ProjcurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
