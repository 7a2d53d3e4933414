"""Known-answer benchmark of the projcurve CLI stages.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def _environment(threads: str, seed: int) -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    numba = ("present" if importlib.util.find_spec("numba") is not None
             else "absent")
    return (f"environment: python {platform.python_version()}, numpy "
            f"{np.__version__}, blas {blas} capped at {threads} threads, "
            f"nproc {len(os.sched_getaffinity(0))}, numba {numba}, "
            f"seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "projcurve", "__init__.py")):
        print(f"error: no projcurve sources under {SRC}", file=sys.stderr)
        return 2
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    whys = {w["name"]: w["why"] for w in manifest["workloads"]}
    declared = {m["name"]: m["unit"] for m in
                manifest["per_layer" if args.trace else "end_to_end"]}
    # The BLAS thread pool starts when numpy is imported, so cap it first.
    threads = str(len(os.sched_getaffinity(0)))
    os.environ["OPENBLAS_NUM_THREADS"] = threads
    os.environ["OMP_NUM_THREADS"] = threads
    sys.path.insert(0, SRC)

    from bench import run_workload
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS or args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(whys)}", file=sys.stderr)
        return 2

    print(_environment(threads, args.seed))
    result, lines = run_workload(ROOT, args.workload, whys[args.workload],
                                 args.seed, args.seconds, bool(args.trace),
                                 list(declared))
    for line in lines:
        print(line)
    values = result["metrics"]
    if set(values) != set(declared):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(declared))}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": values[k], "unit": declared[k]}
                         for k in sorted(values)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
