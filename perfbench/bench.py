"""Measurement loop: set-up, repetitions, known-answer checks, metrics.

One repetition runs every operation of the workload once, in a closed loop
from this single process:

- one ``projcurve <stage> SCENE -o FILE`` call per scene and stage, through
  ``projcurve.cli.main``;
- one ``run_pipeline(load_scene(p), which=<workload stages>)`` per scene;
- one ``derived_map`` call per planted member.

Every operation is checked against its known answer and its output bytes
against the first repetition's.  A failed operation raised, broke a known
answer, or changed bytes.  Timings are medians over repetitions of the
per-repetition sums, scaled to the reference speed of ``calibrate``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import time
import warnings
from collections import Counter

from projcurve import cli, derived, harness
from calibrate import REFERENCE_S, calibrate
from tracer import Tracer, install_targets
from workloads import WORKLOADS, Expect

MIN_REPS = 3


def _lookup(report, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return _MISSING
        node = node[key]
    return node


_MISSING = object()


def check_facts(expect: Expect, code, report) -> list[str]:
    """Names of the expected facts the result breaks."""
    bad = [] if code in expect.exits else ["exit"]
    return bad + [path for path, want in expect.facts.items()
                  if _lookup(report, path) != want]


def selftest(expect: Expect, code, report) -> None:
    """A deliberately wrong expectation must be counted as a failure."""
    wrong_exits = frozenset(range(5)) - {code}
    facts = dict(expect.facts)
    for path in facts:
        facts[path] = _MISSING
    bad = check_facts(Expect(wrong_exits, facts), code, report)
    if bad != ["exit"] + list(facts):
        raise SystemExit(f"fact checker self-test failed: {bad}")


def _stats(xs: list[float]) -> str:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it."""
    n = len(xs)
    out = f"median {statistics.median(xs):.6g}, n={n}"
    if n > 10:
        q = math.floor(100 * (n - 10) / n)
        out += f", p{q} {sorted(xs)[math.ceil(q * n / 100) - 1]:.6g}"
    return out


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.w = WORKLOADS[workload]
        self.workdir = workdir
        self.cases = self.w.cases(seed)
        self.tracer = Tracer()
        install_targets(self.tracer)
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()
        self.setup_warnings = 0

    def path(self, case) -> str:
        return os.path.join(self.workdir, f"{case.label}.json")

    # -- set-up ----------------------------------------------------------

    def setup_round(self) -> float:
        t0 = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for case in self.cases:
                harness.save_scene(case.build(), self.path(case))
        dt = time.perf_counter() - t0
        self.setup_warnings += len(caught)
        return dt

    def build_ops(self) -> list[tuple]:
        ops = []
        for case in self.cases:
            for stage in self.w.stages:
                ops.append(("cli", case, stage, case.expect[stage]))
            ops.append(("pipeline", case, None, self.w.pipeline_expect(case)))
            if case.derived:
                members = {m.label: m.curve for m in
                           harness.load_scene(self.path(case)).members}
                ops.extend(("derived", case, (label, members[label]), deg)
                           for label, deg in case.derived)
        return ops

    # -- one operation ---------------------------------------------------

    def _call(self, kind, case, arg, expect):
        """Run one operation; return (seconds, code, report, output bytes)."""
        if kind == "cli":
            out = os.path.join(self.workdir, f"{case.label}.{arg}.out")
            if os.path.exists(out):
                os.remove(out)
            t0 = time.perf_counter()
            code = cli.main([arg, self.path(case), "-o", out])
            dt = time.perf_counter() - t0
            data = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    data = fh.read()
            report = json.loads(data) if data else None
            return dt, code, report, data
        if kind == "pipeline":
            t0 = time.perf_counter()
            report, code = harness.run_pipeline(
                harness.load_scene(self.path(case)), which=self.w.stages)
            dt = time.perf_counter() - t0
            data = json.dumps(report, sort_keys=True, indent=2).encode()
            return dt, code, report, data
        label, curve = arg
        t0 = time.perf_counter()
        nabla = derived.derived_map(curve)
        dt = time.perf_counter() - t0
        data = b"".join(p.coeffs.tobytes() for p in nabla.components)
        return dt, nabla.degree, None, data

    def run_op(self, op, rep: dict, traced: bool) -> tuple:
        kind, case, arg, expect = op
        name = kind if kind != "cli" else f"cli.{arg}"
        label = case.label if kind != "derived" else arg[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                if traced:
                    with self.tracer.op(f"op.{name}"):
                        dt, code, report, data = self._call(*op)
                else:
                    dt, code, report, data = self._call(*op)
            except Exception as exc:  # an operation that raises has failed
                dt, code, report, data = 0.0, None, None, None
                bad = [f"raised {type(exc).__name__}: {exc}"]
            else:
                if kind == "derived":
                    bad = [] if code == expect else ["derived_degree"]
                    rep["derived.derived_map.degree_errors"] += bool(bad)
                else:
                    bad = check_facts(expect, code, report)
        key = (label, name)
        if data is not None:
            if key not in self.reference:
                self.reference[key] = data
            elif self.reference[key] != data:
                bad.append("bytes differ from the first repetition")
        rep["harness.fp_warnings"] += len(caught)
        if kind == "cli":
            rep[f"{arg}_s"] += dt
            rep["cli_s"] += dt
            rep["cli.report_bytes"] += len(data or b"")
        elif kind == "pipeline":
            rep["pipeline_s"] += dt
        self.attempted += 1
        if bad:
            self.failed += 1
            for fact in bad:
                self.failures[(label, name, fact)] += 1
        return code, report

    def repetition(self, ops, traced: bool) -> tuple[Counter, list]:
        rep: Counter = Counter()
        reports = []
        for op in ops:
            code, report = self.run_op(op, rep, traced)
            reports.append((op, code, report))
        rep["normality.sup_rel_err_max"] = self._sup_error(reports)
        return rep, reports

    def _sup_error(self, reports) -> float:
        worst = 0.0
        for (kind, case, arg, _), _, report in reports:
            if case.sup_target is None or kind != "cli" or arg != "normality":
                continue
            sups = _lookup(report, "stages.normality.sups")
            if sups is _MISSING:
                continue
            for i, s in enumerate(sups):
                target = case.sup_target(i)
                worst = max(worst, abs(s - target) / target)
        return worst

    # -- the run ---------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        self.setup_round()  # writes the scene files; cold, so not a sample
        ops = self.build_ops()
        _, warm = self.repetition(ops, traced=False)
        op, code, report = next(r for r in warm if r[0][0] == "cli")
        selftest(op[3], code, report)

        setup: list[float] = []
        plain: list[Counter] = []
        traced: list[tuple] = []
        gen_total = None
        if trace:
            self.tracer.reset()
            with self.tracer.installed(), self.tracer.op("op.setup"):
                self.setup_round()
            _, total_s, _, _ = self.tracer.summary()
            gen_total = total_s.get("harness.generate_scene", 0.0)
        before = calibrate()
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(plain) < MIN_REPS):
            # Set-up rounds are spread over the run, like the repetitions,
            # so that both sample the same spells of machine speed.
            setup_s = self.setup_round()
            rep, _ = self.repetition(ops, traced=False)
            after = calibrate()
            rep["scale"] = REFERENCE_S * 2.0 / (before + after)
            setup.append(setup_s * rep["scale"])
            plain.append(rep)
            before = after
            if trace:
                self.tracer.reset()
                with self.tracer.installed():
                    rep, _ = self.repetition(ops, traced=True)
                after = calibrate()
                rep["scale"] = REFERENCE_S * 2.0 / (before + after)
                traced.append((rep, self.tracer.summary(),
                               self.tracer.counts,
                               len(self.tracer.preimage_keys)))
                before = after
        return {"setup": setup, "plain": plain, "traced": traced,
                "generate_total_s": gen_total,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _median(reps, key) -> float:
    """Median of a time over repetitions, at the reference speed."""
    return statistics.median(r[key] * r["scale"] for r in reps)


def end_to_end(res: dict) -> dict:
    plain = res["plain"]
    return {"cli_s": _median(plain, "cli_s"),
            "pipeline_s": _median(plain, "pipeline_s"),
            "setup_s": statistics.median(res["setup"]),
            "peak_rss_mb": res["peak_rss_mb"]}


def _layer_row(rep: Counter, summary: tuple, counts: Counter,
               distinct: int, names) -> dict:
    """Per-layer metrics of one traced repetition.

    ``<span>.calls``, ``<span>.self_s`` and ``<span>.total_s`` come from the
    spans; every other name is a work counter of the tracer or of the
    repetition itself.
    """
    self_s, total_s, calls, _ = summary
    counts = counts + rep
    reduced = calls["projective.reduce_tuple"]
    counts["projective.reduce_tuple.useful_ratio"] = (
        counts["projective.reduce_tuple.useful"] / reduced if reduced else 0.0)
    counts["sharing.preimage_zeros.repeat_ratio"] = (
        calls["sharing.preimage_zeros"] / distinct if distinct else 0.0)
    by_kind = {"calls": calls, "self_s": self_s, "total_s": total_s}
    row = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        row[name] = (by_kind[kind][span] if kind in by_kind
                     else counts[name])
        if kind.endswith("_s"):
            row[name] *= rep["scale"]
    return row


def per_layer(res: dict, stages, names) -> tuple[dict, dict]:
    """Medians over traced repetitions, plus the metrics taken from the
    untraced repetitions and the traced set-up round."""
    plain = res["plain"]
    stage_names = {f"cli.{s}_s" for s in
                   ("position", "check", "normality", "zalcman")}
    special = stage_names | {"trace.overhead_frac",
                             "harness.generate_scene.total_s"}
    rows = [_layer_row(rep, summary, counts, distinct,
                       [n for n in names if n not in special])
            for rep, summary, counts, distinct in res["traced"]]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    for name in stage_names:
        stage = name[len("cli."):-len("_s")]
        out[name] = _median(plain, f"{stage}_s") if stage in stages else 0.0
    traced_s = statistics.median(
        (rep["cli_s"] + rep["pipeline_s"]) * rep["scale"]
        for rep, _, _, _ in res["traced"])
    out["trace.overhead_frac"] = traced_s / (
        _median(plain, "cli_s") + _median(plain, "pipeline_s")) - 1.0
    out["harness.generate_scene.total_s"] = res["generate_total_s"]
    shares = [_shares(summary[3]) for _, summary, _, _ in res["traced"]]
    return out, {k: statistics.median(s[k] for s in shares)
                 for k in shares[0]}


def _shares(ops: dict) -> dict:
    """Shares of traced operation time that state each workload's purpose."""
    def ratio(part, whole):
        return part / whole if whole else 0.0

    cli = [v for k, v in ops.items() if k.startswith("op.cli.")]
    both = cli + [v for k, v in ops.items() if k == "op.pipeline"]
    check = ops.get("op.cli.check", (0.0, Counter(), Counter()))
    return {
        "detprod_grid / CLI time": ratio(
            sum(v[1]["kernels.detprod_grid"] for v in cli),
            sum(v[0] for v in cli)),
        "roots+sharing+derived+projective self / check CLI time": ratio(
            sum(check[2][layer] for layer in
                ("polynomial", "sharing", "derived", "projective")),
            check[0]),
        "fs_derivative_grid + load_scene / CLI and pipeline time":
            ratio(sum(v[1]["kernels.fs_derivative_grid"]
                      + v[1]["harness.load_scene"] for v in both),
                  sum(v[0] for v in both)),
    }


def layer_self_times(res: dict) -> dict:
    """Median per-repetition self time summed by layer (first name part)."""
    rows = []
    for rep, (self_s, _, _, _), _, _ in res["traced"]:
        row: Counter = Counter()
        for name, v in self_s.items():
            row[name.split(".")[0]] += v * rep["scale"]
        rows.append(row)
    layers = sorted(set().union(*rows)) if rows else []
    return {k: statistics.median(r[k] for r in rows) for k in layers}


def run_workload(root: str, workload: str, why: str, seed: int,
                 seconds: float, trace: bool, names
                 ) -> tuple[dict, list[str]]:
    """Run one workload; return the result fields, with metric values
    still without units, and the report lines."""
    workdir = os.path.join(root, ".perfbench_work",
                           f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(workload, seed, workdir)
        res = runner.run(seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(os.path.dirname(workdir))
    w = runner.w
    lines = [f"workload {w.name}: {why}",
             f"stages {', '.join(w.stages)}; scenes "
             f"{', '.join(c.label for c in runner.cases)}"]
    plain = res["plain"]
    speed = statistics.median(r["scale"] for r in plain)
    lines.append(f"times below are at the reference speed; this machine ran "
                 f"at {speed:.3f} of it (median over repetitions)")
    lines.append(f"setup_s: {_stats(res['setup'])} s "
                 f"({runner.setup_warnings} fp warnings captured)")
    for key in ("cli_s", "pipeline_s") + tuple(f"{s}_s" for s in w.stages):
        raw = statistics.median(r[key] for r in plain)
        lines.append(f"{key}: {_stats([r[key] * r['scale'] for r in plain])}"
                     f" s (as measured: median {raw:.6g} s)")
    lines.append(f"peak_rss_mb: {res['peak_rss_mb']:.1f} MB")
    lines.append(f"failed_frac: {runner.failed / runner.attempted:.4f} "
                 f"({runner.failed} of {runner.attempted} operations)")
    unknown = 0
    for (label, op, fact), count in sorted(runner.failures.items()):
        known = w.known.get((label, fact))
        unknown += known is None
        lines.append(f"  failure x{count}: {label} {op} {fact} -- "
                     f"{known or 'NOT A KNOWN DEFECT'}")
    if trace:
        metrics, shares = per_layer(res, w.stages, names)
        for k, v in shares.items():
            lines.append(f"share {k}: {v:.3f}")
        for k, v in layer_self_times(res).items():
            lines.append(f"layer self time {k}: {v:.6g} s per repetition")
        if runner.tracer.missing:
            lines.append("not traced (absent): "
                         + ", ".join(runner.tracer.missing))
    else:
        metrics = end_to_end(res)
    result = {"correct": unknown == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": metrics}
    return result, lines
