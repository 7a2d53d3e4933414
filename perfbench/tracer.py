"""Outside-in spans around the calls into projcurve's layers.

The tracer wraps functions at the binding their caller looks up: a module
that did ``from x import y`` holds its own copy of ``y``, so each such copy
is wrapped under the name of the function's home module.  Wrappers exist
only inside ``Tracer.installed()``; untraced runs call projcurve unchanged.

Each span is ``[name, start, end, parent index, op id]``.  A span's self
time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

from projcurve import (_kernels, cli, derived, harness, normality, polynomial,
                       position, projective, sharing)


def _detprod_counts(counts, args, kwargs, out) -> None:
    coeffs, pts, subsets = args[:3]
    dets = pts.shape[0] * subsets.shape[0]
    side = coeffs.shape[1]
    counts["kernels.detprod_grid.dets"] += dets
    # Bytes of the complex (n+1)x(n+1) matrices whose determinants are taken.
    counts["kernels.detprod_grid.bytes_computed"] += dets * side * side * 16


def _fs_points(counts, args, kwargs, out) -> None:
    counts["kernels.fs_derivative_grid.points"] += args[2].shape[0]


def _roots_counts(counts, args, kwargs, out) -> None:
    degree = args[0].degree
    if degree >= 1:
        counts["polynomial.roots.degree_sum"] += degree
        counts["polynomial.roots.multiplicity_merged"] += degree - len(out)


def _gcd_counts(counts, args, kwargs, out) -> None:
    counts["polynomial.gcd_approx.nontrivial"] += out.degree > 0


def _reduce_counts(counts, args, kwargs, out) -> None:
    before = max(p.degree for p in args[0])
    after = max(p.degree for p in out)
    counts["projective.reduce_tuple.useful"] += after < before


def _coeff_key(obj) -> tuple:
    polys = getattr(obj, "components", None) or obj.coeffs
    return tuple(p.coeffs.tobytes() for p in polys)


class Tracer:
    """Records spans and work counters for one repetition at a time."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.preimage_keys: set = set()
        self._stack: list[int] = []
        self._op = -1
        self._targets: list[tuple] = []
        self.missing: list[str] = []

    def target(self, owner, attr: str, name: str, hook=None) -> None:
        """Register ``owner.attr`` for wrapping as span ``name``."""
        if attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._targets.append((owner, attr, name, hook))

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.preimage_keys = set()

    def _wrap(self, fn, name: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out
        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation."""
        self._op += 1
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def note_preimage(self, counts, args, kwargs, out) -> None:
        self.preimage_keys.add(
            (self._op, _coeff_key(args[0]), _coeff_key(args[1])))

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in self._targets]
        try:
            for owner, attr, name, hook in self._targets:
                setattr(owner, attr, self._wrap(vars(owner)[attr], name, hook))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def summary(self) -> tuple[dict, dict, Counter, dict]:
        """Per span name: summed self time, summed duration and call count;
        and per operation name: its summed duration, the summed durations
        of the spans inside it and their self time summed by layer."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        calls: Counter = Counter()
        op_name: dict = {}
        ops: dict = defaultdict(lambda: [0.0, Counter(), Counter()])
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            own = t1 - t0 - child[i]
            self_s[name] += own
            total_s[name] += t1 - t0
            calls[name] += 1
            if parent < 0:
                op_name[op] = name
                ops[name][0] += t1 - t0
            else:
                entry = ops[op_name[op]]
                entry[1][name] += t1 - t0
                entry[2][name.split(".")[0]] += own
        return self_s, total_s, calls, dict(ops)


def install_targets(tracer: Tracer) -> None:
    """Wrap the public functions of every projcurve layer the benchmark
    measures, at each binding a caller looks up."""
    t = tracer.target
    t(cli, "main", "cli.main")
    for owner in (cli, harness):
        t(owner, "load_scene", "harness.load_scene")
        t(owner, "run_pipeline", "harness.run_pipeline")
    t(harness, "generate_scene", "harness.generate_scene")
    for owner in (harness, position, sharing):
        t(owner, "uniform_delta", "position.uniform_delta")
    t(harness, "refinement_check", "position.refinement_check")
    for owner in (harness, sharing, normality):
        t(owner, "marty_sup", "normality.marty_sup")
    t(harness, "zalcman_search", "normality.zalcman_search")
    t(harness, "hypotheses_check", "sharing.hypotheses_check")
    t(position, "detprod_grid", "kernels.detprod_grid", _detprod_counts)
    t(position.Region, "grid_points", "position.grid_points")
    t(_kernels, "polyval_grid_numpy", "kernels.polyval_grid")
    t(normality, "fs_derivative_grid", "kernels.fs_derivative_grid",
      _fs_points)
    t(normality, "pairwise_fs_grid", "kernels.pairwise_fs_grid")
    for owner in (sharing, derived):
        t(owner, "derived_map", "derived.derived_map")
    t(derived, "reduce_tuple", "projective.reduce_tuple", _reduce_counts)
    t(projective, "gcd_approx", "polynomial.gcd_approx", _gcd_counts)
    t(polynomial.ComplexPoly, "roots", "polynomial.roots", _roots_counts)
    t(sharing, "pair", "projective.pair")
    t(sharing, "preimage_zeros", "sharing.preimage_zeros",
      tracer.note_preimage)
    t(sharing, "match_point_sets", "sharing.match_point_sets")
