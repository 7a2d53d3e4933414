"""Scene files, scene generators, and pipeline orchestration.

A scene is a declarative JSON document: a dimension, a rectangular region
with a grid, a checker configuration, and an explicit list of members (curve
plus its 2n+1 hyperplanes).  Generators compute a scene's coefficient
array in code and validate it with the loader's own last pass, so a
generated scene is the scene its file loads as; the file format stays free
of any expression language.

The pipeline runs the requested stages in dependency order and merges their
results into a single versioned report.  Reports are deterministic: no
timestamps, sorted keys, and every number derived from scene data alone.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import config
from .errors import (BadParams, ParseError, ProjcurveError, UnknownTemplate,
                     ValidationError, WrongCount)
from .normality import marty_sup, zalcman_search
from .polynomial import ComplexPoly
from .position import Region, position_sweep, position_sweeps
from .projective import (MovingHyperplane, ProjCurve, first_common_zero,
                         normalized_many, tuple_error)
from .sharing import CheckConfig, FamilyMember, hypotheses_check

SCHEMA_VERSION = 1

STAGES = ("position", "check", "normality", "zalcman")

TEMPLATES = ("montel_omitting", "blowup_linear", "wandering_shared",
             "degenerate_position")

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


def _is_number(value, kinds: type | tuple = (int, float)) -> bool:
    """Whether ``value`` is a number of ``kinds``.  JSON ``true`` and
    ``false`` load as ``bool``, a subclass of ``int``, and are no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _coefficients_from_json(polys: list[list], where) -> np.ndarray:
    """The coefficient lists ``polys`` as the rows of one zero-padded
    complex array, checked and converted in one array pass over all of
    them.

    Each entry must be an ``[re, im]`` pair of JSON numbers (not
    ``true``/``false``) with ``abs(v) <= sys.float_info.max``, compared
    exactly, so NaN, the infinities and integers beyond double range fail,
    and with a finite modulus ``hypot(re, im)``.  A scene of plain JSON
    lists, floats and integers whose moduli are below that bound passes on
    the sets of their types, one float64 cast and one modulus; any other
    goes through ``_checked_values``, whose masks find the first bad
    entry, in order, at ``where(k)[i]`` for entry i of ``polys[k]``.
    """
    sizes = np.fromiter(map(len, polys), np.intp, len(polys))
    items = list(itertools.chain.from_iterable(polys))
    values = None
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {2}:
        flat = list(itertools.chain.from_iterable(items))
        if set(map(type, flat)) <= {float, int}:
            try:
                values = np.array(flat, dtype=np.float64)
            except OverflowError:  # an integer beyond double range
                pass
        # NaN, the infinities, an integer that the cast rounded down onto
        # the largest double and a modulus that overflows fail here and
        # take the exact path.
        if values is not None:
            with np.errstate(over="ignore"):
                top = np.abs(values.view(np.complex128)).max(initial=0.0)
            if not top < sys.float_info.max:
                values = None
    if values is None:
        values = _checked_values(items, sizes, where)
    stack = np.zeros((len(polys), int(sizes.max(initial=1))),
                     dtype=np.complex128)
    stack[np.arange(stack.shape[1]) < sizes[:, None]] = values.view(
        np.complex128)
    return stack


def _checked_values(items: list, sizes: np.ndarray, where) -> np.ndarray:
    """The float64 values of the coefficient entries ``items`` (entry i of
    polynomial k counted from ``sizes``), or the ValidationError of the
    first that is not a pair of numbers, not finite or of a modulus that
    is not finite."""
    repeat, compress = itertools.repeat, itertools.compress
    pair = np.fromiter(map(isinstance, items, repeat(list)), bool, len(items))
    pair[pair] = np.fromiter(map(len, compress(items, pair)), np.intp) == 2
    values = list(itertools.chain.from_iterable(compress(items, pair)))
    number = np.fromiter(map(_is_number, values), bool, len(values))
    finite = np.zeros(len(values), dtype=bool)
    finite[number] = np.fromiter(map(sys.float_info.max.__ge__,
                                     map(abs, compress(values, number))),
                                 bool)
    parts = np.zeros(len(values))
    parts[finite] = list(compress(values, finite))
    good = pair.copy()
    good[pair] = number.reshape(-1, 2).all(axis=1)
    ok = pair.copy()  # finite implies a number
    ok[pair] = finite.reshape(-1, 2).all(axis=1)
    fits = ok.copy()
    with np.errstate(over="ignore"):
        fits[pair] &= np.isfinite(np.abs(parts.view(np.complex128)))
    if fits.all():
        return parts
    at = int(np.argmin(fits))
    k = int(np.searchsorted(np.cumsum(sizes), at, side="right"))
    path = f"{where(k)}[{at - int(sizes[:k].sum())}]"
    raise ValidationError(
        "coefficient must be a [re, im] pair" if not good[at] else
        f"coefficient must be finite, got {items[at]}" if not ok[at] else
        f"coefficient modulus must be finite, got {items[at]}", path=path)


# What a curve and a hyperplane object hold: the key of their n+1
# polynomials, and the messages of a wrong dimension and a wrong count.
_TUPLES = {
    "curve": ("components", "curve dimension {} does not match scene n={}",
              "curve needs n+1 = {} components"),
    "hyperplane": ("coeffs", "hyperplane dimension {} does not match n={}",
                   "hyperplane needs n+1 = {} coefficients"),
}


def _tuple_from_json(data, n: int, kind: str, path) -> list:
    """The n+1 coefficient lists of the curve or hyperplane object
    ``data``; ``path()`` is its path, formatted only for a defect."""
    key, dimension, count = _TUPLES[kind]
    polys = data.get(key) if isinstance(data, dict) else None
    if (isinstance(polys, list) and len(polys) == n + 1
            and _is_number(data.get("n"), int) and data["n"] == n
            and all(map(isinstance, polys, itertools.repeat(list)))):
        return polys
    path = path()
    _expect(isinstance(data, dict), f"{kind} must be an object", path)
    _expect(_is_number(data.get("n"), int) and data["n"] == n,
            dimension.format(data.get("n"), n), f"{path}.n")
    _expect(isinstance(polys, list) and len(polys) == n + 1,
            count.format(n + 1), f"{path}.{key}")
    k = next(k for k, p in enumerate(polys) if not isinstance(p, list))
    raise ValidationError("polynomial must be a list of [re, im]",
                          path=f"{path}.{key}[{k}]")


def _region_from_json(data, path: str) -> Region:
    _expect(isinstance(data, dict), "region must be an object", path)
    for key in ("x_min", "x_max", "y_min", "y_max"):
        _expect(_is_number(data.get(key)),
                f"region needs numeric {key}", f"{path}.{key}")
    for key in ("grid_nx", "grid_ny"):
        _expect(_is_number(data.get(key), int),
                f"region needs integer {key}", f"{path}.{key}")
    try:
        return Region.from_json(data)
    except (ValueError, OverflowError) as exc:  # an int beyond double range
        raise ValidationError(str(exc), path=path) from exc


def scene_from_json(data: dict, grid: tuple[int, int] | None = None) -> Scene:
    """Validated scene from its JSON document, in three passes.

    1. Structure: one walk over the document, in order, checks its objects,
       labels, dimensions and counts, and collects every coefficient list.
       ``grid`` (NX, NY), the CLI's ``--grid``, replaces the document's grid
       resolution here, before any hyperplane is normalized against it.
    2. Values: ``_coefficients_from_json`` checks and converts every
       coefficient of the scene at once.
    3. Invariants: ``_validated_members`` of the scene's coefficient
       array, the pass that the templates take too.  Hyperplanes with the
       same parsed values (so ``1`` and ``1.0`` agree) become one object,
       normalized once, and one ``first_common_zero`` call tests every
       hyperplane and curve.  It solves the first entry of lowest degree
       of each tuple (a curve's f_0 when its components have one degree,
       kept for the derived map) and solves the other entries only of a
       tuple whose roots they do not clear.

    The first defect fails with its JSON path: a structure defect before
    any value, a value before any hyperplane invariant, and a hyperplane
    (at its first occurrence) before any curve.
    """
    _expect(isinstance(data, dict), "scene must be a JSON object", "$")
    version = data.get("schema_version", SCHEMA_VERSION)
    _expect(_is_number(version, int) and version == SCHEMA_VERSION,
            f"unsupported schema_version {version}", "$.schema_version")
    _expect(_is_number(data.get("n"), int) and data["n"] >= 1,
            "n must be an integer >= 1", "$.n")
    n = data["n"]
    region = _region_from_json(data.get("region"), "$.region")
    if grid is not None:
        try:
            region = Region(region.x_min, region.x_max, region.y_min,
                            region.y_max, grid[0], grid[1])
        except ValueError as exc:
            raise ValidationError(str(exc), path="--grid") from exc

    cfg_data = data.get("config")
    _expect(isinstance(cfg_data, dict), "config must be an object", "$.config")
    for key in ("epsilon", "delta"):
        _expect(_is_number(cfg_data.get(key)),
                f"config needs numeric {key}", f"$.config.{key}")
    # Older scene files carry the match and root tolerances, which are now
    # constants.  Only the values those files always held load, so no file
    # silently changes meaning.
    for key, fixed in (("tau_match", None), ("tau_root", config.TAU_ROOT)):
        _expect(cfg_data.get(key, fixed) == fixed,
                f"{key} is not a setting; a scene may only give "
                f"{json.dumps(fixed)}", f"$.config.{key}")
    try:
        cfg = CheckConfig(region=region, epsilon=float(cfg_data["epsilon"]),
                          delta=float(cfg_data["delta"]))
    except (ValidationError, OverflowError) as exc:
        raise ValidationError(str(exc), path="$.config") from exc

    members_data = data.get("members")
    _expect(isinstance(members_data, list), "members must be a list",
            "$.members")
    expected = 2 * n + 1
    labels: dict[str, None] = {}
    # Member i's curve components, then its hyperplanes' coefficients.
    polys = []
    for i, mdata in enumerate(members_data):
        mpath = f"$.members[{i}]"
        _expect(isinstance(mdata, dict), "member must be an object", mpath)
        label = mdata.get("label")
        _expect(isinstance(label, str) and label, "member needs a label",
                f"{mpath}.label")
        _expect(label not in labels, f"duplicate label {label!r}",
                f"{mpath}.label")
        labels[label] = None
        polys.extend(_tuple_from_json(mdata.get("curve"), n, "curve",
                                      lambda: f"{mpath}.curve"))
        hdata = mdata.get("hyperplanes")
        _expect(isinstance(hdata, list), "hyperplanes must be a list",
                f"{mpath}.hyperplanes")
        _expect(len(hdata) == expected,
                f"expected 2n+1 = {expected} hyperplanes, got {len(hdata)}",
                f"{mpath}.hyperplanes")
        for k, hd in enumerate(hdata):
            polys.extend(_tuple_from_json(
                hd, n, "hyperplane", lambda: f"{mpath}.hyperplanes[{k}]"))
    metadata = data.get("metadata", {})
    _expect(isinstance(metadata, dict), "metadata must be an object",
            "$.metadata")

    def where(k: int) -> str:
        """The path of polys[k]: member i's n+1 curve components come
        first, then the n+1 coefficients of each of its 2n+1 hyperplanes."""
        i, r = divmod(k, 2 * (n + 1) ** 2)
        h, l = divmod(r, n + 1)
        if h == 0:
            return f"$.members[{i}].curve.components[{l}]"
        return f"$.members[{i}].hyperplanes[{h - 1}].coeffs[{l}]"

    stack = _coefficients_from_json(polys, where)
    members = _validated_members(
        stack.reshape(len(labels), 2 * n + 2, n + 1, stack.shape[1]), labels,
        region)
    return Scene(n=n, region=region, members=members, config=cfg,
                 metadata=metadata)


def _validated_members(runs: np.ndarray, labels: Sequence[str],
                       region: Region) -> tuple[FamilyMember, ...]:
    """The members of the scene whose coefficient array is ``runs``, a
    complex (N, 2n+2, n+1, L) array: member i's curve components are the
    rows of ``runs[i, 0]`` and the coefficients of its hyperplane k those
    of ``runs[i, k + 1]``, ascending and zero-padded to one width L.
    Member i is labelled ``labels[i]``.

    Hyperplanes with the same coefficients (their bytes, so ``-0.0`` and
    ``0.0`` differ) become one object, and ``normalized_many``
    normalizes each distinct one once against ``region``.  One
    ``first_common_zero`` call then tests every distinct hyperplane, as
    given and normalized, and every curve for entries that are all zero or
    share a zero; the first defect, a hyperplane (at its first occurrence)
    before any curve, fails with the ValidationError of its JSON path.
    """
    N, q = runs.shape[0], runs.shape[1] - 1
    n1, L = runs.shape[2:]
    # Per member, its curve and then its hyperplanes, each as one row of
    # coefficients.  Hyperplane j is hyperplane j % q of member j // q;
    # its row's bytes map it to the first with the same values.
    runs = runs.reshape(N, q + 1, n1 * L)
    hyper_rows = runs[:, 1:].reshape(N * q, n1 * L)
    seen: dict[bytes, int] = {}
    first_of = [seen.setdefault(key, j) for j, key in
                enumerate(map(np.ndarray.tobytes, hyper_rows))]
    # Polynomials only for the curves and the distinct hyperplanes.
    parsed = ComplexPoly.from_rows(np.concatenate(
        [runs[:, 0], hyper_rows[list(seen.values())]]).reshape(-1, L))
    tuples = [tuple(parsed[k: k + n1]) for k in range(0, len(parsed), n1)]
    curves = tuples[:N]
    raw = dict(zip(seen.values(), tuples[N:]))
    normalized = dict(zip(raw, normalized_many(raw.values(), region)))

    # Each distinct hyperplane as given, and normalized where that changed
    # its polynomials, then every curve; owned by (member, hyperplane), or
    # (member, None) for a curve.
    checks, owners = [], []
    for j, coeffs in raw.items():
        scaled = normalized[j].coeffs
        tried = [coeffs] if scaled is coeffs else [coeffs, scaled]
        checks += tried
        owners += [divmod(j, q)] * len(tried)
    checks += curves
    owners += [(i, None) for i in range(N)]
    bad = first_common_zero(checks)
    if bad is not None:
        i, k = owners[bad]
        path, entry = ((f"$.members[{i}].curve", "component") if k is None
                       else (f"$.members[{i}].hyperplanes[{k}]",
                             "coefficient"))
        raise ValidationError(str(tuple_error(checks[bad], entry)),
                              path=path)

    return tuple(
        FamilyMember(ProjCurve(curve, check_reduced=False),
                     [normalized[j] for j in first_of[i * q: i * q + q]],
                     label)
        for i, (curve, label) in enumerate(zip(curves, labels)))


def load_scene(path: str, grid: tuple[int, int] | None = None) -> Scene:
    """``scene_from_json`` of the file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scene file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene file {path} is not valid JSON: {exc}") from exc
    return scene_from_json(data, grid)


def _scene_document(scene: Scene, hyperplanes) -> dict:
    """The JSON document of ``scene``, with ``hyperplanes(m.hyperplanes)``
    as the hyperplane list of each member m."""
    return {
        "schema_version": SCHEMA_VERSION,
        "n": scene.n,
        "region": scene.region.to_json(),
        "config": {
            "epsilon": scene.config.epsilon,
            "delta": scene.config.delta,
        },
        "members": [{
            "label": m.label,
            "curve": m.curve.to_json(),
            "hyperplanes": hyperplanes(m.hyperplanes),
        } for m in scene.members],
        "metadata": scene.metadata,
    }


def _hyperplanes_json(hypers: tuple[MovingHyperplane, ...]) -> list:
    return [h.to_json() for h in hypers]


def scene_to_json(scene: Scene) -> dict:
    """The JSON document of ``scene``.  Every member holds lists of its
    own, so editing one member's leaves every other member unchanged."""
    return _scene_document(scene, _hyperplanes_json)


def scene_text(scene: Scene) -> str:
    """``json_text(scene_to_json(scene))``, the text of a scene file, with
    one hyperplane list per distinct tuple of hyperplane objects.  The
    members that hold a tuple share its list, so each of its hyperplanes
    is turned into JSON once.  ``json_text`` lays the list out in place at
    its first occurrence and again on its own at its second, and copies
    that text to every member after the second."""
    lists = {hypers: _hyperplanes_json(hypers) for hypers in
             dict.fromkeys(m.hyperplanes for m in scene.members)}
    return json_text(_scene_document(scene, lists.__getitem__))


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scene_text(scene))


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

_CONTAINERS = (list, tuple, dict)
# Exact types whose encoding is one token, which the list fast paths
# accept.  Anything else (subclasses, numpy scalars) takes the general
# path, which tells containers from scalars with isinstance as the stdlib
# does.
_SCALARS = frozenset({str, int, float, bool, type(None)})
_ROWS = frozenset({list, tuple})

# The stdlib encoder with one newline between items; without ``indent``
# it runs the C encoder.  An encoded scalar or empty container holds no
# literal newline (a string's own newlines come out escaped), so the
# output of a list of them splits into their tokens at the newlines.
_TOKENS = json.JSONEncoder(separators=("\n", ": ")).encode


@functools.lru_cache(maxsize=None)
def _layout(depth: int) -> tuple[str, ...]:
    """The separators of a container whose opening bracket sits at
    ``depth`` levels, built once per depth: the newline and indentation
    of its closing bracket, of its items and of a row's items; a comma
    and the next item's indentation, for an item and for a row's item;
    and the text from the last item of one row to the first of the
    next."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    deep = inner + "  "
    return (pad, inner, deep, "," + inner, "," + deep,
            inner + "]," + inner + "[" + deep)


def _join(pieces: list[str], flat: list) -> str:
    """``pieces`` with the encoded tokens of ``flat`` between them, one
    C-encoder call for all of them."""
    tokens = _TOKENS(flat)[1:-1].split("\n")
    tokens.append("")  # after the last piece
    return "".join(itertools.chain.from_iterable(zip(pieces, tokens)))


def _walk(obj, depth: int, pieces: list[str], flat: list,
          seen: dict) -> None:
    """Lay out ``obj``, whose first line sits at ``depth`` levels: every
    scalar and empty container goes to ``flat`` as one token, and the text
    before each token, and after the last, is the matching item of
    ``pieces``, which always holds one item more than ``flat``.  So the
    text between two tokens only closes and opens containers, and grows
    with the depth alone.

    ``seen`` maps the id of every list holding a dict met so far to its
    texts by depth.  Its first occurrence is laid out in place and costs
    only that entry; a later one appends the text of its depth, laid out
    and encoded on its own when a repeat first needs it."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        flat.append(obj)
        pieces.append("")
        return
    pad, inner, deep, comma, row_comma, row_gap = _layout(depth)
    if isinstance(obj, dict):
        pieces[-1] += "{"
        sep = inner
        for key, value in sorted(obj.items()):
            if isinstance(key, str):
                pieces[-1] += sep
                flat.append(key)
                pieces.append(": ")
            elif key is None or isinstance(key, (int, float)):
                # Other keys become the string of their own encoding.
                pieces[-1] += sep + '"'
                flat.append(key)
                pieces.append('": ')
            else:
                raise TypeError("keys must be str, int, float, bool or "
                                f"None, not {key.__class__.__name__}")
            if isinstance(value, _CONTAINERS) and value:
                _walk(value, depth + 1, pieces, flat, seen)
            else:  # a token, as _walk takes it, without a call
                flat.append(value)
                pieces.append("")
            sep = comma
        pieces[-1] += pad + "}"
        return
    types = set(map(type, obj))
    if types <= _SCALARS:
        pieces[-1] += "[" + inner
        flat.extend(obj)
        pieces.extend([comma] * (len(obj) - 1))
        pieces.append(pad + "]")
        return
    if types <= _ROWS and all(obj):
        entries = list(itertools.chain.from_iterable(obj))
        entry_types = set(map(type, entries))
        if entry_types <= _SCALARS and len(set(map(len, obj))) == 1:
            # Rows of one length, such as [[re, im], ...]: all their items
            # at once, and the text between them repeats row after row.
            width = len(obj[0])
            pieces[-1] += "[" + inner + "[" + deep
            flat.extend(entries)
            pieces.extend(([row_comma] * (width - 1) + [row_gap]) * len(obj))
            pieces[-1] = inner + "]" + pad + "]"
            return
        if (entry_types <= _ROWS and all(entries)
                and len(set(map(len, entries))) == 1
                and set(map(type, itertools.chain.from_iterable(entries)))
                <= _SCALARS):
            # Lists of such rows, all of one width, such as a curve's
            # components: every value at once, and each list's text is
            # that of its rows one level down.
            _, _, deeper, _, deep_comma, deep_gap = _layout(depth + 1)
            row = [deep_comma] * (len(entries[0]) - 1) + [deep_gap]
            next_list = deep + "]" + row_gap + "[" + deeper
            pieces[-1] += "[" + inner + "[" + deep + "[" + deeper
            flat.extend(itertools.chain.from_iterable(entries))
            for value in obj:
                pieces.extend(row * len(value))
                pieces[-1] = next_list
            pieces[-1] = deep + "]" + inner + "]" + pad + "]"
            return
    if dict in types:
        texts = seen.get(id(obj))
        if texts is None:
            seen[id(obj)] = {}
        else:
            text = texts.get(depth)
            if text is None:
                # Laid out on its own as a first occurrence, then known
                # again.
                del seen[id(obj)]
                span, tokens = [""], []
                _walk(obj, depth, span, tokens, seen)
                seen[id(obj)] = texts
                text = texts[depth] = _join(span, tokens)
            pieces[-1] += text
            return
    pieces[-1] += "["
    sep = inner
    for value in obj:
        pieces[-1] += sep
        _walk(value, depth + 1, pieces, flat, seen)
        sep = comma
    pieces[-1] += pad + "]"


def json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for
    byte, at the speed of the stdlib's C encoder rather than of the
    pure-Python encoder that ``indent`` selects.

    Python walks the containers and lays out the text between scalars;
    one C-encoder call then encodes every key and scalar, and one join
    interleaves the two.  Lists of scalars, lists of equal-length rows of
    scalars, such as ``[[re, im], ...]``, and lists of nonempty lists of
    such rows, all of one width, such as a curve's ``components`` or a
    hyperplane's ``coeffs``, go in whole, without a step per item or per
    row list.  A list holding a dict that occurs again, such as the
    hyperplane list that ``scene_text`` shares between members, is laid
    out and encoded once more per depth, and every repeat appends that
    text.  Other repeated containers are laid out again: tracking the
    many dicts and coefficient lists of a report or scene would cost more
    than it saves.  Tuples encode as lists, keys follow the stdlib's
    non-``str`` rules, and the output is ASCII with ``NaN``/``Infinity``
    tokens, all as the stdlib's."""
    pieces = [""]
    flat: list = []
    _walk(obj, 0, pieces, flat, {})
    pieces[-1] += "\n"
    return _join(pieces, flat)


def rebuild_scene(scene: Scene, epsilon: float | None = None,
                  delta: float | None = None) -> Scene:
    """Scene with ``epsilon`` and ``delta`` overridden where given."""
    cfg = CheckConfig(
        region=scene.region,
        epsilon=epsilon if epsilon is not None else scene.config.epsilon,
        delta=delta if delta is not None else scene.config.delta,
    )
    return dataclasses.replace(scene, config=cfg)


# ---------------------------------------------------------------------------
# scene generators
# ---------------------------------------------------------------------------

# Template parameters that must be integers (JSON true/false are not).
_INT_PARAMS = ("n", "N", "seed", "grid_nx", "grid_ny")


def _check_params(params: dict, allowed: dict, template: str) -> dict:
    """``allowed`` (the defaults) updated from ``params``, with the integer
    parameters checked and ``t`` turned into a complex number."""
    out = dict(allowed)
    for key, value in params.items():
        if key not in allowed:
            raise BadParams(
                f"template {template!r} does not accept parameter {key!r}; "
                f"allowed: {sorted(allowed)}")
        out[key] = value
    for key in _INT_PARAMS:
        if key in out and not _is_number(out[key], int):
            raise BadParams(
                f"template {template!r} parameter {key!r} must be an "
                f"integer, got {out[key]!r}")
    if out.get("seed", 0) < 0:
        raise BadParams(f"template {template!r} parameter 'seed' must be "
                        f"non-negative, got {out['seed']}")
    if "t" in out:
        t = out["t"]
        if _is_number(t):
            t = [t, 0.0]
        if not (isinstance(t, list) and len(t) == 2
                and all(_is_number(v) and abs(v) <= sys.float_info.max
                        for v in t)):
            raise BadParams(
                f"template {template!r} parameter 't' must be a finite real "
                f"number or an [re, im] pair, got {out['t']!r}")
        out["t"] = complex(t[0], t[1])
    return out


def _template_region(p: dict) -> Region:
    try:
        return Region(-1.0, 1.0, -1.0, 1.0, p["grid_nx"], p["grid_ny"])
    except ValueError as exc:
        raise BadParams(str(exc)) from exc


def _assemble(region: Region, labels: list[str], runs: np.ndarray,
              epsilon: float, delta: float | None, metadata: dict) -> Scene:
    """The scene of the members ``_validated_members`` makes of the
    coefficient array ``runs``, as a scene file's load does; a ``delta``
    of None is half the grid minimum of the first member's
    general-position product."""
    members = _validated_members(runs, labels, region)
    if delta is None:
        delta = position_sweep(members[0].hyperplanes, region)[0].value / 2.0
    cfg = CheckConfig(region=region, epsilon=epsilon, delta=delta)
    return Scene(n=runs.shape[2] - 1, region=region, members=members,
                 config=cfg, metadata=metadata)


def _vandermonde(n: int) -> list[list[complex]]:
    """The coefficients (1, b, ..., b^n) of 2n+1 fixed hyperplanes at the
    (2n+1)-th roots of unity b: every (n+1)-subset is a Vandermonde
    system, hence nonsingular."""
    q = 2 * n + 1
    return [[b ** l for l in range(n + 1)]
            for b in (np.exp(2j * np.pi * j / q) for j in range(q))]


def _gen_montel_omitting(params: dict) -> Scene:
    p = _check_params(params, {"n": 1, "N": 10, "seed": 0,
                               "grid_nx": 41, "grid_ny": 41},
                      "montel_omitting")
    n, N, seed = p["n"], p["N"], p["seed"]
    if n < 1 or N < 1:
        raise BadParams("montel_omitting needs n >= 1 and N >= 1")
    region = _template_region(p)
    rng = np.random.default_rng(seed)
    # Constant curves and hyperplanes: one coefficient per polynomial.
    runs = np.zeros((N, 2 * n + 2, n + 1, 1), dtype=np.complex128)
    runs[:, 1:, :, 0] = _vandermonde(n)
    for k in range(N):
        r = rng.uniform(0.1, 0.45)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        c = r * np.exp(1j * theta)
        # Geometric coordinates keep every pairing a nonzero constant:
        # sum_l (b c)^l has modulus >= (1 - |c|^2) / (1 + |c|) > 0.
        runs[k, 0, :, 0] = [c ** l for l in range(n + 1)]
    return _assemble(region, [f"m{k}" for k in range(N)], runs,
                     epsilon=0.5, delta=None,
                     metadata={"template": "montel_omitting",
                               "params": {"n": n, "N": N, "seed": seed}})


def _gen_blowup_linear(params: dict) -> Scene:
    p = _check_params(params, {"n": 1, "N": 8, "grid_nx": 41, "grid_ny": 41},
                      "blowup_linear")
    n, N = p["n"], p["N"]
    if n < 1 or N < 1:
        raise BadParams("blowup_linear needs n >= 1 and N >= 1")
    try:
        # N^n, the largest coefficient, of member N's last component.
        float(N) ** n
    except OverflowError:
        raise BadParams(f"blowup_linear coefficient N**n = {N}**{n} is past "
                        f"the float range") from None
    region = _template_region(p)
    # Component l of member nu is (nu z)^l: row l of member nu's curve
    # holds nu^l in column l.
    runs = np.zeros((N, 2 * n + 2, n + 1, n + 1), dtype=np.complex128)
    runs[:, 0, range(n + 1), range(n + 1)] = [
        [float(nu) ** l for l in range(n + 1)] for nu in range(1, N + 1)]
    runs[:, 1:, :, 0] = _vandermonde(n)
    return _assemble(region, [f"m{nu}" for nu in range(1, N + 1)], runs,
                     epsilon=0.5, delta=None,
                     metadata={"template": "blowup_linear",
                               "params": {"n": n, "N": N}})


def _gen_wandering_shared(params: dict) -> Scene:
    p = _check_params(params, {"N": 6, "seed": 0, "mutate": "none",
                               "grid_nx": 41, "grid_ny": 41},
                      "wandering_shared")
    N = p["N"]
    mutate = str(p["mutate"])
    if N < 3:
        raise BadParams("wandering_shared needs N >= 3")
    if mutate not in ("none", "delta", "epsilon", "cond1"):
        raise BadParams(
            f"mutate must be one of none/delta/epsilon/cond1, got {mutate!r}")
    region = _template_region(p)
    a = np.linspace(-0.5, 0.5, N)
    c = 0.1 * (1.0 + 0.05 * np.arange(N))
    eps_c = 0.01
    runs = np.zeros((N, 4, 2, 3), dtype=np.complex128)
    # Member k's curve (1, (z-a)^2): its derived map is (1, 2(z-a)), so the
    # coordinate hyperplane (0, 1) is shared with identical zero set {a}.
    runs[:, 0, 0, 0] = 1.0
    runs[:, 0, 1] = np.stack([a * a, -2.0 * a, np.ones(N)], axis=1)
    runs[:, 1, 1, 0] = 1.0
    # The moving pair (1, +-(c + eps*z)) keeps both pairings zero-free on
    # the region (|c + eps*z| * |z-a|^2 < 1 there) while their mutual
    # determinant 2|c + eps*z| stays well above zero.
    runs[:, 2:, 0, 0] = 1.0
    runs[:, 2, 1, :2] = np.stack([c, np.full(N, eps_c)], axis=1)
    runs[:, 3, 1, :2] = np.stack([-c, np.full(N, -eps_c)], axis=1)

    a0 = float(a[0])
    if mutate == "delta":
        # Duplicate hyperplane: one vanishing determinant factor drives the
        # general-position product to zero identically.
        runs[0, 2] = runs[0, 1]
    elif mutate == "epsilon":
        # Member 0 becomes (1, q) with q = 5(z-a0)^2 + 4.55: at z0 = a0+0.7
        # both q and q' equal 7, so the hyperplane (7, -1) is hit by the
        # curve and its derived map at exactly z0 (the second q = 7 root
        # a0-0.7 leaves the region), keeping condition 1 intact while
        # |f_0(z0)| = 1 < epsilon * |q(z0)| = 3.5 violates condition 2.
        # The flanking hyperplanes (+-20, -1) have no preimages in the
        # region for either curve.
        runs[0, 0, 1] = [5.0 * a0 * a0 + 4.55, -10.0 * a0, 5.0]
        runs[0, 1:] = 0.0
        runs[0, 1:, :, 0] = [[20.0, -1.0], [7.0, -1.0], [-20.0, -1.0]]
    elif mutate == "cond1":
        # Perturbing (0,1) to (0.01, 1) splits the curve-side preimage into
        # a0 +- 0.1i while the derived-map side moves to a0 - 0.005: the
        # sets no longer match, but determinants and the epsilon bound are
        # barely disturbed.
        runs[0, 1, 0, 0] = 0.01

    return _assemble(region, [f"m{k}" for k in range(N)], runs,
                     epsilon=0.5, delta=1e-4,
                     metadata={"template": "wandering_shared",
                               "params": {"N": N, "seed": p["seed"],
                                          "mutate": mutate}})


def _gen_degenerate_position(params: dict) -> Scene:
    p = _check_params(params, {"t": 0.01, "grid_nx": 41, "grid_ny": 41},
                      "degenerate_position")
    t = p["t"]
    region = _template_region(p)
    # The curve (1, z) and the hyperplanes (1, 0), (0, 1) and (z - t, 1).
    runs = np.zeros((1, 4, 2, 2), dtype=np.complex128)
    runs[0, 0] = [[1.0, 0.0], [0.0, 1.0]]
    runs[0, 1:, :, 0] = [[1.0, 0.0], [0.0, 1.0], [-t, 1.0]]
    runs[0, 3, 0, 1] = 1.0
    return _assemble(region, ["m0"], runs, epsilon=0.5, delta=0.05,
                     metadata={"template": "degenerate_position",
                               "params": {"t": [t.real, t.imag]}})


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


# Each stage runner takes the scene, the CSV directory and `done`, which maps
# every stage already run to what it computed (or the error it raised), and
# returns (report section, exit code).

def _stage_position(scene: Scene, csv_dir: str | None,
                    done: dict) -> tuple[dict, int]:
    if not scene.members:
        raise WrongCount("need at least one member")
    per = []
    rows = []
    pts = scene.region.grid_points()
    # Members holding the same hyperplane objects share one sweep.
    distinct = list(dict.fromkeys(m.hyperplanes for m in scene.members))
    sweeps = dict(zip(distinct, position_sweeps(distinct, scene.region)))
    for m in scene.members:
        ud, low, vals = sweeps[m.hyperplanes]
        # Inconsistent: the grid minimum clears delta, but the bound on the
        # region is at most delta/2.
        per.append({"label": m.label, "min": ud.value,
                    "argmin": [ud.argmin.real, ud.argmin.imag],
                    "lower_bound": low,
                    "consistent": not (ud.value > scene.config.delta
                                       and low <= scene.config.delta / 2.0)})
        if csv_dir is not None:
            rows.extend((m.label, float(z.real), float(z.imag), float(v))
                        for z, v in zip(pts, vals))
    # check reuses each tuple's grid minimum.
    done["position"] = {h: sweep[0] for h, sweep in sweeps.items()}
    worst = min(per, key=lambda e: e["min"])
    verdict = worst["min"] > scene.config.delta
    if csv_dir is not None:
        _write_csv(csv_dir, "position.csv", ("label", "x", "y", "D"), rows)
    result = {"per_member": per, "min": worst["min"],
              "argmin": worst["argmin"], "delta": scene.config.delta,
              "verdict": verdict}
    return result, 0 if verdict else 2


def _stage_check(scene: Scene, csv_dir: str | None,
                 done: dict) -> tuple[dict, int]:
    # A failed position stage left its error in `done`, not a delta map.
    deltas = done.get("position")
    report = hypotheses_check(scene.members, scene.config,
                              deltas if isinstance(deltas, dict) else None)
    return report.to_json(), 0 if report.overall else 2


def _stage_normality(scene: Scene, csv_dir: str | None,
                     done: dict) -> tuple[dict, int]:
    stats = marty_sup([m.curve for m in scene.members], scene.region)
    done["normality"] = stats
    if csv_dir is not None:
        _write_csv(csv_dir, "normality.csv", ("member_index", "sup"),
                   [(i, s) for i, s in enumerate(stats.sups)])
    result = stats.to_json()
    result["empirical"] = True
    return result, 0 if stats.verdict == "bounded" else 2


def _stage_zalcman(scene: Scene, csv_dir: str | None,
                   done: dict) -> tuple[dict, int]:
    # run_pipeline runs normality before zalcman; its error is zalcman's too.
    stats = done["normality"]
    if isinstance(stats, ProjcurveError):
        raise stats
    trace = zalcman_search([m.curve for m in scene.members], stats)
    if csv_dir is not None:
        _write_csv(csv_dir, "zalcman.csv",
                   ("zeta_x", "zeta_y", "fs_distance_to_limit"),
                   [(float(z.real), float(z.imag), float(d))
                    for z, d in zip(trace.zeta_points,
                                    trace.limit_distances)])
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
    done: dict = {}
    codes = [0]
    for stage in STAGES:
        if stage not in to_run:
            continue
        try:
            result, code = _STAGE_RUNNERS[stage](scene, csv_dir, done)
        except ProjcurveError as exc:
            done[stage] = exc
            stages[stage] = {"error": {"type": type(exc).__name__,
                                       "message": str(exc)}}
            if stage in requested:
                codes.append(exc.exit_code)
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
                       "tau_root": config.TAU_ROOT},
            "member_labels": [m.label for m in scene.members],
            "metadata": scene.metadata,
        },
        "stages": stages,
        "exit_code": exit_code,
    }
    return report, exit_code
