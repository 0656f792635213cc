"""Batch front end.

Documents are JSON objects {"version", "kind", "payload"}; every command
reads documents, runs one library operation, and writes a canonical
document (sorted keys, cones in normalized order, sublattice bases in
Hermite normal form) or an SVG to standard output.  Integers outside the
53-bit range are serialized as decimal strings so payloads survive readers
that parse numbers as doubles.

Exit codes: 0 predicate true / construction succeeded, 1 predicate false,
2 malformed input or precondition failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .cone import Cone
from .conecomplex import (
    ComplexMorphism,
    ConeComplex,
    Gluing,
    validate_complex,
    validate_complex_morphism,
)
from .fan import (
    Fan,
    FanError,
    FanMorphism,
    StackyFan,
    StackyMorphism,
    ValidationReport,
    WeakSemistabilityReport,
    base_change_along_alteration,
    is_alteration,
    is_modification,
    is_proper,
    is_representable,
    is_smooth_fan,
    is_weakly_semistable,
    minimal_modification,
    require_finite_index,
    toric_fiber_product,
    validate_fan,
    validate_stacky_fan,
)
from .lattice import Lattice, LatticeMap, sublattice_from_vectors
from .monoid import hilbert_basis
from .reduction import NoFactorization, factor_through, reduce, universal_minimal_modification

VERSION = "1"
# one parser serves every call of `main` in a process
PARSER_MEMO_SIZE = 1

_INT_LIMIT = 2 ** 53
_INT_RE = re.compile(r"^-?[0-9]+$")


class DocumentError(ValueError):
    pass


def _fail(path: str, msg: str):
    raise DocumentError(f"{path}: {msg}")


# ---------------------------------------------------------------------------
# schema walking

def _as_dict(v, path):
    if not isinstance(v, dict):
        _fail(path, "expected an object")
    return v


def _as_list(v, path):
    if not isinstance(v, list):
        _fail(path, "expected an array")
    return v


def _get(d, key, path):
    d = _as_dict(d, path)
    if key not in d:
        _fail(f"{path}.{key}", "missing")
    return d[key]


def _read_int(v, path) -> int:
    if isinstance(v, bool):
        _fail(path, "expected an integer")
    if isinstance(v, int):
        return v
    if isinstance(v, str) and _INT_RE.match(v):
        return int(v)
    _fail(path, "expected an integer or a decimal string")


def _read_vector(v, path, length=None):
    out = tuple(_read_int(x, f"{path}[{i}]")
                for i, x in enumerate(_as_list(v, path)))
    if length is not None and len(out) != length:
        _fail(path, f"expected {length} entries, got {len(out)}")
    return out


def _read_matrix(v, path, width=None):
    rows = _as_list(v, path)
    out = []
    for i, row in enumerate(rows):
        out.append(_read_vector(row, f"{path}[{i}]", width))
        if width is None:
            width = len(out[-1])
    return tuple(out)


def _enc_int(v: int):
    return v if -_INT_LIMIT < v < _INT_LIMIT else str(v)


def _enc_vector(v):
    return [_enc_int(x) for x in v]


def _enc_matrix(m):
    return [_enc_vector(r) for r in m]


# ---------------------------------------------------------------------------
# payload codecs

def parse_fan(payload, path) -> Fan:
    rank = _read_int(_get(payload, "lattice_rank", path), f"{path}.lattice_rank")
    if rank < 0:
        _fail(f"{path}.lattice_rank", "must be nonnegative")
    cones = []
    for i, entry in enumerate(_as_list(_get(payload, "cones", path),
                                       f"{path}.cones")):
        rays = _read_matrix(_get(entry, "rays", f"{path}.cones[{i}]"),
                            f"{path}.cones[{i}].rays", rank)
        cones.append(Cone.from_generators(rank, rays))
    return Fan.from_cones(rank, cones)


def _require_fan(path: str, report: ValidationReport) -> None:
    if not report:
        _fail(path, f"not a fan: {report.violations[0]}")


def emit_fan(f: Fan):
    return {"lattice_rank": f.lattice.rank,
            "cones": [{"rays": _enc_matrix(c.rays)} for c in f.cones]}


def parse_stacky_fan(payload, path) -> StackyFan:
    fan = parse_fan(payload, path)
    sub = {}
    entries = payload.get("sublattices", []) if isinstance(payload, dict) else []
    for i, entry in enumerate(_as_list(entries, f"{path}.sublattices")):
        here = f"{path}.sublattices[{i}]"
        idx = _read_int(_get(entry, "cone_index", here), f"{here}.cone_index")
        if not 0 <= idx < len(fan.cones):
            _fail(f"{here}.cone_index", "out of range")
        basis = _read_matrix(_get(entry, "basis", here), f"{here}.basis",
                             fan.lattice.rank)
        sub[fan.cones[idx]] = sublattice_from_vectors(fan.lattice, basis)
    return StackyFan.from_dict(fan, sub)


def emit_stacky_fan(s: StackyFan):
    out = emit_fan(s.fan)
    out["sublattices"] = [
        {"cone_index": i, "basis": _enc_matrix(s.sublattice(c).vectors())}
        for i, c in enumerate(s.fan.cones)]
    return out


def _read_fan_morphism(payload, path, source: Fan, target: Fan) -> FanMorphism:
    matrix = _read_matrix(_get(payload, "matrix", path), f"{path}.matrix",
                          source.lattice.rank)
    if len(matrix) != target.lattice.rank:
        _fail(f"{path}.matrix", "row count does not match the target rank")
    lm = LatticeMap(source.lattice, target.lattice, matrix)
    try:
        return FanMorphism(source, target, lm)
    except FanError:
        # overlapping cones are the likelier cause; name the fan if so
        _require_fan(f"{path}.source", validate_fan(source))
        _require_fan(f"{path}.target", validate_fan(target))
        raise


def parse_fan_morphism(payload, path) -> FanMorphism:
    source = parse_fan(_get(payload, "source", path), f"{path}.source")
    target = parse_fan(_get(payload, "target", path), f"{path}.target")
    return _read_fan_morphism(payload, path, source, target)


def emit_fan_morphism(m: FanMorphism):
    return {"matrix": _enc_matrix(m.lattice_map.matrix),
            "source": emit_fan(m.source), "target": emit_fan(m.target)}


def parse_stacky_morphism(payload, path) -> StackyMorphism:
    source = parse_stacky_fan(_get(payload, "source", path), f"{path}.source")
    target = parse_stacky_fan(_get(payload, "target", path), f"{path}.target")
    return StackyMorphism(_read_fan_morphism(payload, path, source.fan, target.fan),
                          source, target)


def parse_cone_complex(payload, path) -> ConeComplex:
    cells = []
    for i, entry in enumerate(_as_list(_get(payload, "cells", path),
                                       f"{path}.cells")):
        here = f"{path}.cells[{i}]"
        rank = _read_int(_get(entry, "lattice_rank", here),
                         f"{here}.lattice_rank")
        rays = _read_matrix(_get(entry, "rays", here), f"{here}.rays", rank)
        cells.append(Cone.from_generators(rank, rays))
    gl = []
    for i, entry in enumerate(_as_list(_get(payload, "gluings", path),
                                       f"{path}.gluings")):
        here = f"{path}.gluings[{i}]"
        cell = _read_int(_get(entry, "cell", here), f"{here}.cell")
        chart = _read_int(_get(entry, "chart", here), f"{here}.chart")
        if not 0 <= cell < len(cells) or not 0 <= chart < len(cells):
            _fail(here, "cell index out of range")
        face_rays = _read_matrix(_get(entry, "face_rays", here),
                                 f"{here}.face_rays",
                                 cells[cell].lattice.rank)
        matrix = _read_matrix(_get(entry, "embedding", here),
                              f"{here}.embedding",
                              cells[chart].lattice.rank)
        if len(matrix) != cells[cell].lattice.rank:
            _fail(f"{here}.embedding", "row count does not match the cell rank")
        gl.append(Gluing(cell,
                         Cone.from_generators(cells[cell].lattice, face_rays),
                         chart,
                         LatticeMap(cells[chart].lattice,
                                    cells[cell].lattice, matrix)))
    return ConeComplex(tuple(cells), tuple(gl))


def parse_complex_morphism(payload, path) -> ComplexMorphism:
    source = parse_cone_complex(_get(payload, "source", path), f"{path}.source")
    target = parse_cone_complex(_get(payload, "target", path), f"{path}.target")
    assign = tuple(_read_int(v, f"{path}.assignment[{i}]")
                   for i, v in enumerate(_as_list(
                       _get(payload, "assignment", path), f"{path}.assignment")))
    if len(assign) != len(source.cells) or \
            any(not 0 <= a < len(target.cells) for a in assign):
        _fail(f"{path}.assignment", "one valid target cell per source cell")
    maps = []
    raw = _as_list(_get(payload, "cell_maps", path), f"{path}.cell_maps")
    if len(raw) != len(source.cells):
        _fail(f"{path}.cell_maps", "one matrix per source cell")
    for i, entry in enumerate(raw):
        here = f"{path}.cell_maps[{i}]"
        matrix = _read_matrix(entry, here, source.cells[i].lattice.rank)
        if len(matrix) != target.cells[assign[i]].lattice.rank:
            _fail(here, "row count does not match the assigned cell rank")
        maps.append(LatticeMap(source.cells[i].lattice,
                               target.cells[assign[i]].lattice, matrix))
    return ComplexMorphism(source, target, tuple(maps), assign)


def emit_reduction_result(red):
    return {"base": emit_stacky_fan(red.base),
            "total": emit_stacky_fan(red.total),
            "matrix": _enc_matrix(red.stacky_map.underlying.lattice_map.matrix)}


def parse_reduction_result(payload, path):
    base = parse_stacky_fan(_get(payload, "base", path), f"{path}.base")
    total = parse_stacky_fan(_get(payload, "total", path), f"{path}.total")
    matrix = _read_matrix(_get(payload, "matrix", path), f"{path}.matrix",
                          total.fan.lattice.rank)
    return base, total, matrix


PARSERS = {
    "fan": parse_fan,
    "stacky_fan": parse_stacky_fan,
    "fan_morphism": parse_fan_morphism,
    "stacky_morphism": parse_stacky_morphism,
    "cone_complex": parse_cone_complex,
    "complex_morphism": parse_complex_morphism,
    "reduction_result": parse_reduction_result,
}
KINDS = (*PARSERS, "report")


def _fans(kind: str, obj) -> dict:
    """The fans a parsed document holds, by JSON path: a reduction result's
    refined base, and no fan of a cone complex."""
    if kind in ("fan", "stacky_fan"):
        return {"$.payload": obj if kind == "fan" else obj.fan}
    if kind in ("fan_morphism", "stacky_morphism"):
        p = obj if kind == "fan_morphism" else obj.underlying
        return {"$.payload.source": p.source, "$.payload.target": p.target}
    if kind == "reduction_result":
        return {"$.payload.base": obj[0].fan}
    return {}


# ---------------------------------------------------------------------------
# documents

def emit_document(kind: str, payload) -> str:
    return json.dumps({"version": VERSION, "kind": kind, "payload": payload},
                      sort_keys=True, indent=2) + "\n"


def load_document(text: str, expect: tuple[str, ...]):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    doc = _as_dict(raw, "$")
    version = _get(doc, "version", "$")
    if version != VERSION:
        _fail("$.version", f"unsupported version {version!r}")
    kind = _get(doc, "kind", "$")
    if kind not in KINDS:
        _fail("$.kind", f"unknown kind {kind!r}")
    if kind not in expect:
        _fail("$.kind", f"expected one of {', '.join(expect)}")
    payload = _get(doc, "payload", "$")
    try:
        return kind, PARSERS[kind](payload, "$.payload")
    except ValueError as exc:
        if isinstance(exc, DocumentError):
            raise
        raise DocumentError(f"$.payload: {exc}")


def _load_file(fname: str, expect: tuple[str, ...]):
    try:
        with open(fname, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"{fname}: {exc.strerror}")
    return load_document(text, expect)


def _load(fname: str, kinds: tuple[str, ...], option: str | None = None):
    """A document of one of `kinds` whose fans are all valid.  Commands that
    read more than one document name the option in front of each error."""
    try:
        kind, obj = _load_file(fname, kinds)
        for path, fan in _fans(kind, obj).items():
            _require_fan(path, validate_fan(fan))
    except DocumentError as exc:
        if option is None:
            raise
        raise DocumentError(f"{option}: {exc}") from None
    return kind, obj


def _report(ok: bool, violations=(), details=()):
    return {"ok": ok, "violations": list(violations), "details": list(details)}


# ---------------------------------------------------------------------------
# subcommands

# flag: (the document kinds it takes, how its error names them, the library
# predicate); each predicate is looked up when it runs, so a wrapper bound
# to the module name sees the call
PREDICATES = {
    "proper": (("fan_morphism",), "a fan_morphism", lambda m: is_proper(m)),
    "modification": (("fan_morphism",), "a fan_morphism",
                     lambda m: is_modification(m)),
    "alteration": (("fan_morphism",), "a fan_morphism", lambda m: is_alteration(m)),
    "weakly-semistable": (("fan_morphism", "stacky_morphism"), "a morphism",
                          lambda m: is_weakly_semistable(m)),
    "smooth": (("fan", "stacky_fan"), "a fan", lambda f: is_smooth_fan(f)),
    "representable": (("stacky_morphism",), "a stacky_morphism",
                      lambda m: is_representable(m)),
}

# the kinds `check` reads, with the reports `--valid` adds to those of
# validate_fan on the document's fans, by JSON path
VALIDITY = {
    "fan": lambda f: {},
    "stacky_fan": lambda s: {"$.payload": validate_stacky_fan(s)},
    "fan_morphism": lambda p: {},
    "stacky_morphism": lambda m: {"$.payload.source": validate_stacky_fan(m.source),
                                  "$.payload.target": validate_stacky_fan(m.target)},
    "cone_complex": lambda c: {"$.payload": validate_complex(c)},
    "complex_morphism": lambda m: {"$.payload": validate_complex_morphism(m)},
}


def _cmd_check(args, out) -> int:
    kind, obj = _load_file(args.input, tuple(VALIDITY))
    chosen = [name for name in PREDICATES if getattr(args, name.replace("-", "_"))]
    for name in chosen:
        kinds, wording, _ = PREDICATES[name]
        if kind not in kinds:
            raise DocumentError(f"--{name} requires {wording} document")
    # the predicates need a valid document; --valid reports the same checks
    fan_reports = {path: validate_fan(f) for path, f in _fans(kind, obj).items()}
    reports = VALIDITY[kind](obj)
    if chosen:
        for path, rep in fan_reports.items():
            _require_fan(path, rep)
        # only stacky documents have both predicates and reports here
        for path, rep in reports.items():
            if not rep:
                _fail(path, f"not a stacky fan: {rep.violations[0]}")
    violations = []
    details = []
    if args.valid or not chosen:
        found = [v for r in (*fan_reports.values(), *reports.values())
                 for v in r.violations]
        if found:
            violations.extend(f"valid: {v}" for v in found)
        else:
            details.append("valid: yes")
    for name in chosen:
        result = PREDICATES[name][2](obj)
        if result:
            details.append(f"{name}: yes")
        elif isinstance(result, WeakSemistabilityReport):
            violations.extend(f"{name}: cone {tuple(cone.rays)} fails condition "
                              f"{cond}: {msg}" for cone, cond, msg in result.failures)
        else:
            violations.append(f"{name}: no")
    ok = not violations
    out.write(emit_document("report", _report(ok, violations, details)))
    return 0 if ok else 1


def _cmd_minmod(args, out) -> int:
    _, p = _load(args.morphism, ("fan_morphism",), "--morphism")
    _, gprime = _load(args.subdivision, ("fan",), "--subdivision")
    refined, _ = minimal_modification(p.lattice_map, p.source, gprime)
    out.write(emit_document("fan", emit_fan(refined)))
    return 0


def _cmd_fanprod(args, out) -> int:
    _, p = _load(args.left, ("fan_morphism",), "--left")
    _, q = _load(args.right, ("fan_morphism",), "--right")
    fan, _, _ = toric_fiber_product(p, q)
    out.write(emit_document("fan", emit_fan(fan)))
    return 0


def _cmd_basechange(args, out) -> int:
    _, p = _load(args.morphism, ("fan_morphism",))
    try:
        matrix = json.loads(args.matrix)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"--matrix: {exc.msg}")
    matrix = _read_matrix(matrix, "--matrix")
    try:
        j = LatticeMap(Lattice(len(matrix[0]) if matrix else 0),
                       p.target.lattice, matrix)
        require_finite_index(j)
    except ValueError as exc:
        raise DocumentError(f"--matrix: {exc}") from None
    _, morphism = base_change_along_alteration(p, j)
    out.write(emit_document("fan_morphism", emit_fan_morphism(morphism)))
    return 0


def _cmd_reduce(args, out) -> int:
    _, p = _load(args.input, ("fan_morphism",))
    red = reduce(p)
    out.write(emit_document("reduction_result", emit_reduction_result(red)))
    return 0


def _cmd_factor(args, out) -> int:
    _, p = _load(args.family, ("fan_morphism",), "--family")
    _, i = _load(args.alteration, ("fan_morphism",), "--alteration")
    red = reduce(p)
    try:
        cert = factor_through(universal_minimal_modification(red, i), red)
    except NoFactorization as exc:
        out.write(emit_document("report", _report(False, [str(exc)])))
        return 1
    details = [f"base: {tuple(g.rays)} -> {tuple(k.rays)}"
               for g, k in cert.base_assignments]
    details += [f"total: {tuple(g.rays)} -> {tuple(k.rays)}"
                for g, k in cert.total_assignments]
    out.write(emit_document("report", _report(True, [], details)))
    return 0


def _cmd_hilbert(args, out) -> int:
    _, f = _load(args.input, ("fan",))
    maximal = f.maximal_cones()
    if len(maximal) != 1:
        raise DocumentError(
            "hilbert expects a fan with a unique maximal cone")
    basis = hilbert_basis(maximal[0])
    out.write(emit_document(
        "report", _report(True, [], [_enc_vector(v) for v in basis])))
    return 0


# ---------------------------------------------------------------------------
# rendering

def _svg_point(v) -> tuple[str, str]:
    m = max(abs(x) for x in v)
    return (f"{100 * v[0] / m:.2f}", f"{-100 * v[1] / m:.2f}")


def render_fan(f: Fan) -> str:
    if f.lattice.rank != 2:
        raise DocumentError("rendering is only available for rank-2 lattices")
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             'viewBox="-110 -110 220 220">']
    for c in f.cones:
        if c.dim == 2:
            pts = [("0.00", "0.00")] + [_svg_point(r) for r in c.rays]
            path = " ".join(f"{x},{y}" for x, y in pts)
            lines.append(f'  <polygon points="{path}" fill="#c8d8f0" '
                         'stroke="none"/>')
    for c in f.cones:
        if c.dim == 1:
            x, y = _svg_point(c.rays[0])
            lines.append(f'  <line x1="0.00" y1="0.00" x2="{x}" y2="{y}" '
                         'stroke="#203050" stroke-width="1.5"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_render(args, out) -> int:
    # a reduction result draws its refined base subdivision
    kind, obj = _load(args.input, ("fan", "stacky_fan", "reduction_result"))
    (fan,) = _fans(kind, obj).values()
    out.write(render_fan(fan))
    return 0


# ---------------------------------------------------------------------------
# entry point

# subcommand: (help, required options, handler); `check` also takes --valid
# and one flag per predicate
COMMANDS = {
    "check": ("run validity and morphism predicates", ("--input",), _cmd_check),
    "minmod": ("coarsest source refinement over a subdivision",
               ("--morphism", "--subdivision"), _cmd_minmod),
    "fanprod": ("toric fiber product of two morphisms", ("--left", "--right"),
                _cmd_fanprod),
    "basechange": ("pull a family back along a base inclusion",
                   ("--morphism", "--matrix"), _cmd_basechange),
    "reduce": ("universal weak semistable reduction", ("--input",), _cmd_reduce),
    "factor": ("factor an alteration square through the reduction",
               ("--family", "--alteration"), _cmd_factor),
    "hilbert": ("Hilbert basis of the unique maximal cone", ("--input",),
                _cmd_hilbert),
    "render": ("SVG picture of a rank-2 fan", ("--input",), _cmd_render),
}
_OPTION_HELP = {"--matrix": "JSON matrix of the finite-index base inclusion"}


@functools.lru_cache(maxsize=PARSER_MEMO_SIZE)
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call of `main`, not at
    import.  It reads only the constant tables above, and `parse_args`
    returns a new namespace without changing it, so later calls reuse it."""
    parser = argparse.ArgumentParser(
        prog="semistable",
        description="exact combinatorics of weak semistable reduction")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, handler) in COMMANDS.items():
        c = sub.add_parser(name, help=text)
        for option in options:
            c.add_argument(option, required=True, help=_OPTION_HELP.get(option))
        if name == "check":
            for flag in ("valid", *PREDICATES):
                c.add_argument(f"--{flag}", action="store_true")
        c.set_defaults(func=handler)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    try:
        return args.func(args, out)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
