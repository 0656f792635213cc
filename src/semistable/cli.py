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
import contextlib
import json
import re
import sys
from fractions import Fraction

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
from .reduction import ReductionError, factor_through, reduce, \
    universal_minimal_modification

VERSION = "1"
KINDS = ("fan", "stacky_fan", "fan_morphism", "stacky_morphism",
         "cone_complex", "complex_morphism", "reduction_result", "report")

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


def _load_fan_morphism(fname: str) -> FanMorphism:
    """A fan_morphism document whose source and target are valid fans."""
    _, p = _load_file(fname, ("fan_morphism",))
    _require_fan("$.payload.source", validate_fan(p.source))
    _require_fan("$.payload.target", validate_fan(p.target))
    return p


@contextlib.contextmanager
def _option(name: str):
    """Prefix boundary errors with the option that named the document, for
    commands that read more than one."""
    try:
        yield
    except DocumentError as exc:
        raise DocumentError(f"{name}: {exc}") from None


def _report(ok: bool, violations=(), details=()):
    return {"ok": ok, "violations": list(violations), "details": list(details)}


# ---------------------------------------------------------------------------
# subcommands

def _cmd_check(args, out) -> int:
    kind, obj = _load_file(args.input,
                           ("fan", "stacky_fan", "fan_morphism",
                            "stacky_morphism", "cone_complex",
                            "complex_morphism"))
    checks = []
    if args.valid or not any((args.proper, args.modification, args.alteration,
                              args.weakly_semistable, args.smooth,
                              args.representable)):
        checks.append("valid")
    for name, flag in (("proper", args.proper),
                       ("modification", args.modification),
                       ("alteration", args.alteration),
                       ("weakly-semistable", args.weakly_semistable),
                       ("smooth", args.smooth),
                       ("representable", args.representable)):
        if flag:
            checks.append(name)

    # the fan predicates need valid fans; --valid reports the same checks,
    # before the sublattice checks of a stacky document
    fans = {}
    if kind in ("fan", "stacky_fan"):
        fans = {"$.payload": obj if kind == "fan" else obj.fan}
    elif kind in ("fan_morphism", "stacky_morphism"):
        p = obj if kind == "fan_morphism" else obj.underlying
        fans = {"$.payload.source": p.source, "$.payload.target": p.target}
    fan_reports = {path: validate_fan(f) for path, f in fans.items()}
    violations = []
    details = []
    for name in checks:
        if name == "valid":
            found = [v for r in fan_reports.values() for v in r.violations]
            if kind == "stacky_fan":
                found += validate_stacky_fan(obj).violations
            elif kind == "stacky_morphism":
                found += (validate_stacky_fan(obj.source).violations
                          + validate_stacky_fan(obj.target).violations)
            elif kind == "cone_complex":
                found += validate_complex(obj).violations
            elif kind == "complex_morphism":
                found += validate_complex_morphism(obj).violations
            if found:
                violations.extend(f"valid: {v}" for v in found)
            else:
                details.append("valid: yes")
            continue
        if name in ("proper", "modification", "alteration", "representable"):
            needs = "stacky_morphism" if name == "representable" else "fan_morphism"
            if kind != needs:
                raise DocumentError(f"--{name} requires a {needs} document")
        elif name == "smooth" and kind not in ("fan", "stacky_fan"):
            raise DocumentError("--smooth requires a fan document")
        elif name == "weakly-semistable" and kind not in ("fan_morphism",
                                                          "stacky_morphism"):
            raise DocumentError("--weakly-semistable requires a morphism document")
        for path, rep in fan_reports.items():
            _require_fan(path, rep)
        if name == "proper":
            flag_ok = is_proper(obj)
        elif name == "modification":
            flag_ok = is_modification(obj)
        elif name == "alteration":
            flag_ok = is_alteration(obj)
        elif name == "smooth":
            flag_ok = is_smooth_fan(obj if kind == "fan" else obj.fan)
        elif name == "representable":
            flag_ok = is_representable(obj)
        else:  # weakly-semistable
            ws = is_weakly_semistable(obj)
            flag_ok = bool(ws)
            for cone, cond, msg in ws.failures:
                violations.append(
                    f"weakly-semistable: cone {tuple(cone.rays)} fails "
                    f"condition {cond}: {msg}")
        if name != "weakly-semistable":
            if flag_ok:
                details.append(f"{name}: yes")
            else:
                violations.append(f"{name}: no")
        elif flag_ok:
            details.append("weakly-semistable: yes")
    ok = not violations
    out.write(emit_document("report", _report(ok, violations, details)))
    return 0 if ok else 1


def _cmd_minmod(args, out) -> int:
    with _option("--morphism"):
        p = _load_fan_morphism(args.morphism)
    with _option("--subdivision"):
        _, gprime = _load_file(args.subdivision, ("fan",))
        _require_fan("$.payload", validate_fan(gprime))
    refined, _ = minimal_modification(p.lattice_map, p.source, gprime)
    out.write(emit_document("fan", emit_fan(refined)))
    return 0


def _cmd_fanprod(args, out) -> int:
    with _option("--left"):
        p = _load_fan_morphism(args.left)
    with _option("--right"):
        q = _load_fan_morphism(args.right)
    fan, _, _ = toric_fiber_product(p, q)
    out.write(emit_document("fan", emit_fan(fan)))
    return 0


def _cmd_basechange(args, out) -> int:
    p = _load_fan_morphism(args.morphism)
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
    p = _load_fan_morphism(args.input)
    red = reduce(p)
    out.write(emit_document("reduction_result", emit_reduction_result(red)))
    return 0


def _cmd_factor(args, out) -> int:
    with _option("--family"):
        p = _load_fan_morphism(args.family)
    with _option("--alteration"):
        i = _load_fan_morphism(args.alteration)
    red = reduce(p)
    obj = universal_minimal_modification(red, i)
    try:
        cert = factor_through(obj, red)
    except ReductionError as exc:
        out.write(emit_document("report", _report(False, [str(exc)])))
        return 1
    details = [f"base: {tuple(g.rays)} -> {tuple(k.rays)}"
               for g, k in cert.base_assignments]
    details += [f"total: {tuple(g.rays)} -> {tuple(k.rays)}"
                for g, k in cert.total_assignments]
    out.write(emit_document("report", _report(True, [], details)))
    return 0


def _cmd_hilbert(args, out) -> int:
    _, f = _load_file(args.input, ("fan",))
    _require_fan("$.payload", validate_fan(f))
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
    scale = Fraction(100, max(abs(x) for x in v))
    return (f"{float(v[0] * scale):.2f}", f"{float(-v[1] * scale):.2f}")


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
    kind, obj = _load_file(args.input, ("fan", "stacky_fan",
                                        "reduction_result"))
    if kind == "fan":
        fan, path = obj, "$.payload"
    elif kind == "stacky_fan":
        fan, path = obj.fan, "$.payload"
    else:
        fan, path = obj[0].fan, "$.payload.base"  # the refined base subdivision
    _require_fan(path, validate_fan(fan))
    out.write(render_fan(fan))
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semistable",
        description="exact combinatorics of weak semistable reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run validity and morphism predicates")
    c.add_argument("--input", required=True)
    c.add_argument("--valid", action="store_true")
    c.add_argument("--proper", action="store_true")
    c.add_argument("--modification", action="store_true")
    c.add_argument("--alteration", action="store_true")
    c.add_argument("--weakly-semistable", dest="weakly_semistable",
                   action="store_true")
    c.add_argument("--smooth", action="store_true")
    c.add_argument("--representable", action="store_true")
    c.set_defaults(func=_cmd_check)

    c = sub.add_parser("minmod",
                       help="coarsest source refinement over a subdivision")
    c.add_argument("--morphism", required=True)
    c.add_argument("--subdivision", required=True)
    c.set_defaults(func=_cmd_minmod)

    c = sub.add_parser("fanprod", help="toric fiber product of two morphisms")
    c.add_argument("--left", required=True)
    c.add_argument("--right", required=True)
    c.set_defaults(func=_cmd_fanprod)

    c = sub.add_parser("basechange",
                       help="pull a family back along a base inclusion")
    c.add_argument("--morphism", required=True)
    c.add_argument("--matrix", required=True,
                   help="JSON matrix of the finite-index base inclusion")
    c.set_defaults(func=_cmd_basechange)

    c = sub.add_parser("reduce", help="universal weak semistable reduction")
    c.add_argument("--input", required=True)
    c.set_defaults(func=_cmd_reduce)

    c = sub.add_parser("factor",
                       help="factor an alteration square through the reduction")
    c.add_argument("--family", required=True)
    c.add_argument("--alteration", required=True)
    c.set_defaults(func=_cmd_factor)

    c = sub.add_parser("hilbert",
                       help="Hilbert basis of the unique maximal cone")
    c.add_argument("--input", required=True)
    c.set_defaults(func=_cmd_hilbert)

    c = sub.add_parser("render", help="SVG picture of a rank-2 fan")
    c.add_argument("--input", required=True)
    c.set_defaults(func=_cmd_render)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
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
