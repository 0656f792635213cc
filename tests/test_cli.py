import io
import json
import os
import subprocess
import sys

import pytest

from semistable import cli, monoid
from semistable.fan import is_smooth_fan, validate_stacky_fan
from semistable.reduction import NoFactorization
from semistable.cli import (
    DocumentError,
    _enc_int,
    _parser,
    _read_int,
    emit_document,
    emit_fan,
    load_document,
    main,
    parse_fan,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(*args):
    out = io.StringIO()
    code = main(list(args), out=out)
    return code, out.getvalue()


def data(name):
    return os.path.join(DATA, name)


GOLDEN = [
    (["check", "--input", data("fix_semi.json"), "--weakly-semistable"],
     "check_semi_ws.json", 1),
    (["reduce", "--input", data("fix_double.json")], "reduce_double.json", 0),
    (["reduce", "--input", data("fix_semi.json")], "reduce_semi.json", 0),
    (["fanprod", "--left", data("blowup_chart.json"),
      "--right", data("blowup_chart.json")], "fanprod_blowup.json", 0),
    (["minmod", "--morphism", data("fix_subdiv.json"),
      "--subdivision", data("blowup_fan.json")], "minmod_subdiv.json", 0),
    (["hilbert", "--input", data("hilbert_cone.json")], "hilbert_cone.json", 0),
    (["basechange", "--morphism", data("fix_double.json"),
      "--matrix", "[[2]]"], "basechange_double.json", 0),
    (["factor", "--family", data("fix_semi.json"),
      "--alteration", data("halfline_x2.json")], "factor_semi_x2.json", 0),
    (["render", "--input", data("blowup_fan.json")], "render_blowup.svg", 0),
]


class TestGolden:
    @pytest.mark.parametrize("args,golden,expected_code", GOLDEN,
                             ids=[g for _, g, _ in GOLDEN])
    def test_matches_golden_file(self, args, golden, expected_code):
        code, out = run_cli(*args)
        assert code == expected_code
        with open(os.path.join(DATA, "golden", golden), "r") as fh:
            assert out == fh.read()

    def test_byte_identical_across_runs(self):
        for args, _, _ in GOLDEN:
            assert run_cli(*args) == run_cli(*args)


def golden_text(name):
    with open(os.path.join(DATA, "golden", name)) as fh:
        return fh.read()


ROOT = os.path.join(os.path.dirname(__file__), "..")


def run_python(*args):
    """A fresh interpreter with the package on its path, run from the repo."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


class TestOneParser:
    """`main` builds its parser on the first call and reuses it for every
    later call in the process; nothing one call parses reaches the next."""

    def test_interleaved_calls_leave_no_state_behind(self, capsys):
        usage_errors = []
        for _ in range(2):
            for args, golden, expected_code in GOLDEN:
                assert run_cli(*args) == (expected_code, golden_text(golden))
                with pytest.raises(SystemExit) as exc:
                    run_cli("check")
                assert exc.value.code == 2
                usage_errors.append(capsys.readouterr().err)
                code, out = run_cli("check", "--valid", "--input", data("fix_semi.json"))
                assert (code, json.loads(out)["payload"]["details"]) == (0, ["valid: yes"])
                code, out = run_cli("check", "--proper", "--input", data("fix_double.json"))
                assert (code, json.loads(out)["payload"]["details"]) == (0, ["proper: yes"])
        assert usage_errors[0].endswith("semistable check: error: the following "
                                        "arguments are required: --input\n")
        assert usage_errors == usage_errors[:1] * len(usage_errors)
        assert _parser() is _parser()

    def test_one_shot_call_matches_the_in_process_call(self):
        done = run_python("-m", "semistable.cli", "reduce", "--input",
                          os.path.join("tests", "data", "fix_semi.json"))
        assert (done.returncode, done.stdout, done.stderr) == (
            0, golden_text("reduce_semi.json"), "")
        assert run_cli("reduce", "--input", data("fix_semi.json")) == \
            (done.returncode, done.stdout)

    def test_import_builds_no_parser(self):
        # the benchmark's set-up imports the CLI; the first `main` builds
        done = run_python("-c", "from semistable import cli; "
                                "print(cli._parser.cache_info().currsize)")
        assert (done.returncode, done.stdout) == (0, "0\n")


class TestDocuments:
    def test_round_trip_is_canonical(self):
        for name in ("fix_semi.json", "fix_double.json", "blowup_fan.json"):
            with open(data(name)) as fh:
                text = fh.read()
            kind, obj = load_document(
                text, ("fan", "fan_morphism"))
            if kind == "fan":
                once = emit_document("fan", emit_fan(obj))
                again_kind, again = load_document(once, ("fan",))
                assert emit_document("fan", emit_fan(again)) == once

    def test_fix_semi_source_face_closes_to_six_cones(self):
        with open(data("fix_semi.json")) as fh:
            payload = json.load(fh)["payload"]
        fan = parse_fan(payload["source"], "$")
        assert len(fan.cones) == 6

    def test_large_integers_round_trip_as_strings(self):
        big = 2 ** 60 + 7
        assert _enc_int(big) == str(big)
        assert _enc_int(-big) == str(-big)
        assert _enc_int(41) == 41
        assert _read_int(str(big), "$") == big
        assert _read_int(12, "$") == 12
        with pytest.raises(DocumentError):
            _read_int(True, "$")
        with pytest.raises(DocumentError):
            _read_int(1.5, "$")

    def test_ragged_matrix_names_schema_path(self, capsys):
        code, _ = run_cli("check", "--input", data("bad_ragged.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert "cones[0].rays[1]" in err

    def test_json_syntax_error_carries_position(self):
        with pytest.raises(DocumentError) as exc:
            load_document("{\n  \"version\": ", ("fan",))
        assert "line" in str(exc.value)

    def test_wrong_kind_rejected(self, capsys):
        code, _ = run_cli("reduce", "--input", data("blowup_fan.json"))
        assert code == 2
        assert "kind" in capsys.readouterr().err


class TestUndecided:
    """A search that runs out of budget exits 2, never 1 ("predicate
    false")."""

    def test_huge_hilbert_box_is_refused_at_once(self, tmp_path, capsys):
        doc = {"version": "1", "kind": "fan",
               "payload": {"lattice_rank": 2,
                           "cones": [{"rays": [[1, 0], [1, 10**9]]}]}}
        path = tmp_path / "thin_cone.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli("hilbert", "--input", str(path))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "undecided" in err and "budget" in err

    def test_weak_semistability_out_of_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 0)
        code, _ = run_cli("check", "--input", data("fix_semi.json"),
                          "--weakly-semistable")
        assert code == 2
        assert "undecided" in capsys.readouterr().err


class TestSemantics:
    def test_check_ws_report_names_diagonal_ray(self):
        code, out = run_cli("check", "--input", data("fix_semi.json"),
                            "--weakly-semistable")
        assert code == 1
        assert "(1, 1)" in out

    def test_check_valid_fan_passes(self):
        code, out = run_cli("check", "--input", data("blowup_fan.json"))
        assert code == 0
        assert json.loads(out)["payload"]["ok"] is True

    def test_reduce_double_base_is_two_z(self):
        _, out = run_cli("reduce", "--input", data("fix_double.json"))
        payload = json.loads(out)["payload"]
        ray = next(s for c, s in zip(payload["base"]["cones"],
                                     payload["base"]["sublattices"])
                   if c["rays"])
        assert ray["basis"] == [[2]]

    def test_fanprod_single_two_dimensional_cone(self):
        _, out = run_cli("fanprod", "--left", data("blowup_chart.json"),
                         "--right", data("blowup_chart.json"))
        payload = json.loads(out)["payload"]
        assert payload["lattice_rank"] == 2
        top = [c["rays"] for c in payload["cones"] if len(c["rays"]) == 2]
        assert top == [[[0, 1], [1, 0]]]

    def test_hilbert_basis_values(self):
        _, out = run_cli("hilbert", "--input", data("hilbert_cone.json"))
        payload = json.loads(out)["payload"]
        assert payload["details"] == [[1, 0], [1, 1], [1, 2]]

    def test_render_rejects_rank_one(self, capsys):
        code, _ = run_cli("render", "--input", data("fix_double.json"))
        assert code == 2

    def test_render_shades_both_top_cones(self):
        _, out = run_cli("render", "--input", data("blowup_fan.json"))
        assert out.count("<polygon") == 2
        assert out.count("<line") == 3
        assert out.startswith("<?xml")

    @pytest.mark.parametrize("index,ok", [(0, True), (3, False)])
    def test_cone_index_counts_the_face_closure(self, tmp_path, index, ok):
        # the square's face closure is the origin, (0,1), (1,0), the square:
        # the zero sublattice marks the origin fine and the square not at all
        doc = {"version": "1", "kind": "stacky_fan", "payload": {
            "lattice_rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}],
            "sublattices": [{"cone_index": index, "basis": []}]}}
        path = tmp_path / "square.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli("check", "--valid", "--input", str(path))
        report = json.loads(out)["payload"]
        assert (code, report["ok"]) == ((0, True) if ok else (1, False))
        if ok:
            assert report["details"] == ["valid: yes"]
        else:
            assert report["violations"][0] == (
                "valid: sublattice of ((0, 1), (1, 0)) has infinite index")


# the face closure of the square is the origin, (0,1), (1,0), the square;
# each ray carries the restriction 2Z of the square's lattice
SQUARE_RAYS = [{"cone_index": 1, "basis": [[0, 2]]}, {"cone_index": 2, "basis": [[2, 0]]}]
STACKY_SMOOTHNESS = [
    ({"lattice_rank": 1, "cones": [{"rays": [[1]]}],
      "sublattices": [{"cone_index": 1, "basis": [[2]]}]}, True),
    ({"lattice_rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}],
      "sublattices": SQUARE_RAYS + [{"cone_index": 3, "basis": [[2, 0], [0, 2]]}]},
     True),
    ({"lattice_rank": 2, "cones": [{"rays": [[1, 0], [0, 1]]}],
      "sublattices": SQUARE_RAYS + [{"cone_index": 3, "basis": [[1, 1], [1, -1]]}]},
     False),
]


@pytest.mark.parametrize("payload,smooth", STACKY_SMOOTHNESS,
                         ids=["ray-2Z", "square-2Zx2Z", "square-a+b-even"])
def test_check_smooth_reads_the_sublattices(payload, smooth, tmp_path):
    path = tmp_path / "stacky.json"
    path.write_text(emit_document("stacky_fan", payload))
    _, fan = load_document(path.read_text(), ("stacky_fan",))
    assert validate_stacky_fan(fan)
    assert is_smooth_fan(fan) is smooth
    code, out = run_cli("check", "--smooth", "--input", str(path))
    report = json.loads(out)["payload"]
    assert (code, report["ok"]) == ((0, True) if smooth else (1, False))
    assert report["details" if smooth else "violations"] == [
        f"smooth: {'yes' if smooth else 'no'}"]


# the map (a, b) -> a + b with root stacks of order 2, but the ray (0,1)
# marked by the lattice of (1,0), which does not lie in its span
BAD_SOURCE = {
    "lattice_rank": 2,
    "cones": [{"rays": [[0, 1], [1, 1]]}, {"rays": [[1, 0], [1, 1]]}],
    "sublattices": [{"cone_index": 1, "basis": [[1, 0]]},
                    {"cone_index": 2, "basis": [[2, 0]]},
                    {"cone_index": 3, "basis": [[1, 1]]},
                    {"cone_index": 4, "basis": [[1, 1], [0, 2]]},
                    {"cone_index": 5, "basis": [[1, 1], [0, 2]]}]}
BAD_MORPHISM = {"matrix": [[1, 1]], "source": BAD_SOURCE, "target": {
    "lattice_rank": 1, "cones": [{"rays": [[1]]}],
    "sublattices": [{"cone_index": 1, "basis": [[1]]}]}}


@pytest.mark.parametrize("kind,payload,flags,path", [
    ("stacky_morphism", BAD_MORPHISM, ["--weakly-semistable"], "$.payload.source"),
    ("stacky_morphism", BAD_MORPHISM, ["--representable"], "$.payload.source"),
    ("stacky_morphism", BAD_MORPHISM, ["--valid", "--representable"],
     "$.payload.source"),
    ("stacky_fan", BAD_SOURCE, ["--smooth"], "$.payload"),
], ids=["weakly-semistable", "representable", "valid-representable", "smooth"])
def test_check_predicates_reject_an_invalid_stacky_document(kind, payload, flags,
                                                            path, tmp_path, capsys):
    doc = tmp_path / "bad.json"
    doc.write_text(emit_document(kind, payload))
    code, out = run_cli("check", *flags, "--input", str(doc))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: {path}: not a stacky fan: sublattice of ((0, 1),) is not "
        "contained in Span intersect N\n")
    code, out = run_cli("check", "--valid", "--input", str(doc))
    assert code == 1
    assert json.loads(out)["payload"]["violations"][0] == (
        "valid: sublattice of ((0, 1),) is not contained in Span intersect N")


OVERLAP_VIOLATIONS = [
    "valid: intersection of ((1, 1),) and ((1, 0), (1, 2)) is not a common face",
    "valid: intersection of ((1, 2),) and ((0, 1), (1, 1)) is not a common face",
    "valid: intersection of ((0, 1), (1, 1)) and ((1, 0), (1, 2)) is not a common face",
]


class TestInvalidFans:
    """Cones (1,0),(1,2) and (1,1),(0,1) overlap: no subcommand that builds
    on the fan may accept it, and the error names where it sits."""

    @pytest.mark.parametrize("name", ["overlap_fan.json", "overlap_quad.json"])
    def test_check_valid_lists_every_violation(self, name):
        code, out = run_cli("check", "--input", data(name), "--valid")
        assert code == 1
        assert json.loads(out)["payload"]["violations"] == OVERLAP_VIOLATIONS

    @staticmethod
    def stacky(tmp_path, name):
        """The document with its fans read as stacky fans of full sublattices."""
        with open(data(name)) as fh:
            doc = json.load(fh)
        doc["kind"] = {"fan": "stacky_fan", "fan_morphism": "stacky_morphism"}[doc["kind"]]
        path = tmp_path / f"stacky_{name}"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("name", ["overlap_fan.json", "overlap_quad.json"])
    def test_check_valid_lists_every_violation_of_a_stacky_document(self, name,
                                                                     tmp_path):
        code, out = run_cli("check", "--input", self.stacky(tmp_path, name), "--valid")
        assert code == 1
        assert json.loads(out)["payload"]["violations"] == OVERLAP_VIOLATIONS

    @pytest.mark.parametrize("name,flags,path", [
        ("overlap_quad.json", ["--representable"], "$.payload.source"),
        ("overlap_quad.json", ["--valid", "--representable"], "$.payload.source"),
        ("overlap_blowup.json", ["--valid"], "$.payload.source"),
        ("overlap_quad.json", ["--weakly-semistable"], "$.payload.source"),
        ("overlap_fan.json", ["--smooth"], "$.payload"),
    ], ids=["representable", "valid-representable", "parse-straddle",
            "weakly-semistable", "stacky-fan-smooth"])
    def test_stacky_morphism_rejected_with_json_path(self, name, flags, path,
                                                     tmp_path, capsys):
        code, out = run_cli("check", *flags, "--input", self.stacky(tmp_path, name))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a fan: ")
        assert "is not a common face" in err

    @pytest.mark.parametrize("args,path", [
        (["reduce", "--input", data("overlap_quad.json")], "$.payload.source"),
        (["reduce", "--input", data("overlap_blowup.json")], "$.payload.source"),
        (["factor", "--family", data("overlap_quad.json"),
          "--alteration", data("halfline_x2.json")], "--family: $.payload.source"),
        (["factor", "--family", data("fix_semi.json"),
          "--alteration", data("overlap_quad.json")],
         "--alteration: $.payload.source"),
        (["render", "--input", data("overlap_fan.json")], "$.payload"),
        (["check", "--proper", "--input", data("overlap_quad.json")],
         "$.payload.source"),
        (["check", "--modification", "--input", data("overlap_quad.json")],
         "$.payload.source"),
        (["check", "--alteration", "--input", data("overlap_quad.json")],
         "$.payload.source"),
        (["check", "--valid", "--proper", "--input", data("overlap_quad.json")],
         "$.payload.source"),
        (["check", "--weakly-semistable", "--input", data("overlap_quad.json")],
         "$.payload.source"),
        (["check", "--smooth", "--input", data("overlap_fan.json")], "$.payload"),
        (["hilbert", "--input", data("nested_quad.json")], "$.payload"),
        (["minmod", "--morphism", data("overlap_quad.json"),
          "--subdivision", data("blowup_fan.json")], "--morphism: $.payload.source"),
        (["minmod", "--morphism", data("fix_subdiv.json"),
          "--subdivision", data("nested_quad.json")], "--subdivision: $.payload"),
        (["minmod", "--morphism", data("fix_subdiv.json"),
          "--subdivision", data("overlap_fan.json")], "--subdivision: $.payload"),
        (["fanprod", "--left", data("overlap_quad.json"),
          "--right", data("blowup_chart.json")], "--left: $.payload.source"),
        (["fanprod", "--left", data("blowup_chart.json"),
          "--right", data("overlap_quad.json")], "--right: $.payload.source"),
        (["basechange", "--morphism", data("overlap_quad.json"),
          "--matrix", "[[1, 0], [0, 1]]"], "$.payload.source"),
    ], ids=["reduce", "reduce-straddle", "factor-family", "factor-alteration",
            "render", "check-proper", "check-modification", "check-alteration",
            "check-valid-proper", "check-weakly-semistable", "check-smooth",
            "hilbert-nested", "minmod-morphism", "minmod-subdivision-nested",
            "minmod-subdivision", "fanprod-left", "fanprod-right", "basechange"])
    def test_rejected_with_json_path(self, args, path, capsys):
        code, out = run_cli(*args)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not a fan: ")
        assert "is not a common face" in err


def test_reduce_rejects_a_morphism_that_is_not_proper(tmp_path, capsys):
    # the half line does not cover the line it maps into
    doc = {"version": "1", "kind": "fan_morphism", "payload": {
        "matrix": [[1]],
        "source": {"lattice_rank": 1, "cones": [{"rays": [[1]]}]},
        "target": {"lattice_rank": 1, "cones": [{"rays": [[1]]}, {"rays": [[-1]]}]}}}
    path = tmp_path / "not_proper.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("reduce", "--input", str(path))
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == \
        "error: the morphism is not proper onto the target support\n"


@pytest.mark.parametrize("args,prefix", [
    (["fanprod", "--left", data("blowup_fan.json"),
      "--right", data("blowup_chart.json")], "--left"),
    (["fanprod", "--left", data("blowup_chart.json"),
      "--right", data("blowup_fan.json")], "--right"),
    (["minmod", "--morphism", data("blowup_fan.json"),
      "--subdivision", data("blowup_fan.json")], "--morphism"),
    (["minmod", "--morphism", data("fix_subdiv.json"),
      "--subdivision", data("fix_subdiv.json")], "--subdivision"),
])
def test_multi_document_errors_name_the_option(args, prefix, capsys):
    code, out = run_cli(*args)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith(f"error: {prefix}: $.kind: expected one of ")


@pytest.mark.parametrize("matrix,message", [
    ("[[2],[3]]", "matrix row count does not match codomain rank"),
    ("[]", "matrix row count does not match codomain rank"),
    ("[[0]]", "base change requires a finite-index inclusion"),
])
def test_basechange_matrix_errors_name_the_option(matrix, message, capsys):
    code, out = run_cli("basechange", "--morphism", data("fix_double.json"),
                        "--matrix", matrix)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: --matrix: {message}\n"


@pytest.mark.parametrize("flag,name,needs", [
    ("--proper", "blowup_fan.json", "a fan_morphism"),
    ("--modification", "blowup_fan.json", "a fan_morphism"),
    ("--alteration", "blowup_fan.json", "a fan_morphism"),
    ("--weakly-semistable", "blowup_fan.json", "a morphism"),
    ("--smooth", "fix_semi.json", "a fan"),
    ("--representable", "fix_semi.json", "a stacky_morphism"),
])
def test_check_flag_rejects_other_kinds(flag, name, needs, capsys):
    code, out = run_cli("check", flag, "--input", data(name))
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {flag} requires {needs} document\n"


def test_check_weakly_semistable_names_every_cone_outside_the_target(capsys):
    # the blow-up's cones map by the identity onto cones the quadrant fan
    # does not hold
    code, out = run_cli("check", "--weakly-semistable", "--input",
                        data("fix_subdiv.json"))
    assert code == 1
    assert json.loads(out)["payload"]["violations"] == [
        f"weakly-semistable: cone {rays} fails condition 1: image cone {rays} "
        "is not in the target fan"
        for rays in ("((1, 1),)", "((0, 1), (1, 1))", "((1, 0), (1, 1))")]


class TestReductionResultDocuments:
    @pytest.fixture
    def reduced(self, tmp_path):
        _, out = run_cli("reduce", "--input", data("s_quad.json"))
        path = tmp_path / "reduced.json"
        path.write_text(out)
        return str(path), json.loads(out)["payload"]

    def test_check_does_not_read_one(self, reduced, capsys):
        code, out = run_cli("check", "--input", reduced[0])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            "error: $.kind: expected one of fan, stacky_fan, fan_morphism, "
            "stacky_morphism, cone_complex, complex_morphism\n")

    def test_render_draws_the_refined_base(self, reduced):
        code, out = run_cli("render", "--input", reduced[0])
        cones = reduced[1]["base"]["cones"]
        assert code == 0
        assert out.count("<polygon") == sum(len(c["rays"]) == 2 for c in cones)
        assert out.count("<line") == sum(len(c["rays"]) == 1 for c in cones)


def glued_rays():
    """Two half lines glued at their origin, over the half line by 1 and 2."""
    ray = {"lattice_rank": 1, "rays": [[1]]}
    origin = {"lattice_rank": 1, "rays": []}

    def gluing(cell, chart, face_rays):
        return {"cell": cell, "chart": chart, "embedding": [[1]],
                "face_rays": face_rays}
    source = {"cells": [ray, ray, origin],
              "gluings": [gluing(0, 2, []), gluing(0, 0, [[1]]),
                          gluing(1, 2, []), gluing(1, 1, [[1]]), gluing(2, 2, [])]}
    target = {"cells": [ray, origin],
              "gluings": [gluing(0, 0, [[1]]), gluing(0, 1, []), gluing(1, 1, [])]}
    return {"source": source, "target": target, "assignment": [0, 0, 1],
            "cell_maps": [[[1]], [[2]], [[1]]]}


class TestComplexDocuments:
    @staticmethod
    def write(tmp_path, kind, payload):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"version": "1", "kind": kind, "payload": payload}))
        return str(path)

    @pytest.mark.parametrize("kind", ["cone_complex", "complex_morphism"])
    def test_check_valid_passes(self, tmp_path, kind):
        payload = glued_rays()
        if kind == "cone_complex":
            payload = payload["source"]
        code, out = run_cli("check", "--valid", "--input",
                            self.write(tmp_path, kind, payload))
        assert code == 0
        assert json.loads(out)["payload"]["details"] == ["valid: yes"]

    @pytest.mark.parametrize("kind,edit,message", [
        ("cone_complex", lambda p: p["gluings"][1].update(cell=3),
         "$.payload.gluings[1]: cell index out of range"),
        ("cone_complex", lambda p: p["gluings"][1].update(embedding=[[1], [0]]),
         "$.payload.gluings[1].embedding: row count does not match the cell rank"),
        ("complex_morphism", lambda p: p.update(assignment=[0, 0, 2]),
         "$.payload.assignment: one valid target cell per source cell"),
        ("complex_morphism", lambda p: p["cell_maps"].pop(),
         "$.payload.cell_maps: one matrix per source cell"),
        ("complex_morphism", lambda p: p["cell_maps"][1].append([2]),
         "$.payload.cell_maps[1]: row count does not match the assigned cell rank"),
    ], ids=["gluing-cell", "embedding-rows", "assignment", "cell-map-count",
            "cell-map-rows"])
    def test_malformed_document_names_the_path(self, tmp_path, kind, edit,
                                               message, capsys):
        payload = glued_rays()
        if kind == "cone_complex":
            payload = payload["source"]
        edit(payload)
        code, out = run_cli("check", "--valid", "--input",
                            self.write(tmp_path, kind, payload))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# every input-error path of the command line, by a document or an argv

def fan_payload(rank, *cones):
    return {"lattice_rank": rank, "cones": [{"rays": rays} for rays in cones]}


QUADRANT = fan_payload(2, [[1, 0], [0, 1]])
IDENTITY2 = [[1, 0], [0, 1]]


def document(kind, payload, version="1"):
    return {"version": version, "kind": kind, "payload": payload}


@pytest.mark.parametrize("doc,message", [
    (document("fan", {"lattice_rank": 1, "cones": {}}),
     "$.payload.cones: expected an array"),
    (document("fan", {"cones": []}), "$.payload.lattice_rank: missing"),
    (document("fan", fan_payload(-1)), "$.payload.lattice_rank: must be nonnegative"),
    # the square's face closure has 4 cones
    (document("stacky_fan", {**QUADRANT, "sublattices": [{"cone_index": 4, "basis": []}]}),
     "$.payload.sublattices[0].cone_index: out of range"),
    (document("fan_morphism", {"matrix": [[1], [1]], "source": fan_payload(1, [[1]]),
                               "target": fan_payload(1, [[1]])}),
     "$.payload.matrix: row count does not match the target rank"),
    # the quadrant straddles two cones of a target that is not a fan
    (document("fan_morphism", {"matrix": IDENTITY2, "source": QUADRANT,
                               "target": fan_payload(2, [[1, 0], [0, 1]], [[1, 0], [1, 1]])}),
     "$.payload.target: not a fan: intersection of ((1, 1),) and ((0, 1), (1, 0)) "
     "is not a common face"),
    # ... and of the blow-up, which is a fan
    (document("fan_morphism", {"matrix": IDENTITY2, "source": QUADRANT,
                               "target": fan_payload(2, [[1, 0], [1, 1]], [[1, 1], [0, 1]])}),
     "$.payload: cone with sample (1, 1) straddles the fan cone ((1, 1),)"),
    (document("fan", QUADRANT, version="2"), "$.version: unsupported version '2'"),
    (document("bogus", QUADRANT), "$.kind: unknown kind 'bogus'"),
    # the library's own error while the payload is built
    (document("complex_morphism", {
        "source": {"cells": [{"lattice_rank": 1, "rays": [[1]]}], "gluings": []},
        "target": {"cells": [{"lattice_rank": 1, "rays": [[1]]}], "gluings": []},
        "assignment": [0], "cell_maps": [[[-1]]]}),
     "$.payload: cell 0 does not map into its assigned cell"),
], ids=["not-an-array", "missing", "negative-rank", "cone-index", "matrix-rows",
        "straddles-a-non-fan", "straddles-a-fan", "version", "kind", "library-error"])
def test_check_names_the_json_path_of_a_bad_document(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("check", "--input", str(path)) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_missing_file_is_named(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    assert run_cli("check", "--input", path) == (2, "")
    assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"


@pytest.mark.parametrize("args,message", [
    (["basechange", "--morphism", data("fix_double.json"), "--matrix", "[[2"],
     "--matrix: Expecting ',' delimiter"),
    (["hilbert", "--input", data("blowup_fan.json")],
     "hilbert expects a fan with a unique maximal cone"),
], ids=["matrix-json", "hilbert-two-maximal-cones"])
def test_argv_errors_are_named(args, message, capsys):
    assert run_cli(*args) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_render_rejects_a_rank_one_fan(tmp_path, capsys):
    path = tmp_path / "halfline.json"
    path.write_text(json.dumps(document("fan", fan_payload(1, [[1]]))))
    assert run_cli("render", "--input", str(path)) == (2, "")
    assert capsys.readouterr().err == "error: rendering is only available for rank-2 lattices\n"


def test_factor_reports_a_square_that_does_not_factor(monkeypatch):
    # no stored family and alteration reach this report: the square is
    # built from the reduction it is factored through
    def refuse(obj, red):
        raise NoFactorization("base cone ((1,),) does not land in a single refined cone")
    monkeypatch.setattr(cli, "factor_through", refuse)
    code, out = run_cli("factor", "--family", data("fix_semi.json"),
                        "--alteration", data("halfline_x2.json"))
    assert code == 1
    assert json.loads(out)["payload"] == {
        "ok": False, "details": [],
        "violations": ["base cone ((1,),) does not land in a single refined cone"]}


def test_factor_reports_a_family_that_does_not_factor_over_the_alteration(tmp_path):
    # over the identity of the half line the square's projection is not
    # weakly semistable: fix_semi needs the base change x2 to factor
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(document("fan_morphism", {
        "matrix": [[1]], "source": fan_payload(1, [[1]]), "target": fan_payload(1, [[1]])})))
    code, out = run_cli("factor", "--family", data("fix_semi.json"), "--alteration", str(path))
    assert code == 1
    assert json.loads(out)["payload"] == {
        "ok": False, "details": [],
        "violations": ["the family does not factor over the alteration: the projection "
                       "is not weakly semistable; failing cones: ((-1, 2),)"]}
