"""Tests of the benchmark's checker and inputs.

    python3 -m pytest perfbench/test_check.py

The checker must accept the library's real outputs and reject corrupted
ones.  The outputs are produced here with the library from `src/`; the
checker itself never imports it.
"""
from __future__ import annotations

import copy
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen_inputs  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from semistable import cli  # noqa: E402


def spec(workload, name):
    return next(s for s in wl.WORKLOADS[workload] if s["name"] == name)


def run_cli(spec_):
    argv = [os.path.join(HERE, "inputs", a[1:] + ".json") if a.startswith("@")
            else a for a in spec_["args"]]
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return {"code": code, "out": out.getvalue()}


def test_inputs_match_definitions():
    assert gen_inputs.main(["--check"]) == 0


def test_checker_does_not_import_semistable():
    code = ("import sys; sys.path.insert(0, %r); import check; "
            "assert not [m for m in sys.modules if m.startswith('semistable')]"
            % HERE)
    subprocess.run([sys.executable, "-c", code], check=True)


def test_benchmark_json_matches_run():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_cone_oracle():
    quad = check.ConeOracle([(1, 0), (0, 1)], 2)
    assert quad.contains((3, 0)) and quad.contains((1, 5))
    assert not quad.contains((-1, 1))
    # a non-simplicial cone: membership needs the Caratheodory subsets
    pyramid = check.ConeOracle([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    assert pyramid.contains((0, 0, 1)) and pyramid.contains((1, 0, 1))
    assert not pyramid.contains((1, 1, 1))
    ray = check.ConeOracle([(1, 2)], 2)
    assert ray.contains((2, 4)) and not ray.contains((1, 1))


def test_hilbert_brute_force():
    assert check.hilbert_brute(2, [(1, 0), (1, 2)]) == [(1, 0), (1, 1), (1, 2)]
    assert check.hilbert_brute(2, [(1, 0), (0, 1)]) == [(0, 1), (1, 0)]
    assert check.hilbert_brute(2, [(1, 0), (3, 7)]) == [(1, 0), (1, 1), (1, 2),
                                                        (3, 7)]


@pytest.fixture(scope="module")
def rank2_outputs():
    specs = [s for s in wl.RANK2_CLI
             if s["args"][0] in ("reduce", "factor", "hilbert", "render")]
    return {s["name"]: run_cli(s) for s in specs}


def by_name(outputs):
    return {k: v["out"] for k, v in outputs.items()}


def test_real_outputs_pass(rank2_outputs):
    for name, out in rank2_outputs.items():
        assert check.check_op(spec("rank2_cli", name), out,
                              by_name(rank2_outputs)) == [], name


def _corrupt_reduce(outputs, name, edit):
    out = copy.deepcopy(outputs[name])
    doc = json.loads(out["out"])
    edit(doc["payload"])
    out["out"] = json.dumps(doc)
    return check.check_op(spec("rank2_cli", name), out, by_name(outputs))


def test_corrupted_base_sublattice_rejected(rank2_outputs):
    def edit(pl):
        for e in pl["base"]["sublattices"]:
            if e["basis"] == [[2]]:
                e["basis"] = [[1]]
    assert _corrupt_reduce(rank2_outputs, "reduce --input fix_semi", edit)


def test_corrupted_total_sublattice_rejected(rank2_outputs):
    def edit(pl):
        top = max(pl["total"]["sublattices"], key=lambda e: len(e["basis"]))
        top["basis"] = [[1, 0], [0, 1]]
    problems = _corrupt_reduce(rank2_outputs, "reduce --input fix_semi", edit)
    assert any("representable" in p or "lift" in p for p in problems)


def test_dropped_total_cone_rejected(rank2_outputs):
    def edit(pl):
        cones = pl["total"]["cones"]
        drop = max(range(len(cones)), key=lambda i: len(cones[i]["rays"]))
        del cones[drop]
        pl["total"]["sublattices"] = [
            {"cone_index": i, "basis": e["basis"]}
            for i, e in enumerate(x for x in pl["total"]["sublattices"]
                                  if x["cone_index"] != drop)]
    problems = _corrupt_reduce(rank2_outputs, "reduce --input fix_semi", edit)
    assert any("support differs" in p for p in problems)


def test_corrupted_factor_assignment_rejected(rank2_outputs):
    name = "factor --family fix_semi --alteration halfline_x2"
    out = copy.deepcopy(rank2_outputs[name])
    doc = json.loads(out["out"])
    details = doc["payload"]["details"]
    i = details.index("total: ((0, 1),) -> ((1, 0),)")
    details[i] = "total: ((0, 1),) -> ((0, 1),)"
    out["out"] = json.dumps(doc)
    assert check.check_op(spec("rank2_cli", name), out, by_name(rank2_outputs))


def test_corrupted_hilbert_basis_rejected(rank2_outputs):
    name = "hilbert --input hilbert_cone_57"
    out = copy.deepcopy(rank2_outputs[name])
    doc = json.loads(out["out"])
    doc["payload"]["details"].pop()
    out["out"] = json.dumps(doc)
    assert check.check_op(spec("rank2_cli", name), out, by_name(rank2_outputs))


def test_corrupted_render_rejected(rank2_outputs):
    name = "render --input blowup_fan"
    out = copy.deepcopy(rank2_outputs[name])
    out["out"] = out["out"].replace("100.00", "50.00", 1)
    assert check.check_op(spec("rank2_cli", name), out, by_name(rank2_outputs))


def test_wrong_exit_code_rejected():
    s = spec("rank2_cli", "check --weakly-semistable --input fix_semi")
    out = run_cli(s)
    assert check.check_op(s, out, {}) == []
    assert check.check_op(s, dict(out, code=0), {})


def test_kato_counterexample_verified():
    s = next(x for x in wl.MONOID_CHECKS if x["op"] == "kato" and x["map"] == 11)
    assert check.check_op(s, [False, [[4, 0], [8, 0], [4, 4], [0, 4]]], {}) == []
    # p1 + q1 != p2 + q2
    assert check.check_op(s, [False, [[4, 0], [8, 0], [4, 4], [0, 5]]], {})
    # claiming integrality of the non-flat chart is wrong
    assert check.check_op(s, [True, None], {})
