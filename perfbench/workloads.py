"""The operations of each workload, as plain data.

An operation is a dict with an `op` kind and its inputs; `@name` stands for
the input document `inputs/name.json`.  `expect` holds what the checker
compares the output with beyond the generic checks in `check.py`.  Nothing
here imports `semistable`: the worker builds the library objects, the
checker reads the same specs.
"""
from __future__ import annotations

import families as fam


def cli(*args, expect=None):
    name = " ".join(a[1:] if a.startswith("@") else a for a in args)
    return {"op": "cli", "name": name, "args": list(args),
            "expect": dict(expect or {})}


def _check(flag, doc, ok, **more):
    expect = {"code": 0 if ok else 1, "ok": ok}
    expect.update(more)
    return cli("check", flag, "--input", f"@{doc}", expect=expect)


def _reduce(family):
    return cli("reduce", "--input", f"@{family}", expect={"code": 0,
                                                          "family": family})


RANK3_REDUCE = [
    _reduce("s_ray"),
    _reduce("s_quad"),
    cli("check", "--valid", "--proper", "--input", "@s_ray",
        expect={"code": 0, "ok": True, "details": ["valid: yes", "proper: yes"]}),
    cli("check", "--valid", "--proper", "--input", "@s_quad",
        expect={"code": 0, "ok": True, "details": ["valid: yes", "proper: yes"]}),
]

COMPLEX_REDUCE = [
    {"op": "reduce_complex", "name": "reduce_complex s_ray", "family": "s_ray",
     "expect": {}},
    {"op": "reduce_complex", "name": "reduce_complex s_quad", "family": "s_quad",
     "expect": {}},
    {"op": "reduce_complex", "name": "reduce_complex glued_rays",
     "complex": "glued_rays", "expect": {"base_ray": [[2]]}},
    {"op": "reduce_complex", "name": "reduce_complex glued_quadrants",
     "complex": "glued_quadrants", "expect": {"base_ray": [[2]]}},
]

RANK2_CLI = [
    _check("--valid", "fix_semi", True, details=["valid: yes"]),
    _check("--proper", "fix_semi", True, details=["proper: yes"]),
    _check("--proper", "p1xp1_p1", True, details=["proper: yes"]),
    _check("--modification", "fix_subdiv", True, details=["modification: yes"]),
    _check("--modification", "fix_semi", False, violations=["modification: no"]),
    _check("--alteration", "halfline_x2", True, details=["alteration: yes"]),
    _check("--alteration", "finer_to_quad", True, details=["alteration: yes"]),
    _check("--weakly-semistable", "fix_semi", False,
           violations=["weakly-semistable: cone ((1, 1),) fails condition 2"]),
    _check("--weakly-semistable", "p1xp1_p1", True,
           details=["weakly-semistable: yes"]),
    _check("--smooth", "blowup_fan", True, details=["smooth: yes"]),
    _check("--smooth", "hilbert_cone", False, violations=["smooth: no"]),
    _check("--representable", "semi_stacky", True,
           details=["representable: yes"]),
    _check("--weakly-semistable", "semi_stacky", True,
           details=["weakly-semistable: yes"]),
    _check("--valid", "glued_quadrants", True, details=["valid: yes"]),
    _check("--valid", "glued_rays", True, details=["valid: yes"]),
    _reduce("fix_semi"),
    _reduce("fix_double"),
    _reduce("fix_subdiv"),
    _reduce("quad_proj"),
    _reduce("blowup_line_d2"),
    _reduce("blowup_line_d3"),
    _reduce("mult_k2"),
    _reduce("mult_k3"),
    _reduce("p1xp1_p1"),
    cli("factor", "--family", "@fix_semi", "--alteration", "@halfline_x2",
        expect={"code": 0, "family": "fix_semi", "alteration": "halfline_x2"}),
    cli("factor", "--family", "@fix_semi", "--alteration", "@halfline_x4",
        expect={"code": 0, "family": "fix_semi", "alteration": "halfline_x4"}),
    cli("factor", "--family", "@fix_double", "--alteration", "@halfline_x2",
        expect={"code": 0, "family": "fix_double", "alteration": "halfline_x2"}),
    cli("factor", "--family", "@fix_subdiv", "--alteration", "@quad_ident",
        expect={"code": 0, "family": "fix_subdiv", "alteration": "quad_ident"}),
    cli("factor", "--family", "@fix_subdiv", "--alteration", "@finer_to_quad",
        expect={"code": 0, "family": "fix_subdiv",
                "alteration": "finer_to_quad"}),
    cli("minmod", "--morphism", "@fix_subdiv", "--subdivision", "@blowup_fan",
        expect={"code": 0, "family": "fix_subdiv", "subdivision": "blowup_fan"}),
    cli("minmod", "--morphism", "@fix_subdiv", "--subdivision", "@finer_fan",
        expect={"code": 0, "family": "fix_subdiv", "subdivision": "finer_fan"}),
    cli("fanprod", "--left", "@blowup_chart", "--right", "@blowup_chart",
        expect={"code": 0, "rank": 2, "maximal": [[2, 1]]}),
    cli("fanprod", "--left", "@fix_double", "--right", "@halfline_x3",
        expect={"code": 0, "rank": 1, "maximal": [[1, 1]]}),
    cli("basechange", "--morphism", "@fix_double", "--matrix", "[[2]]",
        expect={"code": 0, "family": "fix_double", "matrix": [[2]]}),
    cli("basechange", "--morphism", "@fix_semi", "--matrix", "[[2]]",
        expect={"code": 0, "family": "fix_semi", "matrix": [[2]]}),
    cli("basechange", "--morphism", "@fix_semi", "--matrix", "[[3]]",
        expect={"code": 0, "family": "fix_semi", "matrix": [[3]]}),
    cli("hilbert", "--input", "@hilbert_cone", expect={"code": 0,
                                                       "fan": "hilbert_cone"}),
    cli("hilbert", "--input", "@hilbert_cone_57",
        expect={"code": 0, "fan": "hilbert_cone_57"}),
    cli("hilbert", "--input", "@hilbert_cone_oct",
        expect={"code": 0, "fan": "hilbert_cone_oct"}),
    cli("render", "--input", "@blowup_fan", expect={"code": 0,
                                                    "fan": "blowup_fan"}),
    cli("render", "--input", "@finer_fan", expect={"code": 0, "fan": "finer_fan"}),
    cli("render", "--input", "@plane_fan", expect={"code": 0, "fan": "plane_fan"}),
]


def _monoid_ops():
    ops = []
    # the maps are stored in inputs/monoid_maps.json; their count is fixed
    # by the families, so the specs refer to them by position
    for i in range(12):
        ops.append({"op": "kato", "name": f"kato_integral map {i}", "map": i,
                    "height": fam.KATO_HEIGHT, "expect": {}})
    for k in fam.CARTESIAN_KS:
        ops.append({"op": "cartesian", "name": f"cartesian_check quad_proj x{k}",
                    "p": "quad_proj", "k": k, "expect": {"ok": True}})
    ops.append({"op": "cartesian", "name": "cartesian_check blowup_chart^2",
                "p": "blowup_chart", "q": "blowup_chart",
                "expect": {"ok": False}})
    for rank, rays in fam.HILBERT_CONES:
        ops.append({"op": "hilbert", "name": f"hilbert_basis {rays}",
                    "rank": rank, "rays": [list(r) for r in rays], "expect": {}})
    return ops


MONOID_CHECKS = _monoid_ops()

WORKLOADS = {
    "rank3_reduce": RANK3_REDUCE,
    "complex_reduce": COMPLEX_REDUCE,
    "rank2_cli": RANK2_CLI,
    "monoid_checks": MONOID_CHECKS,
}
