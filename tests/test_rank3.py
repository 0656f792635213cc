"""Rank-3 to rank-5 regression, and properties of the pipeline on random
projections of rank 1 to 3.  Fixed cases: S is the star subdivision of the positive
octant at c = (1, 1, 1), mapped onto the ray by (1, 1, 1) and onto the
quadrant by [[1, 1, 0], [0, 1, 2]]; S^4 is the star subdivision of the
positive 4-orthant at (1, 1, 1, 1), mapped onto the quadrant by
[[1, 1, 0, 0], [0, 0, 1, 1]], and S^5 that of the positive 5-orthant at
(1, 1, 1, 1, 1), mapped onto it by [[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]]."""
import io
import json
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings

from semistable.cli import load_document, main
from semistable.cone import Cone
from semistable.conecomplex import fan_morphism_as_complex, reduce_complex
from semistable.fan import FanError, is_proper, is_representable, is_weakly_semistable
from semistable.monoid import BudgetExceeded
from semistable.reduction import ReductionError, reduce
from test_support import morphism, projections

DATA = os.path.join(os.path.dirname(__file__), "data")
S_RAY = os.path.join(DATA, "s_ray.json")


@pytest.fixture(scope="module")
def family():
    with open(S_RAY) as fh:
        _, p = load_document(fh.read(), ("fan_morphism",))
    return p


@pytest.fixture(scope="module")
def reduced(family):
    return reduce(family)


def test_cli_reduce_matches_golden_file():
    out = io.StringIO()
    assert main(["reduce", "--input", S_RAY], out=out) == 0
    with open(os.path.join(DATA, "golden", "reduce_s_ray.json")) as fh:
        assert out.getvalue() == fh.read()


@pytest.mark.parametrize("name,base,total", [("s_quad", 8, 30), ("s4_quad", 6, 62),
                                             ("s5_quad", 6, 142)])
def test_cli_reduce_matches_golden_file_with_cone_counts(name, base, total):
    out = io.StringIO()
    assert main(["reduce", "--input", os.path.join(DATA, f"{name}.json")], out=out) == 0
    with open(os.path.join(DATA, "golden", f"reduce_{name}.json")) as fh:
        assert out.getvalue() == fh.read()
    payload = json.loads(out.getvalue())["payload"]
    assert len(payload["base"]["cones"]) == base
    assert len(payload["total"]["cones"]) == total


def test_hand_derived_figures(family, reduced):
    # the ray is already the coarsest base, so the total fan stays S:
    # the origin, 4 rays, 6 two-dimensional and 3 maximal cones
    assert reduced.total.fan.cones == family.source.cones
    assert len(reduced.total.fan.cones) == 14
    ray = Cone.from_generators(1, [(1,)])
    assert reduced.base.fan.cones == (Cone.zero(1), ray)
    # c maps to 3, and its image lattice 3Z meets every other one
    assert reduced.base.sublattice(ray).vectors() == [(3,)]


def test_fan_and_complex_pipelines_agree(family, reduced):
    assert_pipelines_agree(reduced, reduce_complex(fan_morphism_as_complex(family)))


def assert_pipelines_agree(reduced, cres):
    base = dict(zip(cres.base.complex.cells, cres.base.sublattices))
    assert set(base) == set(reduced.base.fan.cones)
    for c in reduced.base.fan.cones:
        assert base[c].basis == reduced.base.sublattice(c).basis
    total = dict(zip(cres.total.complex.cells, cres.total.sublattices))
    assert set(total) == set(reduced.total.fan.cones)
    for c in reduced.total.fan.cones:
        assert total[c].basis == reduced.total.sublattice(c).basis


@pytest.mark.parametrize("name", ["s_quad", "s4_quad", "s5_quad"])
def test_both_pipelines_reach_the_golden_file_without_hilbert_bases(name, monkeypatch):
    # the lattice certificate decides weak semistability of every cone
    def no_hilbert_basis(*args):
        raise AssertionError("a Hilbert basis was computed")

    monkeypatch.setattr("semistable.monoid.hilbert_basis", no_hilbert_basis)
    path = os.path.join(DATA, f"{name}.json")
    out = io.StringIO()
    assert main(["reduce", "--input", path], out=out) == 0
    with open(os.path.join(DATA, "golden", f"reduce_{name}.json")) as fh:
        assert out.getvalue() == fh.read()
    with open(path) as fh:
        _, p = load_document(fh.read(), ("fan_morphism",))
    assert_pipelines_agree(reduce(p), reduce_complex(fan_morphism_as_complex(p)))


def test_pipeline_properties_on_random_projections():
    """A proper projection reduces, or fails with a typed error; a
    reduction is weakly semistable and representable, reducing its
    underlying morphism again keeps both fans, and the complex pipeline
    gives the same cells and sublattices."""
    shapes = set()

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(projections())
    def check(case):
        source, target, rows = case
        try:
            p = morphism(source, target, rows)
        except FanError:
            assume(False)
        assume(is_proper(p))
        try:
            red = reduce(p)
        except (ReductionError, FanError, BudgetExceeded):
            shapes.add("error")
            return
        assert is_weakly_semistable(red.stacky_map)
        assert is_representable(red.stacky_map)
        again = reduce(red.stacky_map.underlying)
        assert (again.base.fan, again.total.fan) == (red.base.fan, red.total.fan)
        assert_pipelines_agree(red, reduce_complex(fan_morphism_as_complex(p)))
        shapes.add((source.lattice.rank, target.lattice.rank, len(red.total.fan.cones)))

    # most draws are no proper fan morphism; 60 proper ones of 16 shapes
    # when written, none of them failing
    check()
    reduced = shapes - {"error"}
    assert len(reduced) > 1 and {rank for rank, _, _ in reduced} == {1, 2, 3}
