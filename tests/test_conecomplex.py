import ast
import importlib.util
import itertools
import os
import re
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from semistable import conecomplex, monoid, reduction
from semistable.cli import DocumentError, load_document
from semistable.cone import Cone, relint_owner, span_sublattice
from semistable.conecomplex import (
    ComplexError,
    ComplexMorphism,
    ConeComplex,
    Gluing,
    _assemble_complex,
    _CellRun,
    _cut_source_cell,
    _key,
    _moved_images,
    _run_target_cell,
    complex_N0,
    complex_weak_semistability,
    fan_as_complex,
    fan_morphism_as_complex,
    reduce_complex,
    validate_complex,
    validate_complex_morphism,
)
from semistable.fan import Fan, FanError, FanMorphism, covers, decompose_by_hyperplanes
from semistable.lattice import (
    Lattice,
    LatticeMap,
    full_sublattice,
    identity,
    image_lattice,
    intersect_sublattices,
    mat,
    matmul,
    sublattice_from_vectors,
    vec_neg,
)
from semistable.monoid import BudgetExceeded
from semistable.reduction import ReductionError, reduce, refine_by_images
from test_support import DOCUMENTS, dropping_the_last_piece, drops, points, projections, stellar
from test_support import morphism as fan_morphism


def lmap(rows):
    rows = mat(rows)
    return LatticeMap(Lattice(len(rows[0])), Lattice(len(rows)), rows)


def cone(rank, *gens):
    return Cone.from_generators(rank, gens)


def blowup_fan():
    return Fan.from_cones(2, [cone(2, (1, 0), (1, 1)), cone(2, (1, 1), (0, 1))])


def quadrant_fan():
    return Fan.from_cones(2, [cone(2, (1, 0), (0, 1))])


def halfline_fan():
    return Fan.from_cones(1, [cone(1, (1,))])


def fix_semi():
    return FanMorphism(blowup_fan(), halfline_fan(), lmap([[1, 1]]))


def fix_double():
    f = halfline_fan()
    return FanMorphism(f, f, lmap([[2]]))


def fix_subdiv():
    return FanMorphism(blowup_fan(), quadrant_fan(),
                       LatticeMap.identity_map(Lattice(2)))


def two_rays_glued_at_origin():
    """Two copies of the half line sharing only the origin; not a fan."""
    ray = cone(1, (1,))
    zero = Cone.from_generators(1, [])
    ident = LatticeMap.identity_map(Lattice(1))
    cells = (ray, ray, zero)
    gl = (Gluing(0, zero, 2, ident), Gluing(0, ray, 0, ident),
          Gluing(1, zero, 2, ident), Gluing(1, ray, 1, ident),
          Gluing(2, zero, 2, ident))
    return ConeComplex(cells, gl)


def halfline_complex():
    return fan_as_complex(halfline_fan())


def two_copies_morphism():
    src = two_rays_glued_at_origin()
    tgt = halfline_complex()
    zero_t = next(i for i, c in enumerate(tgt.cells) if c.dim == 0)
    ray_t = next(i for i, c in enumerate(tgt.cells) if c.dim == 1)
    return ComplexMorphism(src, tgt,
                           (lmap([[1]]), lmap([[2]]), lmap([[1]])),
                           (ray_t, ray_t, zero_t))


def ray_collapsed_over_halfline():
    """The rays (1,0) and (0,1) of Z^2 over the half line by (0 1), each
    complex's origin a cell of rank 0.  The ray (1,0) goes to the origin,
    which only the zero cell covers, yet it is assigned to the half line."""
    ray_x, ray_y = cone(2, (1, 0)), cone(2, (0, 1))
    zero0 = Cone.zero(0)
    ident0, ident1, ident2 = (LatticeMap.identity_map(Lattice(n)) for n in (0, 1, 2))
    from_zero = [LatticeMap(Lattice(0), Lattice(n), ((),) * n) for n in (1, 2)]
    src = ConeComplex((ray_x, ray_y, zero0), (
        Gluing(0, ray_x, 0, ident2), Gluing(0, Cone.zero(2), 2, from_zero[1]),
        Gluing(1, ray_y, 1, ident2), Gluing(1, Cone.zero(2), 2, from_zero[1]),
        Gluing(2, zero0, 2, ident0)))
    half = cone(1, (1,))
    tgt = ConeComplex((half, zero0), (
        Gluing(0, half, 0, ident1), Gluing(0, Cone.zero(1), 1, from_zero[0]),
        Gluing(1, zero0, 1, ident0)))
    proj = lmap([[0, 1]])
    return ComplexMorphism(src, tgt, (proj, proj, LatticeMap.identity_map(Lattice(0))),
                           (0, 0, 1))


class TestValidation:
    def test_fan_as_complex_ok(self):
        assert validate_complex(fan_as_complex(blowup_fan()))
        assert validate_complex(fan_as_complex(quadrant_fan()))

    def test_two_glued_rays_ok(self):
        assert validate_complex(two_rays_glued_at_origin())

    def test_non_saturated_embedding_reported(self):
        ray = cone(1, (1,))
        zero = Cone.from_generators(1, [])
        ident = LatticeMap.identity_map(Lattice(1))
        double = lmap([[2]])
        cells = (ray, ray, zero)
        gl = (Gluing(0, ray, 1, double), Gluing(0, zero, 2, ident),
              Gluing(1, ray, 1, ident), Gluing(1, zero, 2, ident),
              Gluing(2, zero, 2, ident))
        report = validate_complex(ConeComplex(cells, gl))
        assert any("non-saturated" in v for v in report.violations)

    def test_unglued_face_reported(self):
        ray = cone(1, (1,))
        ident = LatticeMap.identity_map(Lattice(1))
        report = validate_complex(ConeComplex((ray,), (Gluing(0, ray, 0, ident),)))
        assert any("not glued" in v for v in report.violations)

    def test_duplicate_gluing_reported(self):
        cx = two_rays_glued_at_origin()
        report = validate_complex(ConeComplex(cx.cells,
                                              cx.gluings + (cx.gluings[0],)))
        assert any("glued twice" in v for v in report.violations)


def quadrant_complex():
    """The quadrant fan as a complex: cells (), (0,1), (1,0), the quadrant."""
    return fan_as_complex(quadrant_fan())


def regluing(cx, old, new):
    return ConeComplex(cx.cells, tuple(new if g == old else g for g in cx.gluings))


def quadrant_face_gluing(cx, rays):
    return next(g for g in cx.gluings if g.cell == 3 and g.face.rays == rays)


def ray_copies(zero_chart_of_copy):
    """Cell 1 is a copy of the ray cell 0 and the origin of cell 0 is glued
    to cell 2; the origin of the copy is glued to `zero_chart_of_copy`."""
    ray, zero = cone(1, (1,)), Cone.zero(1)
    ident = LatticeMap.identity_map(Lattice(1))
    return ConeComplex((ray, ray, zero, zero), (
        Gluing(0, ray, 0, ident), Gluing(0, zero, 2, ident),
        Gluing(1, ray, 0, ident), Gluing(1, zero, zero_chart_of_copy, ident),
        Gluing(2, zero, 2, ident), Gluing(3, zero, 3, ident)))


def violating_complexes():
    """Name: (a complex that breaks one rule, the one violation reported)."""
    ident2 = LatticeMap.identity_map(Lattice(2))
    zero1, zero2 = Cone.zero(1), Cone.zero(2)
    quad = quadrant_complex()
    half = halfline_complex()
    return {
        "lines": (ConeComplex((Cone.from_generators(1, [(1,), (-1,)]),), ()),
                  "cell 0 is not strictly convex"),
        "non-face": (ConeComplex(quad.cells, quad.gluings +
                                 (Gluing(3, cone(2, (1, 1)), 3, ident2),)),
                     "gluing on cell 3 names ((1, 1),), which is not a face "
                     "of the cell"),
        "wrong-lattices": (regluing(half, half.gluings[2],
                                    Gluing(1, cone(1, (1,)), 1, ident2)),
                           "embedding for face ((1,),) of cell 1 connects the "
                           "wrong lattices"),
        "non-injective": (ConeComplex((zero1, zero2), (
            Gluing(0, zero1, 1, lmap([[1, 1]])), Gluing(1, zero2, 1, ident2))),
            "embedding into cell 0 is not injective"),
        "not-onto": (regluing(quad, quadrant_face_gluing(quad, ((1, 0),)),
                              Gluing(3, cone(2, (1, 0)), 2, lmap([[0, 1], [1, 0]]))),
                     "chart 2 does not map onto face ((1, 0),) of cell 3"),
        "composite-reaches-another-cell": (
            ray_copies(3),
            "cell 1, face (): gluing through chart 0 reaches cell 2, "
            "directly it reaches 3"),
        "composite-disagrees": (
            ConeComplex((zero1,), (Gluing(0, zero1, 0, lmap([[-1]])),)),
            "cell 0, face (): composite gluing disagrees with the direct one"),
    }


VIOLATIONS = violating_complexes()


class TestValidationViolations:
    @pytest.mark.parametrize("name", VIOLATIONS)
    def test_violation_reported_alone(self, name):
        cx, message = VIOLATIONS[name]
        assert validate_complex(cx).violations == (message,)

    def test_copy_whose_faces_follow_the_original_passes(self):
        assert validate_complex(ray_copies(2))

    def test_report_lists_gluing_violations_in_order_then_unglued_faces(self):
        quad = quadrant_complex()
        ray_x = quadrant_face_gluing(quad, ((1, 0),))
        ray_y = quadrant_face_gluing(quad, ((0, 1),))
        gl = [Gluing(3, ray_x.face, 2, lmap([[0, 1], [1, 0]])) if g == ray_x else g
              for g in quad.gluings if g != ray_y]
        gl += [Gluing(3, cone(2, (1, 1)), 3, quad.gluings[0].embedding),
               quad.gluings[0]]
        assert validate_complex(ConeComplex(quad.cells, tuple(gl))).violations == (
            "chart 2 does not map onto face ((1, 0),) of cell 3",
            "gluing on cell 3 names ((1, 1),), which is not a face of the cell",
            "face () of cell 0 is glued twice",
            "face ((0, 1),) of cell 3 is not glued")


# ---------------------------------------------------------------------------
# composites by the codimension-one lemma against every face

def quadrant_copy(zero_chart_of_copy):
    """Cell 4 is a copy of the quadrant cell 3, its rays glued like the
    quadrant's; the origin of the copy, a face of codimension 2, is glued
    to `zero_chart_of_copy`, and cell 5 is a second origin."""
    quad = quadrant_complex()
    ident2 = LatticeMap.identity_map(Lattice(2))
    zero2 = Cone.zero(2)
    copy = tuple(Gluing(4, g.face, g.chart if g.face.dim else zero_chart_of_copy,
                        g.embedding)
                 for g in quad.gluings if g.cell == 3)
    return ConeComplex(quad.cells + (quad.cells[3], zero2),
                       quad.gluings + copy + (Gluing(5, zero2, 5, ident2),))


def rays_through_each_other():
    """Two rays, each glued to itself through the other's chart."""
    ray, zero = cone(1, (1,)), Cone.zero(1)
    ident = LatticeMap.identity_map(Lattice(1))
    return ConeComplex((ray, ray, zero), (
        Gluing(0, ray, 1, ident), Gluing(0, zero, 2, ident),
        Gluing(1, ray, 0, ident), Gluing(1, zero, 2, ident),
        Gluing(2, zero, 2, ident)))


def quadrant_swapped_onto_itself():
    """The quadrant glued to itself by the swap of its rays."""
    quad = quadrant_complex()
    self_gluing = quadrant_face_gluing(quad, ((0, 1), (1, 0)))
    return regluing(quad, self_gluing,
                    Gluing(3, self_gluing.face, 3, lmap([[0, 1], [1, 0]])))


BROKEN_COMPOSITES = {
    "codimension-2-face": (quadrant_copy(5), "cell 4, face (): gluing through "
                           "chart 3 reaches cell 0, directly it reaches 5"),
    "self-gluing-through-another-chart": (
        rays_through_each_other(),
        "cell 0, face ((1,),): gluing through chart 1 reaches cell 0, "
        "directly it reaches 1"),
    "non-identity-self-gluing": (
        quadrant_swapped_onto_itself(),
        "cell 3, face (): composite gluing disagrees with the direct one"),
}


def stored_complexes():
    """Name: complex, for the source and target of every fan or complex
    morphism stored in tests/data and perfbench/inputs, and the base and
    total complexes that reduce_complex glues from it."""
    found = {}
    for path in DOCUMENTS:
        with open(path) as fh:
            try:
                kind, m = load_document(fh.read(), ("fan_morphism", "complex_morphism"))
            except DocumentError:
                continue
        if kind == "fan_morphism":
            m = fan_morphism_as_complex(m)
        name = os.path.relpath(path, os.path.join(os.path.dirname(__file__), ".."))
        found[f"{name}:source"], found[f"{name}:target"] = m.source, m.target
        try:
            cres = reduce_complex(m)
        except ReductionError:
            continue
        found[f"{name}:base"] = cres.base.complex
        found[f"{name}:total"] = cres.total.complex
    return found


STORED = stored_complexes()
COMPARED = {**STORED,
            **{name: cx for name, (cx, _) in {**VIOLATIONS, **BROKEN_COMPOSITES}.items()},
            "copy-whose-faces-follow-the-original": ray_copies(2),
            "quadrant-copy-whose-faces-follow-the-original": quadrant_copy(0)}


class TestCompositesByLemma:
    def test_stored_complexes_are_found(self):
        # 28 morphisms when written, 26 of them reduced
        assert len(STORED) >= 108

    @pytest.mark.parametrize("name", COMPARED)
    def test_report_matches_every_face_oracle(self, name):
        cx = COMPARED[name]
        assert (validate_complex(cx).violations
                == oracles.validate_complex_every_face(cx).violations)

    def test_both_outcomes_are_compared(self):
        valid = [name for name, cx in COMPARED.items() if validate_complex(cx)]
        assert set(STORED) <= set(valid)
        assert len(COMPARED) - len(valid) == len(VIOLATIONS) + len(BROKEN_COMPOSITES)

    @pytest.mark.parametrize("name", BROKEN_COMPOSITES)
    def test_broken_composite_is_named(self, name):
        cx, message = BROKEN_COMPOSITES[name]
        assert message in validate_complex(cx).violations

    def test_codimension_two_line_comes_from_the_pass_over_every_face(self):
        # the pairs of the copy's rays with its origin fail in codimension
        # 1; the origin sits in codimension 2 under the copy's self-gluing,
        # so only the rerun over every face names the last line
        cx, message = BROKEN_COMPOSITES["codimension-2-face"]
        assert validate_complex(cx).violations == (
            "cell 4, face (): gluing through chart 1 reaches cell 0, "
            "directly it reaches 5",
            "cell 4, face (): gluing through chart 2 reaches cell 0, "
            "directly it reaches 5",
            message)


@st.composite
def stellar_complexes(draw):
    """fan_as_complex of a stellar fan, next to a copy of itself; when a
    gluing of the copy is drawn, it is glued to the original's chart
    instead, which breaks composites and nothing else.  The drawn gluing is
    not the copy's origin in a ray or the copy of the origin cell: a copy
    may share those with the original."""
    rank = draw(st.integers(1, 3))
    cx = fan_as_complex(stellar(rank, draw(points(rank)), draw(drops)))
    n = len(cx.cells)
    copy = [Gluing(g.cell + n, g.face, g.chart + n, g.embedding) for g in cx.gluings]
    breakable = [k for k, g in enumerate(cx.gluings)
                 if g.face.dim >= 1 or cx.cells[g.cell].dim >= 2]
    k = draw(st.none() | st.sampled_from(breakable)) if breakable else None
    if k is not None:
        copy[k] = Gluing(copy[k].cell, copy[k].face, copy[k].chart - n,
                         copy[k].embedding)
    return ConeComplex(cx.cells * 2, cx.gluings + tuple(copy)), k is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stellar_complexes())
def test_composites_by_lemma_match_every_face_on_stellar_fans(case):
    cx, broken = case
    report = validate_complex(cx)
    assert report.violations == oracles.validate_complex_every_face(cx).violations
    assert bool(report) != broken


class TestGluingIndex:
    @pytest.mark.parametrize("name", COMPARED)
    def test_lookups_match_the_scans(self, name):
        # every face of every strictly convex cell, every cell and glued face,
        # and every (cell, chart) pair a gluing names, with one cell and one
        # chart that none names
        cx = COMPARED[name]
        faces = {(i, f) for i, c in enumerate(cx.cells)
                 for f in (c.faces() if c.is_strictly_convex else (c,))}
        faces |= {(g.cell, g.face) for g in cx.gluings}
        faces.add((len(cx.cells), Cone.zero(1)))
        for cell, face in faces:
            assert cx.gluing_for(cell, face) is oracles.gluing_for_scan(cx, cell, face)
        pairs = {(g.cell, g.chart) for g in cx.gluings}
        pairs |= {(0, len(cx.cells)), (len(cx.cells), 0)}
        for cell, chart in pairs:
            found = cx.gluings_of(cell, chart)
            expected = oracles.gluings_of_scan(cx, cell, chart)
            assert len(found) == len(expected)
            assert all(a is b for a, b in zip(found, expected))

    def test_a_face_glued_twice_answers_with_its_first_gluing(self):
        cx = two_rays_glued_at_origin()
        ident = LatticeMap.identity_map(Lattice(1))
        first, again = cx.gluings[0], Gluing(0, cx.gluings[0].face, 1, ident)
        twice = ConeComplex(cx.cells, cx.gluings + (again,))
        assert twice.gluing_for(0, first.face) is first
        assert twice.gluings_of(0, 1) == [again]

    def test_gluings_of_returns_a_new_list(self):
        cx = two_rays_glued_at_origin()
        cx.gluings_of(0, 2).clear()
        assert cx.gluings_of(0, 2) == [cx.gluings[0]]
        assert cx.gluings_of(0, 2) is not cx.gluings_of(0, 2)


class TestMorphisms:
    def test_fan_morphism_roundtrip(self):
        m = fan_morphism_as_complex(fix_semi())
        assert validate_complex_morphism(m)
        assert len(m.source.cells) == 6

    def test_two_copies_over_halfline(self):
        assert validate_complex_morphism(two_copies_morphism())

    def test_containment_enforced(self):
        src = halfline_complex()
        tgt = halfline_complex()
        zero_t = next(i for i, c in enumerate(tgt.cells) if c.dim == 0)
        with pytest.raises(ComplexError):
            ComplexMorphism(src, tgt,
                            (lmap([[1]]), lmap([[1]])),
                            (zero_t, zero_t))


    def test_rejects_a_map_or_a_target_cell_too_few(self):
        cx = halfline_complex()
        with pytest.raises(ComplexError,
                           match="^one lattice map and one target cell per source cell$"):
            ComplexMorphism(cx, cx, (lmap([[1]]),), (0, 1))

    def test_rejects_a_map_between_other_lattices(self):
        cx = halfline_complex()
        with pytest.raises(ComplexError, match="^map of cell 1 connects the wrong lattices$"):
            ComplexMorphism(cx, cx, (lmap([[1]]), lmap([[1, 0]])), (0, 1))

    def test_maps_that_disagree_on_a_glued_face_are_named(self):
        # the map of the cone (1,0),(1,1) doubled: its two glued rays keep
        # their own maps
        m = fan_morphism_as_complex(fix_semi())
        assert m.source.cells[5] == cone(2, (1, 0), (1, 1))
        maps = m.cell_maps[:5] + (lmap([[2, 2]]),)
        report = validate_complex_morphism(
            ComplexMorphism(m.source, m.target, maps, m.assignment))
        assert report.violations == (
            "maps of cells 5 and 2 disagree on the face ((1, 0),)",
            "maps of cells 5 and 3 disagree on the face ((1, 1),)")


class TestComplexN0:
    def test_fix_semi_interior_point(self):
        m = fan_morphism_as_complex(fix_semi())
        ray_t = next(i for i, c in enumerate(m.target.cells) if c.dim == 1)
        hit = complex_N0(m, ray_t, (1,))
        assert hit == frozenset(i for i, c in enumerate(m.source.cells) if c.dim > 0)
        assert len(hit) == 5

    def test_origin_hits_zero_cells(self):
        m = fan_morphism_as_complex(fix_semi())
        zero_t = next(i for i, c in enumerate(m.target.cells) if c.dim == 0)
        hit = complex_N0(m, zero_t, (0,))
        assert hit == frozenset(i for i, c in enumerate(m.source.cells)
                                if c.dim == 0)

    def test_two_copies_both_hit(self):
        m = two_copies_morphism()
        ray_t = next(i for i, c in enumerate(m.target.cells) if c.dim == 1)
        assert complex_N0(m, ray_t, (1,)) == frozenset({0, 1})

    def test_point_outside_cell_rejected(self):
        m = fan_morphism_as_complex(fix_semi())
        ray_t = next(i for i, c in enumerate(m.target.cells) if c.dim == 1)
        with pytest.raises(ComplexError):
            complex_N0(m, ray_t, (-1,))

    @pytest.mark.parametrize("matrix", [[[2]], [[1, 1]]],
                             ids=["non-saturated", "non-injective"])
    def test_route_through_a_bad_embedding_rejected(self, matrix):
        # the ray of cell 0 is glued to the chart cell 1 by `matrix`; the
        # complex is not validated, so the bad gluing is met on the way of
        # the ray's image into the chart cell, whose own gluing is fine
        ray = cone(1, (1,))
        n = len(matrix[0])
        chart = Cone.from_generators(n, identity(n))
        ident = LatticeMap.identity_map(Lattice(n))
        tgt = ConeComplex((ray, chart), (Gluing(0, ray, 1, lmap(matrix)),
                                         Gluing(1, chart, 1, ident)))
        ident1 = LatticeMap.identity_map(Lattice(1))
        src = ConeComplex((ray,), (Gluing(0, ray, 0, ident1),))
        m = ComplexMorphism(src, tgt, (ident1,), (0,))
        with pytest.raises(ComplexError, match="not injective with a saturated"):
            complex_N0(m, 1, chart.interior_sample())


def assert_matches_fan_reduction(cres, red):
    base = dict(zip(cres.base.complex.cells, cres.base.sublattices))
    assert set(base) == set(red.base.fan.cones)
    for c in red.base.fan.cones:
        assert base[c].basis == red.base.sublattice(c).basis
    total = dict(zip(cres.total.complex.cells, cres.total.sublattices))
    assert set(total) == set(red.total.fan.cones)
    for c in red.total.fan.cones:
        assert total[c].basis == red.total.sublattice(c).basis


class TestReduceComplex:
    @pytest.mark.parametrize("p_factory", [fix_semi, fix_double, fix_subdiv])
    def test_fan_oracle_equivalence(self, p_factory):
        p = p_factory()
        cres = reduce_complex(fan_morphism_as_complex(p))
        assert_matches_fan_reduction(cres, reduce(p))
        for mp in cres.morphism.cell_maps:
            assert mp.matrix == p.lattice_map.matrix

    def test_weakly_semistable_identity(self):
        p = FanMorphism(quadrant_fan(), halfline_fan(), lmap([[1, 0]]))
        m = fan_morphism_as_complex(p)
        cres = reduce_complex(m)
        assert set(cres.base.complex.cells) == set(m.target.cells)
        assert set(cres.total.complex.cells) == set(m.source.cells)
        # the quadrant and the collapsed ray map with positive dimensional
        # fiber directions
        from semistable.cone import image_cone
        expected = tuple(sorted(
            i for i, c in enumerate(m.source.cells)
            if c.dim > image_cone(m.cell_maps[i], c).dim))
        assert cres.positive_dimensional_lifts == expected

    def test_two_copies_intersected_base_lattice(self):
        m = two_copies_morphism()
        cres = reduce_complex(m)
        ray_cells = [i for i, c in enumerate(cres.base.complex.cells)
                     if c.dim == 1]
        assert len(ray_cells) == 1
        assert cres.base.sublattices[ray_cells[0]].vectors() == [(2,)]
        # total side: the unit-speed copy is re-lattified, the double-speed
        # copy keeps the full lattice
        owners = cres.total_owners
        by_owner = {owners[i]: cres.total.sublattices[i]
                    for i, c in enumerate(cres.total.complex.cells)
                    if c.dim == 1}
        assert by_owner[0].vectors() == [(2,)]
        assert by_owner[1].vectors() == [(1,)]
        assert cres.positive_dimensional_lifts == ()

    def test_two_copies_brute_force_oracle(self):
        # the base lattice is generated by the common values of the two
        # image monoids
        common = sorted(set(range(0, 13)) & {2 * k for k in range(0, 7)})
        nonzero = [x for x in common if x]
        from math import gcd
        g = 0
        for x in nonzero:
            g = gcd(g, x)
        assert g == 2

    def test_fix_semi_lift_flags(self):
        m = fan_morphism_as_complex(fix_semi())
        cres = reduce_complex(m)
        flagged = {m.source.cells[i] for i in cres.positive_dimensional_lifts}
        assert flagged == {c for c in m.source.cells if c.dim == 2}

    def test_cell_whose_map_does_not_descend_to_its_face_chart(self):
        # the total cell (1,0) lands on the origin of the half line, whose
        # chart has rank 0; (0 1) does not factor through it, so the cell
        # keeps its map and the smallest piece of the half line's own
        # subdivision that holds its image
        m = ray_collapsed_over_halfline()
        cres = reduce_complex(m)
        assert [c.rays for c in cres.base.complex.cells] == [((1,),), ()]
        assert [c.rays for c in cres.total.complex.cells] == [((1, 0),), ((0, 1),), ()]
        assert cres.morphism.assignment == (0, 0, 1)
        assert [f.matrix for f in cres.morphism.cell_maps] == [((0, 1),)] * 2 + [()]
        assert [s.vectors() for s in cres.total.sublattices] == [[(1, 0)], [(0, 1)], []]
        assert [s.vectors() for s in cres.base.sublattices] == [[(1,)], []]
        assert cres.positive_dimensional_lifts == (0,)

    def test_zero_map_descends_to_a_rank_zero_chart(self):
        # the ray (1,0) maps to the origin by the zero map, so its total
        # cell lands on the origin of the half line, whose chart is the
        # rank-0 cell, and the map descends there as the map onto Z^0
        m = ray_collapsed_over_halfline()
        zero_map = lmap([[0, 0]])
        m = ComplexMorphism(m.source, m.target, (zero_map,) + m.cell_maps[1:],
                            m.assignment)
        origin = m.target.gluing_for(0, Cone.zero(1))
        assert origin.chart == 1 and m.target.cells[1].lattice == Lattice(0)
        onto_zero = LatticeMap(Lattice(2), Lattice(0), ())
        assert conecomplex._descend(origin, zero_map) == onto_zero
        assert conecomplex._descend(origin, m.cell_maps[1]) is None
        cres = reduce_complex(m)
        cell = cres.total.complex.cells.index(cone(2, (1, 0)))
        assert cres.morphism.cell_maps[cell] == onto_zero
        assert cres.base_owners[cres.morphism.assignment[cell]] == 1

    def test_map_descends_to_the_face_chart_of_its_target_piece(self, monkeypatch):
        # the ray (1,0) of the quadrant's identity, assigned to the quadrant
        # cell instead of its own cell: its total cell lands on the face
        # (1,0) of the quadrant, whose chart is the base ray cell, and the
        # identity descends there
        q = quadrant_fan()
        plain = fan_morphism_as_complex(
            FanMorphism(q, q, LatticeMap.identity_map(Lattice(2))))
        ray, quad = 2, 3
        assert plain.source.cells[ray] == cone(2, (1, 0)) == plain.target.cells[ray]
        assert plain.assignment[ray] == ray
        assign = list(plain.assignment)
        assign[ray] = quad
        moved = ComplexMorphism(plain.source, plain.target, plain.cell_maps,
                                tuple(assign))
        descents = []
        descend = conecomplex._descend

        def spy(g, f):
            descents.append((g.cell, g.chart, descend(g, f)))
            return descents[-1][2]
        monkeypatch.setattr(conecomplex, "_descend", spy)
        cres = reduce_complex(moved)
        monkeypatch.undo()
        assert descents == [(quad, ray, LatticeMap.identity_map(Lattice(2)))]
        cell = cres.total_owners.index(ray)
        assert cres.morphism.assignment[cell] == cres.base_owners.index(ray)
        assert cres.morphism.cell_maps[cell] == LatticeMap.identity_map(Lattice(2))
        assert cres == reduce_complex(plain)

    def test_a_part_that_maps_into_no_target_piece_is_named(self, monkeypatch):
        # fault injection: every source cell is cut into the negatives of
        # its rays, which the target pieces do not hold; the target pieces
        # are left whole, so the kernel's cover check passes
        def negated(sigma, pmap, image, top):
            rays = [vec_neg(r) for r in sigma.rays]
            return Fan.from_cones(sigma.lattice, [Cone.from_generators(sigma.lattice, rays)]).cones

        monkeypatch.setattr(conecomplex, "_cut_source_cell", negated)
        with pytest.raises(ReductionError,
                           match="^a part of source cell 1 maps into no piece of target cell 1$"):
            reduce_complex(fan_morphism_as_complex(fix_double()))

    def test_rejects_non_surjective(self):
        src = fan_as_complex(Fan.from_cones(1, []))
        tgt = halfline_complex()
        zero_t = next(i for i, c in enumerate(tgt.cells) if c.dim == 0)
        m = ComplexMorphism(src, tgt, (lmap([[1]]),), (zero_t,))
        with pytest.raises(ReductionError):
            reduce_complex(m)


class TestWeakSemistability:
    def test_fix_semi_fails_on_diagonal(self):
        m = fan_morphism_as_complex(fix_semi())
        report = complex_weak_semistability(m)
        assert not report
        diag = cone(2, (1, 1))
        assert diag in [c for c, _, _ in report.failures]
        # the cells glued over the diagonal pass by Hilbert bases, not by
        # the certificate, so the diagonal inherits nothing from them
        above = [g.cell for g in m.source.gluings
                 if g.face == diag and g.face != m.source.cells[g.cell]]
        assert above
        for c in above:
            full = full_sublattice(m.source.cells[c].lattice)
            assert conecomplex._lattice_certificate(m.cell_maps[c], m.source.cells[c], full,
                                                    full_sublattice(m.images[c].lattice)) is None
        assert report == oracles.complex_weak_semistability_every_cell(m)

    def test_image_escaping_the_target_sublattice_is_a_failing_cell(self):
        f = halfline_fan()
        m = fan_morphism_as_complex(FanMorphism(f, f, lmap([[1]])))
        ray = cone(1, (1,))
        target = [sublattice_from_vectors(c.lattice, [(2,)] if c == ray else [])
                  for c in m.target.cells]
        report = complex_weak_semistability(m, None, target)
        assert not report
        assert [(c, code) for c, code, _ in report.failures] == [(ray, 2)]

    def test_image_that_is_not_a_face_fails_condition_one(self):
        m = fan_morphism_as_complex(fix_subdiv())
        report = complex_weak_semistability(m)
        blown_up = [(i, c) for i, c in enumerate(m.source.cells)
                    if (1, 1) in c.rays]
        assert [(c, 1, f"image of cell {i} is not a face of its target cell")
                for i, c in blown_up] == list(report.failures)
        assert len(blown_up) == 3

    def test_monoid_error_is_a_failing_cell(self):
        # a source lattice that misses the ray (0,1) of the quadrant
        q = quadrant_fan()
        m = fan_morphism_as_complex(
            FanMorphism(q, q, LatticeMap.identity_map(Lattice(2))))
        quad = cone(2, (1, 0), (0, 1))
        source = [sublattice_from_vectors(c.lattice, [(1, 0)] if c == quad
                                          else identity(2))
                  for c in m.source.cells]
        report = complex_weak_semistability(m, source)
        i = m.source.cells.index(quad)
        assert report.failures == (
            (quad, 2, f"cell {i}: ray does not lie in the span of the lattice"),)

    def test_out_of_budget_raises_instead_of_failing(self, monkeypatch):
        # a MonoidError becomes a failing cell; an undecided search must not
        m = fan_morphism_as_complex(fix_semi())
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 0)
        with pytest.raises(BudgetExceeded):
            complex_weak_semistability(m)

    def test_reduced_morphism_passes(self):
        cres = reduce_complex(fan_morphism_as_complex(fix_semi()))
        report = complex_weak_semistability(cres.morphism,
                                            cres.total.sublattices,
                                            cres.base.sublattices)
        assert report


def doubled(sub):
    return sublattice_from_vectors(sub.ambient,
                                   [tuple(2 * x for x in v) for v in sub.vectors()])


def corrupting_runs(monkeypatch, cell, change):
    """Make _run_target_cell hand `change(run)` back for target cell `cell`."""
    run_target_cell = conecomplex._run_target_cell

    def corrupted(m, t):
        run = run_target_cell(m, t)
        return change(run) if t == cell else run
    monkeypatch.setattr(conecomplex, "_run_target_cell", corrupted)


class TestReduceComplexFailures:
    """Each failure branch of reduce_complex, reached by an invalid input or
    by corrupting the stage that feeds it; fix_subdiv's target cells are
    the origin, (0,1), (1,0) and the quadrant."""

    def test_invalid_source_complex(self):
        m = fan_morphism_as_complex(fix_double())
        source = ConeComplex(m.source.cells, m.source.gluings[1:])
        with pytest.raises(ComplexError, match=r"^source complex invalid: "
                           r"face \(\) of cell 0 is not glued$"):
            reduce_complex(ComplexMorphism(source, m.target, m.cell_maps, m.assignment))

    def test_invalid_target_complex(self):
        m = fan_morphism_as_complex(fix_double())
        target = ConeComplex(m.target.cells, m.target.gluings[1:])
        with pytest.raises(ComplexError, match=r"^target complex invalid: "
                           r"face \(\) of cell 0 is not glued$"):
            reduce_complex(ComplexMorphism(m.source, target, m.cell_maps, m.assignment))

    def test_a_target_cell_left_partly_uncut(self, monkeypatch):
        # the quadrant loses its last maximal piece inside the kernel; its
        # faces stay, and only the kernel's cover check fails
        dropping_the_last_piece(monkeypatch, 2)
        with pytest.raises(ReductionError,
                           match="^subdivision of target cell 3 misses part of the cell$"):
            reduce_complex(fan_morphism_as_complex(fix_subdiv()))

    def test_no_base_cell_receives_a_total_cell(self, monkeypatch):
        # the half line loses its ray piece inside the kernel, so no base
        # cell it owns holds the image of (1,0), whose map does not descend
        # to the origin's chart; the kernel's cover check that would catch
        # the half line first is switched off
        dropping_the_last_piece(monkeypatch, 1)
        monkeypatch.setattr(reduction, "covers", lambda cell, cones: True)
        with pytest.raises(ReductionError, match="^no target cell of the refined "
                           "base receives total cell 0$"):
            reduce_complex(ray_collapsed_over_halfline())

    def test_doubled_total_sublattices_are_not_weakly_semistable(self, monkeypatch):
        preimage = conecomplex.preimage_sublattice
        monkeypatch.setattr(conecomplex, "preimage_sublattice",
                            lambda f, q: doubled(preimage(f, q)))
        with pytest.raises(ReductionError, match=(
                "^reduced complex morphism is not weakly semistable: lattice "
                "points of cell 1 do not cover the lattice points of its image$")):
            reduce_complex(fan_morphism_as_complex(fix_double()))

    def test_sublattices_disagree_on_a_glued_face(self, monkeypatch):
        ray = _key(cone(2, (1, 0)))
        corrupting_runs(monkeypatch, 3, lambda run: _CellRun(
            run.pieces,
            {**run.sublattices, ray: doubled(run.sublattices[ray])}))
        with pytest.raises(ReductionError, match=r"^sublattices disagree on the "
                           r"face pair \(3, \(\(1, 0\),\)\) / chart 2$"):
            reduce_complex(fan_morphism_as_complex(fix_subdiv()))

    def test_subdivisions_disagree_on_a_glued_face(self, monkeypatch):
        # the ray cell (1,0) keeps only its origin
        corrupting_runs(monkeypatch, 2, lambda run: _CellRun(
            run.pieces[:-1], run.sublattices))
        with pytest.raises(ReductionError, match=r"^subdivisions disagree on the "
                           r"face pair \(3, \(\(1, 0\),\)\) / chart 2$"):
            reduce_complex(fan_morphism_as_complex(fix_subdiv()))

    @pytest.mark.parametrize("kind,what", [("double", "sublattices"), ("drop", "subdivisions")],
                             ids=["double", "drop"])
    @pytest.mark.parametrize("name,cell,pair", [
        ("fix_subdiv", 2, r"\(5, \(\(1, 0\),\)\)"),
        ("glued_quadrants", 4, r"\(1, \(\(1, 0\),\)\)")], ids=["fix_subdiv", "glued_quadrants"])
    def test_a_corrupted_inherited_part_is_named(self, monkeypatch, kind, what, name, cell,
                                                 pair):
        # the face cell `cell` takes its parts from a maximal cell; its ray
        # part gets a doubled sublattice or goes missing, and the walk over
        # the total names the face pair, as it did when the cell was cut on
        # its own and its run corrupted the same way
        source_runs = conecomplex._source_runs

        def corrupted(m, runs, tops):
            out = source_runs(m, runs, tops)
            run = out[cell]
            ray = _key(run.pieces[-1])
            if kind == "double":
                out[cell] = _CellRun(run.pieces, {**run.sublattices, ray: doubled(
                    run.sublattices[ray])}, run.owners)
            else:
                out[cell] = _CellRun(run.pieces[:-1], run.sublattices, run.owners)
            return out
        monkeypatch.setattr(conecomplex, "_source_runs", corrupted)
        m = (fan_morphism_as_complex(fix_subdiv()) if name == "fix_subdiv"
             else perfbench_morphism(name))
        assert m.source.cells[cell].dim == 1 and cell not in maximal_cell_indexes(m.source)
        with pytest.raises(ReductionError, match=rf"^{what} disagree on the face pair "
                           rf"{pair} / chart {cell}$"):
            reduce_complex(m)


# ---------------------------------------------------------------------------
# the gluing walk of _assemble_complex against the check on every gluing

def stored_morphisms(rank=3):
    """Every stored fan and complex morphism of source rank at most `rank`,
    as a complex morphism, and the two glued fixtures."""
    morphisms = {}
    for path in DOCUMENTS:
        with open(path) as fh:
            try:
                kind, m = load_document(fh.read(), ("fan_morphism", "complex_morphism"))
            except DocumentError:
                continue
        if kind == "fan_morphism":
            m = fan_morphism_as_complex(m)
        morphisms[m] = None
    morphisms.update({two_copies_morphism(): None, ray_collapsed_over_halfline(): None})
    return [m for m in morphisms if max(c.lattice.rank for c in m.source.cells) <= rank]


def walked_sides():
    """(complex, runs) for the target and the source side of every stored
    morphism whose target cells reduce."""
    sides = []
    for m in stored_morphisms():
        try:
            runs = {t: _run_target_cell(m, t) for t in range(len(m.target.cells))}
        except ReductionError:
            continue
        sides += [(m.target, runs), (m.source, oracles.source_runs_every_cell(m, runs))]
    return sides


def corrupt(data, cell, run, kind):
    """run left alone, or with one sublattice doubled, the subdivision
    replaced by the cell's faces (coarser) or cut once more by a drawn
    functional (finer), or one maximal piece dropped; the pieces stay closed
    under faces."""
    pieces, subs = run.pieces, dict(run.sublattices)
    if kind == "double":
        key = _key(data.draw(st.sampled_from(pieces)))
        subs[key] = doubled(subs[key])
    elif kind == "coarser":
        pieces = tuple(cell.faces())
        subs = {_key(f): subs.get(_key(f), span_sublattice(f)) for f in pieces}
    elif kind == "finer" and cell.lattice.rank:
        u = data.draw(st.tuples(*[st.integers(-2, 2)] * cell.lattice.rank))
        cut = [c for p in Fan(cell.lattice, pieces).maximal_cones()
               for c in decompose_by_hyperplanes(p, [u])]
        old = sorted(pieces, key=lambda p: p.dim)
        pieces = Fan.from_cones(cell.lattice, cut).cones
        subs = {_key(p): subs.get(_key(p)) or intersect_sublattices(
                    run.sublattices[_key(relint_owner(old, p.interior_sample()))],
                    span_sublattice(p))
                for p in pieces}
    elif kind == "drop":
        top = data.draw(st.sampled_from(Fan(cell.lattice, pieces).maximal_cones()))
        pieces = tuple(p for p in pieces if p != top)
        del subs[_key(top)]
    return _CellRun(pieces, subs)


KINDS = ["valid", "double", "coarser", "finer", "drop"]


def cells_to_corrupt(cx, runs, kind):
    """The cells where `kind` can change what a neighbour sees, among the
    proper faces of other cells: the subdivided ones for a coarser
    subdivision, those of dimension 2 or more (a linear cut splits no ray)
    for a finer one, and the largest ones otherwise."""
    faces = {g.chart for g in cx.gluings if g.face != cx.cells[g.cell]}
    if kind == "coarser":
        return sorted(t for t in faces
                      if len(runs[t].pieces) != len(cx.cells[t].faces()))
    top = max((cx.cells[t].dim for t in faces), default=0)
    if kind == "finer" and top < 2:
        return []
    return sorted(t for t in faces if cx.cells[t].dim == top)


def test_owner_walk_agrees_with_the_check_on_every_gluing():
    sides = walked_sides()
    outcomes = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        # half the time a side, and then a cell, where the corruption can show
        kind = data.draw(st.sampled_from(KINDS))
        useful = [side for side in sides if cells_to_corrupt(*side, kind)]
        cx, runs = data.draw(st.sampled_from(useful if useful and data.draw(st.booleans())
                                             else sides))
        cells = cells_to_corrupt(cx, runs, kind)
        t = data.draw(st.sampled_from(cells) if cells and data.draw(st.booleans())
                      else st.integers(0, len(cx.cells) - 1))
        runs = {**runs, t: corrupt(data, cx.cells[t], runs[t], kind)}
        try:
            oracles.check_face_agreement(cx, {s: r.pieces for s, r in runs.items()},
                                         {s: r.sublattices for s, r in runs.items()})
            agree = True
        except ReductionError:
            agree = False
        try:
            _assemble_complex(cx, runs)
            walked = True
        except ReductionError:
            walked = False
        assert walked == agree
        outcomes.add((kind, agree))

    check()
    # 40 sides of 20 morphisms when written
    assert len(sides) >= 40
    assert ("valid", False) not in outcomes
    assert outcomes >= {("valid", True)} | {(kind, False) for kind in KINDS[1:]}


@pytest.mark.parametrize("m", [fan_morphism_as_complex(fix_subdiv()),
                               two_copies_morphism(),
                               ray_collapsed_over_halfline()],
                         ids=["fix_subdiv", "two_copies", "ray_collapsed"])
def test_walk_finds_each_owner_face_once(monkeypatch, m):
    """_owner_face at most once per piece in the walk over the base, never
    in the walk over the total, which reads the owner faces recorded when
    the parts were made, and never after it, in the map loop; no
    containment test in a walk."""
    events = []
    owner_face, assemble = conecomplex._owner_face, conecomplex._assemble_complex
    contains_cone = Cone.contains_cone

    def owner_spy(cell, sample):
        events.append("owner")
        return owner_face(cell, sample)

    def contains_spy(self, other):
        events.append("contains")
        return contains_cone(self, other)

    def assemble_spy(cx, runs):
        events.append("walk")
        out = assemble(cx, runs)
        events.append(sum(len(run.pieces) for run in runs.values()))
        return out

    monkeypatch.setattr(conecomplex, "_owner_face", owner_spy)
    monkeypatch.setattr(conecomplex, "_assemble_complex", assemble_spy)
    monkeypatch.setattr(Cone, "contains_cone", contains_spy)
    reduce_complex(m)
    starts = [i for i, e in enumerate(events) if e == "walk"]
    assert len(starts) == 2
    for i, asked in zip(starts, ("base", "total")):
        end = next(j for j in range(i, len(events)) if isinstance(events[j], int))
        assert "contains" not in events[i:end]
        if asked == "base":
            assert 0 < events[i:end].count("owner") <= events[end]
        else:
            assert "owner" not in events[i:end]
    assert "owner" not in events[end:]


# ---------------------------------------------------------------------------
# the target-cell step against moving points through the gluings

def label_points(cell):
    """The sample of every face of a cell and its lattice points with
    entries in [-2, 2]."""
    box = itertools.product(range(-2, 3), repeat=cell.lattice.rank)
    return [f.interior_sample() for f in cell.faces()] + [v for v in box if cell.contains(v)]


def assert_cell_step_matches_transport(m, t, pts):
    """The run of target cell t equals the one by moving points, piece by
    piece and sublattice by sublattice, or both raise; and complex_N0 at
    each of pts is the set of source cells a point arrives at."""
    try:
        run = _run_target_cell(m, t)
    except ReductionError as exc:
        # the two cuts differ, so each may meet an uncovered point first at
        # another place; the point named must be uncovered
        where, _, pt = str(exc).partition(" near ")
        with pytest.raises(ReductionError, match=f"^{re.escape(where)}"):
            oracles.target_cell_by_transport(m, t)
        assert not pt or not oracles.arrivals(m, t, ast.literal_eval(pt))[1]
    else:
        assert run == oracles.target_cell_by_transport(m, t)
    for pt in pts:
        assert complex_N0(m, t, pt) == frozenset(oracles.arrivals(m, t, pt)[1])


TARGET_CELLS = [(m, t) for m in stored_morphisms() for t in range(len(m.target.cells))]


def test_every_stored_target_cell_matches_transport():
    # 55 target cells of 21 morphisms when written
    assert len(TARGET_CELLS) >= 50
    for m, t in TARGET_CELLS:
        assert_cell_step_matches_transport(m, t, [m.target.cells[t].interior_sample()])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_labels_match_transport_at_lattice_points_and_face_samples(data):
    m, t = data.draw(st.sampled_from(TARGET_CELLS))
    pt = data.draw(st.sampled_from(label_points(m.target.cells[t])))
    assert complex_N0(m, t, pt) == frozenset(oracles.arrivals(m, t, pt)[1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(projections())
def test_random_projections_match_transport(case):
    source, target, rows = case
    try:
        m = fan_morphism_as_complex(fan_morphism(source, target, rows))
    except FanError:
        assume(False)
    for t, cell in enumerate(m.target.cells):
        assert_cell_step_matches_transport(m, t, label_points(cell))


@pytest.mark.parametrize("m", [fan_morphism_as_complex(fix_subdiv()),
                               two_copies_morphism(),
                               ray_collapsed_over_halfline()],
                         ids=["fix_subdiv", "two_copies", "ray_collapsed"])
def test_target_cell_step_finds_no_owner_face(monkeypatch, m):
    calls = []
    owner_face = conecomplex._owner_face

    def owner_spy(cell, sample):
        calls.append(sample)
        return owner_face(cell, sample)
    monkeypatch.setattr(conecomplex, "_owner_face", owner_spy)
    for t, cell in enumerate(m.target.cells):
        _run_target_cell(m, t)
        for pt in label_points(cell):
            complex_N0(m, t, pt)
    assert calls == []
    reduce_complex(m)
    assert calls


# ---------------------------------------------------------------------------
# one source cell reaching one target cell as two images

def folded_quadrant():
    """The quadrant (cell 2) with both rays glued from the one ray chart
    (cell 1), and each origin glued from the origin of rank 0 (cell 0)."""
    zero0, ray, quad = Cone.zero(0), cone(1, (1,)), cone(2, (1, 0), (0, 1))
    ident0, ident1, ident2 = (LatticeMap.identity_map(Lattice(n)) for n in (0, 1, 2))
    from_zero = [LatticeMap(Lattice(0), Lattice(n), ((),) * n) for n in (1, 2)]
    return ConeComplex((zero0, ray, quad), (
        Gluing(0, zero0, 0, ident0),
        Gluing(1, ray, 1, ident1), Gluing(1, Cone.zero(1), 0, from_zero[0]),
        Gluing(2, quad, 2, ident2), Gluing(2, cone(2, (1, 0)), 1, lmap([[1], [0]])),
        Gluing(2, cone(2, (0, 1)), 1, lmap([[0], [1]])),
        Gluing(2, Cone.zero(2), 0, from_zero[1])))


def doubled_folded_quadrant():
    """Doubling on the folded quadrant, a valid complex morphism: the ray
    cell reaches the quadrant as both of its rays, each with its own
    lattice."""
    cx = folded_quadrant()
    return ComplexMorphism(cx, cx, (LatticeMap.identity_map(Lattice(0)), lmap([[2]]),
                                    lmap([[2, 0], [0, 2]])), (0, 1, 2))


def test_a_cell_reached_as_two_images_reduces():
    """Labels name images, so the two rays that the ray cell reaches stay
    apart: the quadrant is cut into its faces, the base carries 2Z on the
    ray and 2Z^2 on the quadrant, the total the full lattices, and the
    referee accepts every total cell of positive rank.  Its check of a
    whole reduction does not run here: its boxes of lattice points have no
    size for the chart of rank 0."""
    m = doubled_folded_quadrant()
    assert validate_complex(m.source) and validate_complex_morphism(m)
    moved = [(s, img.rays, lattice.vectors()) for s, img, lattice in _moved_images(m, 2)]
    assert sorted(moved) == [(0, (), []), (1, ((0, 1),), [(0, 2)]), (1, ((1, 0),), [(2, 0)]),
                             (2, ((0, 1), (1, 0)), [(2, 0), (0, 2)])]
    cres = reduce_complex(m)
    assert cres.base.complex.cells == cres.total.complex.cells == m.source.cells
    assert [s.vectors() for s in cres.base.sublattices] == [[], [(2,)], [(2, 0), (0, 2)]]
    assert [s.vectors() for s in cres.total.sublattices] == [[], [(1,)], [(1, 0), (0, 1)]]
    assert cres.morphism.cell_maps == m.cell_maps and cres.morphism.assignment == (0, 1, 2)
    out = referee_output(cres, m)
    cells = [(i, t) for i, t in enumerate(out["total"]) if t["rank"]]
    assert len(cells) == 2
    for i, t in cells:
        b = out["base"][t["assign"]]
        assert REFEREE.check_cone_pair(
            [tuple(r) for r in t["rays"]], [tuple(v) for v in t["sub"]],
            [tuple(r) for r in b["rays"]], [tuple(v) for v in b["sub"]],
            [tuple(r) for r in t["map"]], t["rank"], b["rank"], f"total cell {i}") == []


def test_a_cell_reached_as_two_images_matches_transport():
    m = doubled_folded_quadrant()
    for t, cell in enumerate(m.target.cells):
        assert_cell_step_matches_transport(m, t, label_points(cell))
    assert complex_N0(m, 2, (1, 0)) == complex_N0(m, 2, (0, 1)) == frozenset({1})


def test_each_piece_meets_the_lattices_of_the_images_that_hold_it():
    """Three images, the quadrant and its two rays, each with its own
    lattice: every piece meets only the lattice of the image whose relative
    interior holds its sample, not the lattices of the images that hold it
    on their boundary."""
    quad, x, y, zero = cone(2, (1, 0), (0, 1)), cone(2, (1, 0)), cone(2, (0, 1)), Cone.zero(2)
    lattices = {quad: [(2, 0), (0, 2)], x: [(3, 0)], y: [(0, 5)]}
    images = [(c, sublattice_from_vectors(Lattice(2), vs)) for c, vs in lattices.items()]
    pieces = refine_by_images(quad, images + [(zero, span_sublattice(zero))], "X")
    assert {c: sub.vectors() for c, sub in pieces} == {**lattices, zero: []}


# ---------------------------------------------------------------------------
# the benchmark's independent referee on reduce_complex

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def perfbench_module(name):
    """perfbench/<name>.py, imported by path; its own imports (`families`)
    resolve in perfbench/."""
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


REFEREE = perfbench_module("check")
COMPLEX_REDUCE = perfbench_module("workloads").COMPLEX_REDUCE


def referee_output(cres, m):
    """A reduction in the form the referee reads (as perfbench's worker
    writes it)."""
    def subs(s):
        return [list(v) for v in s.vectors()]

    def rays(c):
        return [list(r) for r in c.rays]

    base = [{"rank": c.lattice.rank, "rays": rays(c), "sub": subs(s)}
            for c, s in zip(cres.base.complex.cells, cres.base.sublattices)]
    total = [{"rank": c.lattice.rank, "rays": rays(c), "sub": subs(s), "owner": o,
              "map": [list(r) for r in f.matrix], "assign": a}
             for c, s, o, f, a in zip(cres.total.complex.cells, cres.total.sublattices,
                                      cres.total_owners, cres.morphism.cell_maps,
                                      cres.morphism.assignment)]
    source = [{"rank": c.lattice.rank, "rays": rays(c)} for c in m.source.cells]
    return {"base": base, "total": total, "source": source}


def referee_case(spec):
    """The referee's output form of reduce_complex on a benchmark operation."""
    name, kind = ((spec["family"], "fan_morphism") if "family" in spec
                  else (spec["complex"], "complex_morphism"))
    with open(os.path.join(PERFBENCH, "inputs", f"{name}.json")) as fh:
        m = load_document(fh.read(), (kind,))[1]
    if kind == "fan_morphism":
        m = fan_morphism_as_complex(m)
    return referee_output(reduce_complex(m), m)


@pytest.mark.parametrize("spec", COMPLEX_REDUCE, ids=[s["name"] for s in COMPLEX_REDUCE])
def test_referee_accepts_reduce_complex(spec):
    assert REFEREE.check_complex_reduction(spec, referee_case(spec)) == []


# the glued complexes, where the walk matches pieces across different charts
GLUED = [s for s in COMPLEX_REDUCE if "complex" in s]


@pytest.mark.parametrize("spec", GLUED, ids=[s["name"] for s in GLUED])
def test_referee_rejects_a_doubled_total_sublattice(spec):
    # the largest total cell, whose image is not the origin
    out = referee_case(spec)
    cell = max(out["total"], key=lambda t: len(t["sub"]))
    cell["sub"] = [[2 * x for x in v] for v in cell["sub"]]
    assert REFEREE.check_complex_reduction(spec, out)


# ---------------------------------------------------------------------------
# the checks of reduce_complex, each doing its work once, against the forms
# that ran before (tests/oracles.py)

def perfbench_morphism(name):
    with open(os.path.join(PERFBENCH, "inputs", f"{name}.json")) as fh:
        kind, m = load_document(fh.read(), ("fan_morphism", "complex_morphism"))
    return fan_morphism_as_complex(m) if kind == "fan_morphism" else m


def maximal_cell_indexes(cx):
    """The cells that no gluing of a proper face names as its chart."""
    faces = {g.chart for g in cx.gluings if g.face != cx.cells[g.cell]}
    return [i for i in range(len(cx.cells)) if i not in faces]


def maximal_cells(cx):
    return [cx.cells[i] for i in maximal_cell_indexes(cx)]


@pytest.mark.parametrize("name", ["s_ray", "s_quad", "glued_rays", "glued_quadrants"])
def test_each_check_does_its_work_once(monkeypatch, name):
    """covers once per target cell, inside the kernel, the lattice
    certificate once per maximal total cell, one cut per maximal source
    cell, no owner face asked of a part a face cell takes from a maximal
    cell, validate_complex on the inputs only, as the glued outputs pass it
    by lemma, and no image cone built by validate_complex or
    _assemble_complex, as every embedding has a left inverse."""
    m = perfbench_morphism(name)
    covered, certified, inside, built = [], [], [], []
    cut, owners, validated = [], [], []
    covers, certificate = reduction.covers, conecomplex._lattice_certificate
    image_cone, cut_source_cell = conecomplex.image_cone, conecomplex._cut_source_cell
    owner_face, validate = conecomplex._owner_face, conecomplex.validate_complex

    def covers_spy(cell, cones):
        covered.append((cell, tuple(inside)))
        return covers(cell, cones)

    def certificate_spy(p, sigma, n_sub, q_sub):
        certified.append(sigma)
        return certificate(p, sigma, n_sub, q_sub)

    def image_cone_spy(f, c):
        built.extend(inside[-1:])
        return image_cone(f, c)

    def cut_spy(sigma, pmap, image, top):
        cut.append(sigma)
        parts = cut_source_cell(sigma, pmap, image, top)
        owners.append(len(parts))
        return parts

    def owner_spy(cell, sample):
        owners.append(tuple(inside))
        return owner_face(cell, sample)

    def validate_spy(cx):
        validated.append(cx)
        return validate(cx)

    def watched(f):
        def run(*args):
            inside.append(f.__name__)
            try:
                return f(*args)
            finally:
                inside.pop()
        return run

    monkeypatch.setattr(reduction, "covers", covers_spy)
    monkeypatch.setattr(reduction, "refine_by_images", watched(reduction.refine_by_images))
    monkeypatch.setattr(conecomplex, "_lattice_certificate", certificate_spy)
    monkeypatch.setattr(conecomplex, "image_cone", image_cone_spy)
    monkeypatch.setattr(conecomplex, "_cut_source_cell", cut_spy)
    monkeypatch.setattr(conecomplex, "_owner_face", owner_spy)
    monkeypatch.setattr(conecomplex, "validate_complex", watched(validate_spy))
    for watch in ("_assemble_complex", "_source_runs"):
        monkeypatch.setattr(conecomplex, watch, watched(getattr(conecomplex, watch)))
    cres = reduce_complex(m)
    complexes = (m.source, m.target, cres.base.complex, cres.total.complex)
    assert all(g.retraction is not None for cx in complexes for g in cx.gluings)
    assert covered == [(cell, ("refine_by_images",)) for cell in m.target.cells]
    assert certified == maximal_cells(cres.total.complex)
    assert len(certified) < len(cres.total.complex.cells)
    assert built == []
    source_maximal = maximal_cells(m.source)
    assert cut == source_maximal and len(cut) < len(m.source.cells)
    # the owner faces of the source side: one per part of a maximal cell,
    # asked after its cut, and none in the walk over the total
    first = next(i for i, e in enumerate(owners) if isinstance(e, int))
    assert set(owners[:first]) == {("_assemble_complex",)}
    assert owners[first:] == [e for n in owners if isinstance(n, int)
                              for e in [n] + [("_source_runs",)] * n]
    assert validated == [m.source, m.target]


GLUING_FAULTS = ["valid", "turned", "doubled", "missing", "composite"]


def test_gluings_checked_by_rays_match_the_image_cones():
    """validate_complex against its every-face form, which checks each
    gluing on the image cone of its chart, on stellar fans as complexes
    with one gluing's embedding turned by a unimodular matrix (it keeps a
    left inverse) or doubled (its image is not saturated), one gluing
    missing, or a composite broken."""
    outcomes = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        fault = data.draw(st.sampled_from(GLUING_FAULTS))
        if fault == "composite":
            cx, _ = data.draw(stellar_complexes())
        else:
            rank = data.draw(st.integers(1, 3))
            cx = fan_as_complex(stellar(rank, data.draw(points(rank)), data.draw(drops)))
            gl = list(cx.gluings)
            k = data.draw(st.integers(0, len(gl) - 1))
            g = gl[k]
            if fault == "missing":
                del gl[k]
            elif fault != "valid":
                e = g.embedding
                if fault == "doubled":
                    matrix = tuple(tuple(2 * x for x in row) for row in e.matrix)
                else:
                    i, j = data.draw(st.tuples(st.integers(0, rank - 1),
                                               st.integers(0, rank - 1)))
                    turn = [list(row) for row in identity(rank)]
                    turn[i][j] = -1 if i == j else data.draw(st.sampled_from([-1, 1]))
                    matrix = mat(matmul(turn, e.matrix))
                gl[k] = Gluing(g.cell, g.face, g.chart, LatticeMap(e.domain, e.codomain, matrix))
            cx = ConeComplex(cx.cells, tuple(gl))
        report = validate_complex(cx)
        assert report.violations == oracles.validate_complex_every_face(cx).violations
        outcomes.add((fault, bool(report)))

    check()
    assert ("valid", False) not in outcomes
    assert outcomes >= {("valid", True)} | {(fault, False) for fault in GLUING_FAULTS[1:]}


def test_morphism_check_by_products_matches_the_check_by_vectors():
    """validate_complex_morphism against the form that applies both sides
    to every basis vector, on the stored morphisms with one cell's map
    doubled or set to zero, or left alone."""
    morphisms = stored_morphisms()
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        m = data.draw(st.sampled_from(morphisms))
        factor = data.draw(st.sampled_from([1, 2, 0]))
        if factor != 1:
            s = data.draw(st.integers(0, len(m.source.cells) - 1))
            f = m.cell_maps[s]
            maps = list(m.cell_maps)
            maps[s] = LatticeMap(f.domain, f.codomain,
                                 tuple(tuple(factor * x for x in row) for row in f.matrix))
            m = ComplexMorphism(m.source, m.target, tuple(maps), m.assignment)
        report = validate_complex_morphism(m)
        assert report.violations == oracles.validate_complex_morphism_by_vectors(m).violations
        outcomes.add((factor, bool(report)))

    check()
    assert (1, False) not in outcomes
    assert outcomes >= {(1, True), (2, False), (0, False)}


def reduced_cases():
    """(morphism, source sublattices, target sublattices): every stored
    morphism with full sublattices, and the morphism reduce_complex makes
    from it with the total and base sublattices."""
    cases = []
    for m in stored_morphisms():
        cases.append((m, [full_sublattice(c.lattice) for c in m.source.cells],
                      [full_sublattice(c.lattice) for c in m.target.cells]))
        try:
            cres = reduce_complex(m)
        except ReductionError:
            continue
        cases.append((cres.morphism, list(cres.total.sublattices),
                      list(cres.base.sublattices)))
    return cases


def test_glued_outputs_agree_on_faces():
    """Through every gluing of the base and the total of every stored
    reduction, of any rank, and the doubled folded quadrant's, the
    embedding carries the chart's sublattice onto the cell's sublattice met
    with the span of the face.  validate_complex reads no sublattice, and
    reduce_complex proves this of its outputs (the walk of
    `_assemble_complex`) without a check."""
    gluings = 0
    for m in stored_morphisms(5) + [doubled_folded_quadrant()]:
        try:
            cres = reduce_complex(m)
        except ReductionError:
            continue
        for stacky in (cres.base, cres.total):
            subs = stacky.sublattices
            for g in stacky.complex.gluings:
                assert image_lattice(g.embedding, subs[g.chart]) == intersect_sublattices(
                    subs[g.cell], span_sublattice(g.face))
            gluings += len(stacky.complex.gluings)
    # 2,652 gluings when written
    assert gluings > 2600


SEMISTABILITY_FAULTS = ["valid", "face", "cell", "target"]


def test_certificate_on_maximal_cells_matches_every_cell():
    """complex_weak_semistability against the check of every cell, on the
    stored and the reduced morphisms, left alone or with one sublattice
    doubled: of a cell glued as a proper face, of any source cell, or of
    any target cell."""
    cases = reduced_cases()
    outcomes = set()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        fault = data.draw(st.sampled_from(SEMISTABILITY_FAULTS))
        m, source, target = data.draw(st.sampled_from(cases))
        source, target = list(source), list(target)
        if fault == "target":
            t = data.draw(st.integers(0, len(target) - 1))
            target[t] = doubled(target[t])
        elif fault != "valid":
            faces = sorted({g.chart for g in m.source.gluings
                            if g.face != m.source.cells[g.cell]})
            s = data.draw(st.sampled_from(faces if fault == "face" and faces
                                          else range(len(source))))
            source[s] = doubled(source[s])
        report = complex_weak_semistability(m, source, target)
        assert report == oracles.complex_weak_semistability_every_cell(m, source, target)
        outcomes.add((fault, bool(report)))

    check()
    # 21 stored morphisms when written, 20 of them reduced
    assert len(cases) >= 41
    assert outcomes >= {(fault, outcome) for fault in SEMISTABILITY_FAULTS
                        for outcome in (True, False)}


def test_target_cover_proves_the_source_cover():
    """Where the maximal pieces of a target cell cover it, the parts of
    every source cell assigned to it cover that cell (the proof in
    reduce_complex's docstring); checked with one maximal piece of a drawn
    target cell dropped or none."""
    outcomes = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(projections(), st.data())
    def check(case, data):
        source, target, rows = case
        try:
            m = fan_morphism_as_complex(fan_morphism(source, target, rows))
            runs = {t: _run_target_cell(m, t) for t in range(len(m.target.cells))}
        except (FanError, ReductionError):
            assume(False)
        tops = {t: Fan(m.target.cells[t].lattice, run.pieces).maximal_cones()
                for t, run in runs.items()}
        if data.draw(st.booleans()):
            t = data.draw(st.integers(0, len(tops) - 1))
            tops[t].remove(data.draw(st.sampled_from(tops[t])))
        parts = {s: _cut_source_cell(sigma, m.cell_maps[s], m.images[s],
                                     tops[m.assignment[s]])
                 for s, sigma in enumerate(m.source.cells)}
        uncovered = set(oracles.uncovered_source_cells(m, parts))
        for t, top in tops.items():
            covered = covers(m.target.cells[t], top)
            assigned = {s for s, lam in enumerate(m.assignment) if lam == t}
            if covered:
                assert not assigned & uncovered
            outcomes.add((covered, not assigned & uncovered))

    check()
    assert outcomes >= {(True, True), (False, False)}


def test_a_face_whose_map_differs_off_its_span_is_checked_itself(monkeypatch):
    # the ray (0,1) of the quadrant over the half line maps by [[3, 0]]: as
    # [[1, 0]] on its span, so the morphism is valid, but no target gluing
    # T has p E = T p_F, so the ray does not inherit the quadrant's
    # certificate and is checked itself
    m = fan_morphism_as_complex(FanMorphism(quadrant_fan(), halfline_fan(), lmap([[1, 0]])))
    ray = m.source.cells.index(cone(2, (0, 1)))
    maps = list(m.cell_maps)
    maps[ray] = lmap([[3, 0]])
    m = ComplexMorphism(m.source, m.target, tuple(maps), m.assignment)
    assert validate_complex_morphism(m)
    checked = []
    check = conecomplex.image_monoid_equals_cone_monoid

    def check_spy(p, sigma, img, n_sub, q_sub):
        checked.append(sigma)
        return check(p, sigma, img, n_sub, q_sub)
    monkeypatch.setattr(conecomplex, "image_monoid_equals_cone_monoid", check_spy)
    report = complex_weak_semistability(m)
    assert report
    assert checked == [m.source.cells[ray]]
    assert report == oracles.complex_weak_semistability_every_cell(m)


# ---------------------------------------------------------------------------
# the source side from the maximal cells against every cell cut on its own

def inheriting_cases():
    """The stored morphisms and the two glued complexes of the benchmark,
    where a face lies in cells of different charts."""
    return stored_morphisms() + [perfbench_morphism(name)
                                 for name in ("glued_rays", "glued_quadrants")]


def test_inherited_parts_match_the_cut_of_every_cell():
    """_source_runs against every source cell cut on its own: the parts of
    each cell in order, their sublattices, their owner faces against the
    scan of every face, and the glued total, which passes validate_complex
    as the glued base does, on the stored morphisms, the glued complexes
    and random projections whose target cells reduce."""
    cases = inheriting_cases()
    seen = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.one_of(st.sampled_from(cases), projections()))
    def check(case):
        try:
            m = case if isinstance(case, ComplexMorphism) else \
                fan_morphism_as_complex(fan_morphism(*case))
            runs = {t: _run_target_cell(m, t) for t in range(len(m.target.cells))}
            base = _assemble_complex(m.target, runs)[0]
        except (FanError, ReductionError):
            assume(False)
        tops = {t: Fan(m.target.cells[t].lattice, run.pieces).maximal_cones()
                for t, run in runs.items()}
        assume(all(covers(m.target.cells[t], top) for t, top in tops.items()))
        ours = conecomplex._source_runs(m, runs, tops)
        theirs = oracles.source_runs_every_cell(m, runs)
        assert ours.keys() == theirs.keys()
        for s, run in ours.items():
            assert run.pieces == theirs[s].pieces
            assert run.sublattices == theirs[s].sublattices
            assert run.owners == {_key(p): oracles.owner_face_scan(
                m.source.cells[s], p.interior_sample()) for p in run.pieces}
        total = _assemble_complex(m.source, ours)
        assert total == _assemble_complex(m.source, theirs)
        # the lemma of _assemble_complex: both glued outputs are valid
        assert validate_complex(base) and validate_complex(total[0])
        faces = {g.chart for g in m.source.gluings if g.face != m.source.cells[g.cell]}
        moved = any(g.chart in faces and g.embedding.matrix != identity(g.face.lattice.rank)
                    for g in m.source.gluings)
        seen.add((isinstance(case, ComplexMorphism), bool(faces), moved))

    check()
    # the stored morphisms and the projections both inherit, and the glued
    # complexes inherit through an embedding that is not the identity
    assert {(True, True, True), (True, True, False), (False, True, False)} <= seen
