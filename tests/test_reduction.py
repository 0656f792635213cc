import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from semistable import reduction

from semistable.cone import Cone, relint_owner, span_sublattice
from semistable.fan import (
    Fan,
    FanMorphism,
    StackyMorphism,
    decompose_by_hyperplanes,
    is_modification,
    is_representable,
    is_weakly_semistable,
)
from semistable.lattice import (
    Lattice,
    LatticeMap,
    full_sublattice,
    mat,
    sublattice_from_vectors,
)
from semistable.reduction import (
    CategoryCObject,
    FactorCertificate,
    N0Label,
    NoFactorization,
    ReductionError,
    base_lattices,
    factor_through,
    image_refinement,
    reduce,
    refine_cell,
    total_refinement,
    universal_minimal_modification,
    validate_category_object,
)
from test_support import FAN_MORPHISMS


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
    return Fan.from_cones(1, [Cone.from_generators(1, [(1,)])])


def fix_semi():
    return FanMorphism(blowup_fan(), halfline_fan(), lmap([[1, 1]]))


def fix_double():
    f = halfline_fan()
    return FanMorphism(f, f, lmap([[2]]))


def fix_subdiv():
    return FanMorphism(blowup_fan(), quadrant_fan(),
                       LatticeMap.identity_map(Lattice(2)))


class TestImageRefinement:
    def test_fix_subdiv(self):
        refined, labels = image_refinement(fix_subdiv())
        assert refined == blowup_fan()
        by_cone = {l.cone: set(l.members) for l in labels}
        lower = cone(2, (1, 0), (1, 1))
        upper = cone(2, (1, 1), (0, 1))
        diag = cone(2, (1, 1))
        assert by_cone[lower] == {lower}
        assert by_cone[upper] == {upper}
        assert by_cone[diag] == {diag}
        assert by_cone[cone(2, (1, 0))] == {cone(2, (1, 0))}
        assert by_cone[cone(2, (0, 1))] == {cone(2, (0, 1))}

    def test_fix_semi(self):
        refined, labels = image_refinement(fix_semi())
        assert refined == halfline_fan()
        interior = next(l for l in labels if l.cone.dim == 1)
        assert len(interior.members) == 5  # every nonzero source cone

    def test_weakly_semistable_input_trivial(self):
        p = FanMorphism(quadrant_fan(), halfline_fan(), lmap([[1, 0]]))
        refined, _ = image_refinement(p)
        assert refined == halfline_fan()

    def test_rejects_non_proper(self):
        F = Fan.from_cones(1, [])
        G = halfline_fan()
        with pytest.raises(ReductionError):
            image_refinement(FanMorphism(F, G, lmap([[1]])))

    def test_minimality_merging_breaks_constancy(self):
        # adjacent cells of the refined base with different labels cannot be
        # merged: the merged region sees both label values
        refined, labels = image_refinement(fix_subdiv())
        by_cone = {l.cone: l.members for l in labels}
        lower, upper = (relint_owner(refined.cones, pt) for pt in ((2, 1), (1, 2)))
        assert by_cone[lower] != by_cone[upper]


# refine_cell does not check that a label hull stays in the cell: it is the
# hull of pieces of the cell, and the cell is convex.  The claim it rests on
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_every_hull_of_pieces_stays_in_the_cell(data):
    rank = data.draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * rank)
    cell = Cone.from_generators(rank, data.draw(st.lists(vectors, max_size=4)))
    assume(cell.is_strictly_convex)
    pieces = decompose_by_hyperplanes(cell, data.draw(st.lists(vectors, max_size=3)))
    assert all(cell.contains_cone(p) for p in pieces)
    chosen = data.draw(st.lists(st.sampled_from(pieces), min_size=1))
    hull = Cone.from_generators(rank, [g for p in chosen for g in p.generators()])
    assert cell.contains_cone(hull)


def wedge_label(pt):
    """B strictly between the rays (2,1) and (1,2) of the quadrant."""
    return "B" if 2 * pt[1] > pt[0] and 2 * pt[0] > pt[1] else "A"


def floor_label(pt):
    """B on the floor z = 0 of the octant below the ray (2,1,0)."""
    return "B" if pt[2] == 0 and pt[0] > 2 * pt[1] else "A"


@pytest.mark.parametrize("cell,functionals,label_at,message", [
    # the label changes one ray further into the ray
    (cone(1, (1,)), [], lambda pt: pt[0] > 1,
     "membership set is not constant on a cell of X"),
    # one label on both half lines of a line: their hull is the line
    (cone(1, (1,), (-1,)), [(1,)], lambda pt: 0, "a label region of X is not convex"),
    # A on both sides of the wedge B: A's hull is the quadrant, which holds B
    (cone(2, (1, 0), (0, 1)), [(1, -2), (2, -1)], wedge_label,
     "a label region of X is not a union of cells"),
    # B's piece of the floor is no label region's face: the floor, a face
    # of A's hull, holds it and is labelled A at its own sample
    (cone(3, (1, 0, 0), (0, 1, 0), (0, 0, 1)), [(0, 0, 1), (1, -2, 0)], floor_label,
     "a cell of X merges regions with different membership sets"),
], ids=["not-constant", "not-convex", "not-a-union", "merges"])
def test_refine_cell_rejects_a_label_that_is_not_a_subdivision(cell, functionals,
                                                              label_at, message):
    with pytest.raises(ReductionError, match=f"^{message}$"):
        refine_cell(cell, functionals, label_at, "X")


class TestBaseLattices:
    def test_fix_semi_base_is_two_z(self):
        p = fix_semi()
        refined, labels = image_refinement(p)
        base = base_lattices(p, refined, labels)
        ray = Cone.from_generators(1, [(1,)])
        assert base.sublattice(ray).vectors() == [(2,)]

    def test_fix_double_base_is_two_z(self):
        p = fix_double()
        refined, labels = image_refinement(p)
        base = base_lattices(p, refined, labels)
        ray = Cone.from_generators(1, [(1,)])
        assert base.sublattice(ray).vectors() == [(2,)]

    def test_identity_full(self):
        p = fix_subdiv()
        refined, labels = image_refinement(p)
        base = base_lattices(p, refined, labels)
        for c in refined.cones:
            sub = base.sublattice(c)
            assert sub.basis == span_sublattice(c).basis


class TestTotalRefinement:
    def test_fix_semi(self):
        p = fix_semi()
        refined, labels = image_refinement(p)
        base = base_lattices(p, refined, labels)
        total, sm = total_refinement(p, base)
        assert total.fan == p.source
        lower = cone(2, (1, 0), (1, 1))
        even_sum = sublattice_from_vectors(Lattice(2), [(1, 1), (2, 0)])
        assert total.sublattice(lower).basis == even_sum.basis
        diag = cone(2, (1, 1))
        assert total.sublattice(diag).vectors() == [(1, 1)]
        e1 = cone(2, (1, 0))
        assert total.sublattice(e1).vectors() == [(2, 0)]
        assert is_weakly_semistable(sm)
        assert is_representable(sm)

    def test_fix_double(self):
        p = fix_double()
        refined, labels = image_refinement(p)
        base = base_lattices(p, refined, labels)
        total, sm = total_refinement(p, base)
        ray = Cone.from_generators(1, [(1,)])
        assert total.sublattice(ray).vectors() == [(1,)]
        assert is_weakly_semistable(sm)


class TestReduce:
    def test_fix_semi_full_pipeline(self):
        red = reduce(fix_semi())
        ray = Cone.from_generators(1, [(1,)])
        assert red.base.sublattice(ray).vectors() == [(2,)]
        assert is_modification(red.base_to_original)
        assert is_modification(red.total_to_original)
        assert is_weakly_semistable(red.stacky_map)
        assert is_representable(red.stacky_map)

    def test_fix_double_root_stack_datum(self):
        red = reduce(fix_double())
        ray = Cone.from_generators(1, [(1,)])
        assert red.base.sublattice(ray).vectors() == [(2,)]
        assert red.total.sublattice(ray).vectors() == [(1,)]

    def test_weakly_semistable_identity_reduction(self):
        p = FanMorphism(quadrant_fan(), halfline_fan(), lmap([[1, 0]]))
        red = reduce(p)
        assert red.base.fan == p.target
        assert red.total.fan == p.source
        for c in red.base.fan.cones:
            assert red.base.sublattice(c).basis == span_sublattice(c).basis

    def test_idempotence(self):
        red = reduce(fix_semi())
        refined_again, labels = image_refinement(red.stacky_map.underlying)
        assert refined_again == red.base.fan
        # reducing the underlying refined morphism changes nothing combinatorially
        red2 = reduce(red.stacky_map.underlying)
        assert red2.base.fan == red.base.fan
        assert red2.total.fan == red.total.fan


class TestCategoryObjects:
    def test_canonical_witness_fix_semi(self):
        red = reduce(fix_semi())
        i = FanMorphism(halfline_fan(), halfline_fan(), lmap([[2]]))
        obj = universal_minimal_modification(red, i)
        assert validate_category_object(obj, fix_semi())
        cert = factor_through(obj, red)
        assert isinstance(cert, FactorCertificate)
        # base factor sends the refined base ray into the 2Z cell
        ray = Cone.from_generators(1, [(1,)])
        pairs = dict(cert.base_assignments)
        assert pairs[ray] == ray

    def test_canonical_witness_fix_double(self):
        red = reduce(fix_double())
        i = FanMorphism(halfline_fan(), halfline_fan(), lmap([[2]]))
        obj = universal_minimal_modification(red, i)
        assert validate_category_object(obj, fix_double())
        factor_through(obj, red)

    def test_fix_double_deeper_alteration(self):
        red = reduce(fix_double())
        i = FanMorphism(halfline_fan(), halfline_fan(), lmap([[6]]))
        obj = universal_minimal_modification(red, i)
        assert validate_category_object(obj, fix_double())
        factor_through(obj, red)

    def test_fix_semi_deeper_alteration(self):
        red = reduce(fix_semi())
        i = FanMorphism(halfline_fan(), halfline_fan(), lmap([[4]]))
        obj = universal_minimal_modification(red, i)
        assert validate_category_object(obj, fix_semi())
        factor_through(obj, red)

    def test_fix_subdiv_identity_alteration(self):
        red = reduce(fix_subdiv())
        i = FanMorphism(quadrant_fan(), quadrant_fan(),
                        LatticeMap.identity_map(Lattice(2)))
        obj = universal_minimal_modification(red, i)
        # the altered base gets refined to the image subdivision
        assert obj.alteration.source == blowup_fan()
        assert validate_category_object(obj, fix_subdiv())
        factor_through(obj, red)

    def test_fix_subdiv_finer_modification(self):
        red = reduce(fix_subdiv())
        finer = Fan.from_cones(2, [cone(2, (1, 0), (2, 1)), cone(2, (2, 1), (1, 1)),
                                   cone(2, (1, 1), (0, 1))])
        i = FanMorphism(finer, quadrant_fan(), LatticeMap.identity_map(Lattice(2)))
        obj = universal_minimal_modification(red, i)
        assert validate_category_object(obj, fix_subdiv())
        factor_through(obj, red)

    def test_certificate_deterministic(self):
        red = reduce(fix_semi())
        i = FanMorphism(halfline_fan(), halfline_fan(), lmap([[2]]))
        obj = universal_minimal_modification(red, i)
        assert factor_through(obj, red) == factor_through(obj, red)


class TestValidationViolations:
    def test_non_ws_projection_reported(self):
        # identity base change of a non weakly semistable family: the square
        # is otherwise fine but the projection fails
        p = fix_semi()
        i = FanMorphism(halfline_fan(), halfline_fan(),
                        LatticeMap.identity_map(Lattice(1)))
        obj = CategoryCObject(i, FanMorphism(p.source, p.source,
                                             LatticeMap.identity_map(Lattice(2))),
                              p)
        report = validate_category_object(obj, p)
        assert not report
        assert any("not weakly semistable" in v for v in report.violations)

    def test_missing_cone_reported(self):
        p = fix_subdiv()
        i = FanMorphism(blowup_fan(), quadrant_fan(),
                        LatticeMap.identity_map(Lattice(2)))
        partial = Fan.from_cones(2, [cone(2, (1, 0), (1, 1))])
        obj = CategoryCObject(
            i,
            FanMorphism(partial, p.source, LatticeMap.identity_map(Lattice(2))),
            FanMorphism(partial, blowup_fan(), LatticeMap.identity_map(Lattice(2))))
        report = validate_category_object(obj, p)
        assert any("modification" in v for v in report.violations)

    def test_kernel_variant(self):
        red = reduce(fix_semi())
        i = FanMorphism(halfline_fan(), halfline_fan(), lmap([[2]]))
        obj = universal_minimal_modification(red, i)
        assert validate_category_object(obj, fix_semi(), kernel_variant=True)

    def test_factor_rejects_incompatible_base(self):
        red = reduce(fix_semi())
        # identity alteration does not factor: Q' = Z is not inside 2Z
        i = FanMorphism(halfline_fan(), halfline_fan(),
                        LatticeMap.identity_map(Lattice(1)))
        obj = CategoryCObject(i, FanMorphism(blowup_fan(), blowup_fan(),
                                             LatticeMap.identity_map(Lattice(2))),
                              fix_semi())
        with pytest.raises(ReductionError):
            factor_through(obj, red)


def doubled(sub):
    return sublattice_from_vectors(sub.ambient,
                                   [tuple(2 * x for x in v) for v in sub.vectors()])


class TestReductionFailures:
    """Each raise of the fan stages of reduce and of the argument checks of
    universal_minimal_modification, reached by an invalid input or by
    corrupting the stage that feeds it."""

    def raises(self, message, run, *args):
        with pytest.raises(ReductionError, match="^" + re.escape(message) + "$"):
            run(*args)

    def test_refined_base_that_is_not_a_fan(self, monkeypatch):
        # the subdivided quadrant keeps its pieces and gains itself
        refine = reduction.refine_by_images

        def overlapping(cell, images, where):
            out = refine(cell, images, where)
            return out + [(cell, out[-1][1])] if len(out) > len(cell.faces()) else out
        monkeypatch.setattr(reduction, "refine_by_images", overlapping)
        self.raises("refined base is not a fan: "
                    + "; ".join(f"intersection of {a} and {b} is not a common face"
                                for a, b in [(((1, 1),), ((0, 1), (1, 0))),
                                             (((0, 1), (1, 0)), ((0, 1), (1, 1))),
                                             (((0, 1), (1, 0)), ((1, 0), (1, 1)))]),
                    reduce, fix_subdiv())

    def test_refined_base_that_misses_part_of_the_target(self, monkeypatch):
        # the quadrant loses its last maximal piece
        refine = reduction.refine_by_images

        def dropping(cell, images, where):
            out = refine(cell, images, where)
            return out[:-1] if cell.dim == cell.lattice.rank else out
        monkeypatch.setattr(reduction, "refine_by_images", dropping)
        self.raises("refined base does not cover the target support", reduce, fix_subdiv())

    def test_a_base_cell_with_no_contributing_cones(self):
        refined, labels = image_refinement(fix_semi())
        emptied = [N0Label(label.cone, ()) if label.cone.dim else label for label in labels]
        self.raises("cell ((1,),) has no contributing cones",
                    base_lattices, fix_semi(), refined, emptied)

    def test_base_sublattices_that_disagree_on_faces(self, monkeypatch):
        # the two maximal base cells get doubled lattices, their rays not
        q_kappa = reduction.q_kappa_lattice
        monkeypatch.setattr(reduction, "q_kappa_lattice", lambda p, kappa, contributing: (
            doubled if kappa.dim == 2 else lambda q: q)(q_kappa(p, kappa, contributing)))
        self.raises("base sublattices violate face compatibility: " + "; ".join(
            f"sublattice of face {face} of {cell} disagrees with restriction"
            for cell, face in [(((0, 1), (1, 1)), ((0, 1),)), (((0, 1), (1, 1)), ((1, 1),)),
                               (((1, 0), (1, 1)), ((1, 0),)), (((1, 0), (1, 1)), ((1, 1),))]),
            reduce, fix_subdiv())

    def test_total_sublattices_that_disagree_on_faces(self, monkeypatch):
        # the two maximal total cones get doubled lattices, their rays not
        base = reduce(fix_subdiv()).base
        intersect = reduction.intersect_sublattices
        monkeypatch.setattr(reduction, "intersect_sublattices", lambda a, b: (
            doubled if b.rank == 2 else lambda s: s)(intersect(a, b)))
        self.raises("total sublattices violate face compatibility: " + "; ".join(
            f"sublattice of face {face} of {cell} disagrees with restriction"
            for cell, face in [(((0, 1), (1, 1)), ((0, 1),)), (((0, 1), (1, 1)), ((1, 1),)),
                               (((1, 0), (1, 1)), ((1, 0),)), (((1, 0), (1, 1)), ((1, 1),))]),
            total_refinement, fix_subdiv(), base)

    def test_total_sublattices_that_are_not_weakly_semistable(self, monkeypatch):
        # every total lattice doubled: compatible on faces, but 2Z does not
        # reach the odd points of the base ray
        preimage = reduction.preimage_sublattice
        monkeypatch.setattr(reduction, "preimage_sublattice",
                            lambda f, q: doubled(preimage(f, q)))
        self.raises("constructed stacky morphism is not weakly semistable; "
                    "failing cones: ((1,),)", reduce, fix_double())

    def test_total_sublattices_that_are_not_representable(self, monkeypatch):
        # the quadrant over the half line with Z x 2Z for the full
        # preimage: compatible on faces and weakly semistable, as the
        # second coordinate is collapsed, but not the preimage
        preimage, intersect = reduction.preimage_sublattice, reduction.intersect_sublattices
        z_2z = sublattice_from_vectors(Lattice(2), [(1, 0), (0, 2)])
        monkeypatch.setattr(reduction, "preimage_sublattice",
                            lambda f, q: intersect(preimage(f, q), z_2z))
        self.raises("constructed stacky morphism is not representable", reduce,
                    FanMorphism(quadrant_fan(), halfline_fan(), lmap([[1, 0]])))

    def test_refined_total_that_misses_part_of_the_source(self, monkeypatch):
        # the minimal modification loses its last maximal cone
        modification = reduction.minimal_modification

        def dropping(p_map, f, g):
            refined, _ = modification(p_map, f, g)
            smaller = Fan.from_cones(refined.lattice, refined.maximal_cones()[:-1])
            return smaller, FanMorphism(smaller, g, p_map)
        monkeypatch.setattr(reduction, "minimal_modification", dropping)
        self.raises("refined total is not a modification of the source fan",
                    reduce, fix_subdiv())

    def test_an_alteration_of_another_base(self):
        identity2 = LatticeMap.identity_map(Lattice(2))
        self.raises("the alteration must target the original base fan",
                    universal_minimal_modification, reduce(fix_semi()),
                    FanMorphism(quadrant_fan(), quadrant_fan(), identity2))

    def test_a_base_map_that_is_not_an_alteration(self):
        self.raises("the base map is not an alteration",
                    universal_minimal_modification, reduce(fix_semi()),
                    FanMorphism(Fan.from_cones(1, []), halfline_fan(), lmap([[1]])))


def test_no_stored_pair_builds_an_invalid_square():
    """factor over every pair of stored fan morphisms of source rank at most
    3: the square over a valid alteration either factors or fails only by
    its projection, which is a family that does not factor, never an
    invalid square."""
    small = [p for _, p in FAN_MORPHISMS if p.source.lattice.rank <= 3]
    outcomes = Counter()
    for p in small:
        try:
            red = reduce(p)
        except ReductionError:
            continue
        for i in small:
            try:
                factor_through(universal_minimal_modification(red, i), red)
                outcomes["factors"] += 1
            except NoFactorization as exc:
                assert str(exc).startswith("the family does not factor over the alteration: "
                                           "the projection is not weakly semistable")
                outcomes["does not factor"] += 1
            except ReductionError as exc:
                assert str(exc) in ("the alteration must target the original base fan",
                                    "the base map is not an alteration")
                outcomes["not an alteration of the base"] += 1
    # 24 morphisms and 576 pairs when written: 62 factor and 52 do not
    assert len(small) >= 24
    assert outcomes["factors"] >= 62 and outcomes["does not factor"] >= 52
