import itertools
import os
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from semistable import conecomplex, fan, reduction

from semistable.cone import Cone, preimage_cone, relint_owner, span_sublattice
from semistable.cli import load_document
from semistable.fan import (
    Fan,
    FanError,
    FanMorphism,
    StackyFan,
    StackyMorphism,
    decompose_by_hyperplanes,
    is_modification,
    is_proper,
    is_representable,
    is_weakly_semistable,
    minimal_modification,
    validate_fan,
    validate_stacky_fan,
)
from semistable.lattice import (
    Lattice,
    LatticeMap,
    full_sublattice,
    intersect_sublattices,
    lattice_index,
    mat,
    preimage_sublattice,
    sublattice_from_vectors,
)
from semistable.monoid import BudgetExceeded
from semistable.reduction import (
    CategoryCObject,
    FactorCertificate,
    NoFactorization,
    ReductionError,
    factor_through,
    image_refinement,
    reduce,
    refine_by_images,
    refine_cell,
    total_refinement,
    universal_minimal_modification,
    validate_category_object,
)
from test_support import FAN_MORPHISMS, ROOT, dropping_the_last_piece, morphism, projections


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


def members_at(p, pt):
    """The source cones whose image holds pt in its relative interior: the
    label that image_refinement gives the base cell whose relative interior
    holds pt."""
    return {sigma for sigma, img in zip(p.source.cones, p.images) if img.relint_contains(pt)}


class TestImageRefinement:
    def test_fix_subdiv(self):
        p = fix_subdiv()
        base = image_refinement(p)
        assert base.fan == blowup_fan()
        lower = cone(2, (1, 0), (1, 1))
        upper = cone(2, (1, 1), (0, 1))
        diag = cone(2, (1, 1))
        for c in (lower, upper, diag, cone(2, (1, 0)), cone(2, (0, 1))):
            assert members_at(p, c.interior_sample()) == {c}
            assert base.sublattice(c) == span_sublattice(c)

    def test_fix_semi(self):
        p = fix_semi()
        base = image_refinement(p)
        assert base.fan == halfline_fan()
        interior = next(c for c in base.fan.cones if c.dim == 1)
        assert len(members_at(p, interior.interior_sample())) == 5  # every nonzero source cone

    def test_weakly_semistable_input_trivial(self):
        p = FanMorphism(quadrant_fan(), halfline_fan(), lmap([[1, 0]]))
        assert image_refinement(p).fan == halfline_fan()

    def test_rejects_non_proper(self):
        F = Fan.from_cones(1, [])
        G = halfline_fan()
        with pytest.raises(ReductionError):
            image_refinement(FanMorphism(F, G, lmap([[1]])))

    def test_minimality_merging_breaks_constancy(self):
        # adjacent cells of the refined base with different labels cannot be
        # merged: the merged region sees both label values
        p = fix_subdiv()
        refined = image_refinement(p).fan
        lower, upper = (relint_owner(refined.cones, pt) for pt in ((2, 1), (1, 2)))
        assert members_at(p, lower.interior_sample()) != members_at(p, upper.interior_sample())


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
        base = image_refinement(p)
        ray = Cone.from_generators(1, [(1,)])
        assert base.sublattice(ray).vectors() == [(2,)]

    def test_fix_double_base_is_two_z(self):
        p = fix_double()
        base = image_refinement(p)
        ray = Cone.from_generators(1, [(1,)])
        assert base.sublattice(ray).vectors() == [(2,)]

    def test_identity_full(self):
        p = fix_subdiv()
        base = image_refinement(p)
        for c in base.fan.cones:
            sub = base.sublattice(c)
            assert sub.basis == span_sublattice(c).basis


class TestTotalRefinement:
    def test_fix_semi(self):
        p = fix_semi()
        base = image_refinement(p)
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
        base = image_refinement(p)
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

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_a_side_that_is_not_a_fan_is_refused(self, side):
        # overlap_quad's source holds two overlapping cones; reduce names the
        # side that is not a fan and the first of its violations, where it
        # used to merge the overlap into 8 total cones
        with open(os.path.join(ROOT, "tests", "data", "overlap_quad.json")) as fh:
            _, p = load_document(fh.read(), ("fan_morphism",))
        if side == "target":
            p = FanMorphism(Fan.from_cones(2, []), p.source, p.lattice_map)
        with pytest.raises(FanError, match=rf"^the {side} is not a fan: intersection of "
                           r"\(\(1, 1\),\) and \(\(1, 0\), \(1, 2\)\) is not a common face;"):
            reduce(p)

    def test_idempotence(self):
        red = reduce(fix_semi())
        assert image_refinement(red.stacky_map.underlying).fan == red.base.fan
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
    corrupting the stage that feeds it.  What reduce proves instead of
    checking has its tests below (`assert_proved`)."""

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
        # the quadrant loses its last maximal piece inside the kernel, whose
        # cover check names the cone
        dropping_the_last_piece(monkeypatch, 2)
        self.raises("subdivision of the base cone ((0, 1), (1, 0)) misses part of the cell",
                    reduce, fix_subdiv())

    def test_a_base_cell_that_no_image_reaches(self):
        # a piece gets its sublattice only once its label is known, and an
        # empty label raises: no base cell goes without contributing images,
        # whether no image or only the zero cone's lies in the cell
        ray, zero = cone(1, (1,)), Cone.zero(1)
        for images in ([], [(zero, span_sublattice(zero))]):
            self.raises("X is not covered by the source images near (1,)",
                        refine_by_images, ray, images, "X")

    def test_base_sublattices_that_disagree_on_faces(self, monkeypatch):
        # the two maximal base cells get doubled lattices, their rays not
        refine = reduction.refine_by_images
        monkeypatch.setattr(reduction, "refine_by_images", lambda cell, images, where: [
            (piece, doubled(sub) if piece.dim == 2 else sub)
            for piece, sub in refine(cell, images, where)])
        self.raises("base sublattices violate face compatibility: " + "; ".join(
            f"sublattice of face {face} of {cell} disagrees with restriction"
            for cell, face in [(((0, 1), (1, 1)), ((0, 1),)), (((0, 1), (1, 1)), ((1, 1),)),
                               (((1, 0), (1, 1)), ((1, 0),)), (((1, 0), (1, 1)), ((1, 1),))]),
            reduce, fix_subdiv())

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


# ---------------------------------------------------------------------------
# what reduce proves instead of checking, checked by the checks it no
# longer runs: on the stored fixtures and on random projections

def assert_proved(p, red):
    """The lemmas of minimal_modification, total_refinement and reduce: the
    refined total is a fan, its sublattices have finite index and agree on
    faces, and it covers the source; the minimal modification over the
    original target is a fan too."""
    assert validate_fan(red.total.fan)
    assert validate_stacky_fan(red.total)
    assert is_modification(red.total_to_original)
    assert validate_fan(minimal_modification(p.lattice_map, p.source, p.target)[0])


# each distinct stored morphism once, by its first name
DISTINCT = {p: name for name, p in reversed(FAN_MORPHISMS)}


@pytest.mark.parametrize("p", list(DISTINCT), ids=list(DISTINCT.values()))
def test_what_reduce_proves_holds_on_the_stored_morphisms(p):
    try:
        red = reduce(p)
    except ReductionError:
        assert not is_proper(p)
        return
    assert_proved(p, red)


def preimage_total(p, red, base):
    """The total sublattices that total_refinement builds over `base`."""
    return StackyFan.from_dict(red.total.fan, {
        sigma: intersect_sublattices(preimage_sublattice(p.lattice_map, base.sublattice(kappa)),
                                     span_sublattice(sigma))
        for sigma, kappa in red.stacky_map.underlying.assignment})


def test_what_reduce_proves_holds_on_random_projections():
    """assert_proved on proper random projections.  The total's face
    agreement rests on the base's: with one maximal base sublattice
    doubled, the base fails validate_stacky_fan, and so, drawn here, does
    the total that the same formula builds over it."""
    outcomes = set()

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(projections(), st.data())
    def check(case, data):
        source, target, rows = case
        try:
            p = morphism(source, target, rows)
        except FanError:
            assume(False)
        assume(is_proper(p))
        try:
            red = reduce(p)
        except (ReductionError, BudgetExceeded):
            assume(False)
        assert_proved(p, red)
        base = red.base
        if data.draw(st.booleans()):
            kappa = data.draw(st.sampled_from(base.fan.maximal_cones()))
            base = StackyFan(base.fan, tuple((c, doubled(sub) if c == kappa else sub)
                                             for c, sub in base.assignments))
        agrees = bool(validate_stacky_fan(base))
        total_agrees = bool(validate_stacky_fan(preimage_total(p, red, base)))
        assert total_agrees or not agrees
        outcomes.add((agrees, total_agrees))

    check()
    assert outcomes >= {(True, True), (False, False)}


def base_indices_against_oracle(p):
    """Compare each cone of the refined base of p with Q_kappa over the
    source cones whose images hold its sample in their relative interior
    (`oracles.q_kappa_lattice`); return the indices of the base sublattices
    in their span lattices, or None when p does not reduce."""
    try:
        base = image_refinement(p)
    except ReductionError:
        return None
    full = full_sublattice(p.source.lattice)
    indices = set()
    for kappa, sub in base.assignments:
        members = members_at(p, kappa.interior_sample())
        assert sub == oracles.q_kappa_lattice(p.lattice_map, kappa,
                                              [(sigma, full) for sigma in members])
        indices.add(lattice_index(sub, span_sublattice(kappa)))
    return indices


def test_base_sublattices_agree_with_q_kappa_on_the_stored_morphisms():
    indices = set()
    for p in DISTINCT:
        indices |= base_indices_against_oracle(p) or set()
    assert 1 in indices and max(indices) > 1


def test_base_sublattices_agree_with_q_kappa_on_random_projections():
    indices = set()

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(projections())
    def check(case):
        source, target, rows = case
        try:
            p = morphism(source, target, rows)
        except FanError:
            assume(False)
        assume(is_proper(p))
        indices.update(base_indices_against_oracle(p) or ())

    check()
    assert 1 in indices and max(indices) > 1


@pytest.mark.parametrize("side", ["source", "target"])
def test_minimal_modification_names_an_input_that_is_not_a_fan(side):
    # the output is proved a fan from fan inputs, so the inputs are checked
    with open(os.path.join(ROOT, "tests", "data", "overlap_quad.json")) as fh:
        _, p = load_document(fh.read(), ("fan_morphism",))
    fans = {"source": p.target, "target": p.target, side: p.source}
    with pytest.raises(FanError, match=rf"^the {side} is not a fan: intersection of "
                       r"\(\(1, 1\),\) and \(\(1, 0\), \(1, 2\)\) is not a common face;"):
        minimal_modification(p.lattice_map, fans["source"], fans["target"])


def test_reduce_checks_each_invariant_once(monkeypatch):
    """On S -> quad: validate_stacky_fan runs once, on the base; coverage is
    checked once per target cone, inside the kernel, so no is_modification
    runs and no morphism onto the target is built but the base's map to
    it; the lattice certificate runs on the maximal total cones
    only, and no cone is checked by its lattice points; the base maps the
    lattice of each source cone once, not again for every base cone it
    contributes to; the minimal modification is not validated,
    builds no preimage cone and intersects only the pairs of maximal cones
    of its inputs."""
    with open(os.path.join(ROOT, "tests", "data", "s_quad.json")) as fh:
        _, p = load_document(fh.read(), ("fan_morphism",))
    stacky, modifications, validated, certified, checked, intersected = [], [], [], [], [], []
    inside, preimages, mapped, covered, refining, onto = [], [], [], [], [], []

    def spy(module, name, record, arg=lambda *args: args[0]):
        f = getattr(module, name)

        def run(*args):
            if record is not None:
                record.append(arg(*args))
            return f(*args)
        monkeypatch.setattr(module, name, run)

    spy(reduction, "validate_stacky_fan", stacky)
    spy(reduction, "is_modification", modifications)
    spy(reduction, "image_lattice", mapped, lambda f, sub: sub)
    spy(fan, "validate_fan", validated)
    spy(conecomplex, "_lattice_certificate", certified, lambda p, sigma, n, q: sigma)
    spy(conecomplex, "image_monoid_equals_cone_monoid", checked, lambda *args: args[1])
    spy(fan, "intersect", intersected, lambda a, b: (a, b) if inside else None)
    spy(fan, "preimage_cone", preimages, lambda f, c: c if inside else None)
    modification = reduction.minimal_modification

    def watched(p_map, f, g):
        inside.append(True)
        try:
            return modification(p_map, f, g)
        finally:
            inside.pop()
    monkeypatch.setattr(reduction, "minimal_modification", watched)
    refine = reduction.refine_by_images

    def refining_spy(cell, images, where):
        refining.append(cell)
        try:
            return refine(cell, images, where)
        finally:
            refining.pop()
    monkeypatch.setattr(reduction, "refine_by_images", refining_spy)
    spy(reduction, "covers", covered, lambda cell, cones: (cell, refining[-1:]))
    post_init = FanMorphism.__post_init__

    def built(m):
        post_init(m)
        if m.target == p.target:
            onto.append(m)
    monkeypatch.setattr(FanMorphism, "__post_init__", built)
    red = reduce(p)

    assert [s.fan for s in stacky] == [red.base.fan]
    assert modifications == []
    assert covered == [(kappa, [kappa]) for kappa in p.target.cones]
    assert onto == [red.base_to_original]
    assert len(mapped) == len(p.source.cones)
    assert red.total.fan not in validated
    top = red.total.fan.maximal_cones()
    assert certified == top and len(top) < len(red.total.fan.cones)
    assert checked == []
    f, g = p.source.maximal_cones(), red.base.fan.maximal_cones()
    expected = list(itertools.combinations(f, 2)) + list(itertools.combinations(g, 2))
    made = [pair for pair in intersected if pair is not None]
    assert sorted(made) == sorted(expected)
    assert [c for c in preimages if c is not None] == []
