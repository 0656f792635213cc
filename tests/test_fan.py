import functools
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from semistable import monoid
from semistable.cone import Cone, image_cone
from semistable.fan import (
    CartesianReport,
    Fan,
    FanError,
    FanMorphism,
    StackyFan,
    StackyMorphism,
    _fiber_cone,
    _pushout_injective_bounded,
    base_change_along_alteration,
    cartesian_check,
    decompose_by_hyperplanes,
    factor_alteration,
    is_alteration,
    is_modification,
    is_proper,
    is_representable,
    is_smooth_fan,
    is_weakly_semistable,
    minimal_containing_cone,
    minimal_modification,
    toric_fiber_product,
    validate_fan,
    validate_stacky_fan,
)
from semistable.lattice import (
    Lattice,
    LatticeMap,
    det,
    dual_map,
    fiber_product_lattice,
    full_sublattice,
    mat,
    matvec,
    preimage_sublattice,
    pushout_lattice,
    sublattice_from_vectors,
    transpose,
)
from semistable.monoid import BudgetExceeded, MonoidError, dual_monoid
from semistable.reduction import ReductionError, reduce
from test_support import FAN_MORPHISMS, morphism, projections


def lmap(rows):
    rows = mat(rows)
    return LatticeMap(Lattice(len(rows[0])), Lattice(len(rows)), rows)


def cone(rank, *gens):
    return Cone.from_generators(rank, gens)


def matrices(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def pointed_cones(draw, rank):
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), max_size=3))
    c = Cone.from_generators(rank, gens)
    return c if c.is_strictly_convex else Cone.zero(rank)


# fixture fans -------------------------------------------------------------

def quadrant_fan():
    return Fan.from_cones(2, [cone(2, (1, 0), (0, 1))])


def blowup_fan():
    return Fan.from_cones(2, [cone(2, (1, 0), (1, 1)), cone(2, (1, 1), (0, 1))])


def halfline_fan(rank=1):
    return Fan.from_cones(rank, [Cone.from_generators(rank, [(1,) + (0,) * (rank - 1)])])


def semi_fixture():
    """Sum map from the diagonal subdivision of the quadrant to the half line."""
    F = blowup_fan()
    G = halfline_fan()
    p = LatticeMap(Lattice(2), Lattice(1), mat([[1, 1]]))
    return FanMorphism(F, G, p)


class TestFanConstruction:
    def test_face_closure(self):
        f = quadrant_fan()
        assert len(f.cones) == 4
        assert Cone.zero(2) in f
        assert cone(2, (1, 0)) in f

    def test_validate_ok(self):
        assert validate_fan(quadrant_fan())
        assert validate_fan(blowup_fan())

    def test_zero_fan(self):
        f = Fan.from_cones(1, [])
        assert f.cones == (Cone.zero(1),)
        assert validate_fan(f)

    def test_overlap_violation(self):
        bad = Fan(Lattice(2), tuple(sorted(
            set(cone(2, (1, 0), (1, 1)).faces())
            | set(cone(2, (2, 1), (0, 1)).faces()))))
        report = validate_fan(bad)
        assert not report
        assert any("not a common face" in v for v in report.violations)

    def test_maximal_cones(self):
        f = blowup_fan()
        assert len(f.maximal_cones()) == 2

    @pytest.mark.parametrize("cones", [
        # overlapping, nested of equal dimension, a ray inside a cone but no
        # face of it, a cone listed twice, and out of order
        tuple(sorted(set(cone(2, (1, 0), (1, 1)).faces())
                     | set(cone(2, (2, 1), (0, 1)).faces()))),
        (cone(2, (1, 0), (1, 1)), cone(2, (1, 0), (0, 1))),
        (cone(2, (1, 1)), cone(2, (1, 0), (0, 1)), cone(2, (1, 0))),
        (cone(2, (1, 0), (0, 1)), cone(2, (1, 0), (0, 1)), cone(2, (-1, 0))),
    ])
    def test_maximal_cones_of_non_fans_match_every_pair(self, cones):
        f = Fan(Lattice(2), cones)
        assert f.maximal_cones() == oracles.maximal_cones(f)
        f.maximal_cones().clear()
        assert f.maximal_cones() == oracles.maximal_cones(f)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda rank: st.tuples(
        st.just(rank), st.lists(st.lists(st.tuples(*[st.integers(-2, 2)] * rank),
                                         max_size=3), max_size=5),
        st.booleans(), st.booleans())))
    def test_maximal_cones_from_candidates_match_every_pair(self, case):
        # drawn cones, which overlap, nest, repeat and may hold lines, with
        # or without the faces of the strictly convex ones, and shuffled
        # back to front or not
        rank, gens, closed, reverse = case
        cones = [Cone.from_generators(rank, g) for g in gens]
        if closed:
            cones += [f for c in cones if c.is_strictly_convex for f in c.faces()]
        f = Fan(Lattice(rank), tuple(cones[::-1] if reverse else cones))
        assert f.maximal_cones() == oracles.maximal_cones(f)

    def test_support(self):
        f = blowup_fan()
        assert oracles.support_contains(f, (3, 5))
        assert not oracles.support_contains(f, (-1, 0))


class TestFanMorphism:
    def test_assignment_recomputed(self):
        m = semi_fixture()
        ray = cone(2, (1, 1))
        assert m.image_of(ray) == Cone.from_generators(1, [(1,)])
        assert m.image_of(Cone.zero(2)) == Cone.zero(1)

    def test_rejects_a_lattice_map_between_other_lattices(self):
        with pytest.raises(FanError, match="^lattice map does not match fan lattices$"):
            FanMorphism(blowup_fan(), halfline_fan(), LatticeMap.identity_map(Lattice(2)))

    def test_image_of_a_cone_outside_the_source_fan(self):
        m = semi_fixture()
        with pytest.raises(FanError, match=r"^cone \(\(1, 2\),\) is not in the source fan$"):
            m.image_of(cone(2, (1, 2)))

    def test_minimal_containing_cone_of_a_cone_outside_the_support(self):
        with pytest.raises(FanError, match=r"^no fan cone contains the point \(-1, 0\)$"):
            minimal_containing_cone(quadrant_fan(), cone(2, (-1, 0)))

    def test_rejects_straddling(self):
        F = quadrant_fan()
        G = blowup_fan()
        with pytest.raises(FanError):
            FanMorphism(F, G, LatticeMap.identity_map(Lattice(2)))

    def test_minimal_containing_cone(self):
        g = blowup_fan()
        assert minimal_containing_cone(g, cone(2, (2, 1))) == cone(2, (1, 0), (1, 1))


class TestProper:
    def test_double_cover(self):
        f = halfline_fan()
        m = FanMorphism(f, f, lmap([[2]]))
        assert is_proper(m)

    def test_missing_preimage(self):
        F = Fan.from_cones(1, [])
        G = halfline_fan()
        m = FanMorphism(F, G, lmap([[1]]))
        assert not is_proper(m)

    def test_semi_fixture_proper(self):
        assert is_proper(semi_fixture())

    def test_partial_cover_not_proper(self):
        # a single ray cannot cover the whole quadrant
        F = Fan.from_cones(2, [cone(2, (1, 0))])
        G = quadrant_fan()
        m = FanMorphism(F, G, LatticeMap.identity_map(Lattice(2)))
        assert not is_proper(m)

    @pytest.mark.parametrize("kept", [0, 1])
    def test_one_half_of_the_blowup_not_proper(self, kept):
        # each maximal target cone must be covered, whichever comes first
        G = blowup_fan()
        F = Fan.from_cones(2, [G.maximal_cones()[kept]])
        m = FanMorphism(F, G, LatticeMap.identity_map(Lattice(2)))
        assert not is_proper(m)

    def test_half_subdivision_still_proper(self):
        # one of the two cones already surjects onto the half line
        F = Fan.from_cones(2, [cone(2, (1, 0), (1, 1))])
        G = halfline_fan()
        m = FanMorphism(F, G, lmap([[1, 1]]))
        assert is_proper(m)


class TestModificationAlteration:
    def test_blowup_is_modification(self):
        m = FanMorphism(blowup_fan(), quadrant_fan(), LatticeMap.identity_map(Lattice(2)))
        assert is_modification(m)
        assert is_alteration(m)

    def test_double_is_alteration_not_modification(self):
        f = halfline_fan()
        m = FanMorphism(f, f, lmap([[2]]))
        assert not is_modification(m)
        assert is_alteration(m)

    def test_sum_map_not_alteration(self):
        assert not is_alteration(semi_fixture())

    def test_factor_alteration(self):
        f = halfline_fan()
        m = FanMorphism(f, f, lmap([[2]]))
        modification, inclusion = factor_alteration(m)
        assert is_modification(modification)
        assert inclusion.lattice_map.matrix == mat([[2]])
        composed = inclusion.compose(modification)
        assert composed.lattice_map.matrix == m.lattice_map.matrix
        assert composed.source == m.source and composed.target == m.target

    def test_compose_through_the_zero_lattice(self):
        zero = Fan.from_cones(0, [])
        to_zero = FanMorphism(halfline_fan(), zero, LatticeMap(Lattice(1), Lattice(0), ()))
        from_zero = FanMorphism(zero, quadrant_fan(),
                                LatticeMap(Lattice(0), Lattice(2), ((), ())))
        composed = from_zero.compose(to_zero)
        assert composed.lattice_map == LatticeMap(Lattice(1), Lattice(2), ((0,), (0,)))
        assert composed.images == (Cone.zero(2), Cone.zero(2))

    def test_factor_rejects_non_alteration(self):
        with pytest.raises(FanError):
            factor_alteration(semi_fixture())

    def test_factor_blowup_alteration(self):
        m = FanMorphism(blowup_fan(), quadrant_fan(), lmap([[2, 0], [0, 2]]))
        assert is_alteration(m)
        modification, inclusion = factor_alteration(m)
        assert is_modification(modification)
        composed = inclusion.compose(modification)
        assert composed.lattice_map.matrix == m.lattice_map.matrix


class TestMinimalModification:
    def test_identity_to_blowup(self):
        out, morph = minimal_modification(LatticeMap.identity_map(Lattice(2)),
                                          quadrant_fan(), blowup_fan())
        assert out == blowup_fan()
        assert is_modification(FanMorphism(out, quadrant_fan(),
                                           LatticeMap.identity_map(Lattice(2))))

    def test_already_compatible(self):
        m = semi_fixture()
        out, _ = minimal_modification(m.lattice_map, m.source, m.target)
        assert out == m.source

    def test_single_target_cone(self):
        F = blowup_fan()
        G = quadrant_fan()
        out, _ = minimal_modification(LatticeMap.identity_map(Lattice(2)), F, G)
        assert out == F

    @pytest.mark.parametrize("name", ["source", "target"])
    def test_input_not_closed_under_faces_raises(self, name):
        # the ray (1,1) lies inside the quadrant but is not a face of it
        not_closed = Fan(Lattice(2), tuple(sorted(
            set(cone(2, (1, 0), (0, 1)).faces()) | {cone(2, (1, 1))})))
        fans = {"source": quadrant_fan(), "target": quadrant_fan(), name: not_closed}
        with pytest.raises(FanError, match=re.escape(
                f"the {name} is not a fan: intersection of ((1, 1),) and "
                "((0, 1), (1, 0)) is not a common face")):
            minimal_modification(LatticeMap.identity_map(Lattice(2)),
                                 fans["source"], fans["target"])

    def test_universal_property_sample(self):
        # any modification of F that maps to G factors through the output
        out, _ = minimal_modification(LatticeMap.identity_map(Lattice(2)),
                                      quadrant_fan(), blowup_fan())
        finer = Fan.from_cones(2, [cone(2, (1, 0), (2, 1)), cone(2, (2, 1), (1, 1)),
                                   cone(2, (1, 1), (0, 1))])
        # finer refines out: every cone of finer sits inside a cone of out
        FanMorphism(finer, out, LatticeMap.identity_map(Lattice(2)))


class TestWeakSemistability:
    def test_semi_fixture_fails_on_diagonal_ray(self):
        report = is_weakly_semistable(semi_fixture())
        assert not report
        assert report.failing_cones() == [cone(2, (1, 1))]
        assert report.failures[0][1] == 2

    def test_out_of_budget_raises_instead_of_failing(self, monkeypatch):
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 0)
        with pytest.raises(BudgetExceeded):
            is_weakly_semistable(semi_fixture())

    def test_identity_true(self):
        f = blowup_fan()
        m = FanMorphism(f, f, LatticeMap.identity_map(Lattice(2)))
        assert is_weakly_semistable(m)

    def test_projection_true(self):
        F = quadrant_fan()
        G = halfline_fan()
        m = FanMorphism(F, G, lmap([[1, 0]]))
        assert is_weakly_semistable(m)

    def test_double_cover_fails(self):
        f = halfline_fan()
        m = FanMorphism(f, f, lmap([[2]]))
        report = is_weakly_semistable(m)
        assert not report

    def test_stacky_version_fixes_fixture(self):
        m = semi_fixture()
        # base sublattice 2Z, source sublattices the preimages
        G_stacky = StackyFan.from_dict(
            m.target, {Cone.from_generators(1, [(1,)]):
                       sublattice_from_vectors(Lattice(1), [(2,)])})
        sub = {}
        for sigma, kappa in m.assignment:
            q_k = G_stacky.sublattice(kappa)
            from semistable.cone import span_sublattice
            from semistable.lattice import intersect_sublattices
            sub[sigma] = intersect_sublattices(
                preimage_sublattice(m.lattice_map, q_k), span_sublattice(sigma))
        F_stacky = StackyFan.from_dict(m.source, sub)
        sm = StackyMorphism(m, F_stacky, G_stacky)
        assert is_weakly_semistable(sm)
        assert is_representable(sm)


# ---------------------------------------------------------------------------
# weak semistability through the certificate of the maximal cones, against
# the check of every cone (tests/oracles.py)

def doubled(sub):
    return sublattice_from_vectors(sub.ambient,
                                   [tuple(2 * x for x in v) for v in sub.vectors()])


def with_sublattices(s, changed):
    return StackyFan(s.fan, tuple((c, changed.get(c, sub)) for c, sub in s.assignments))


@functools.cache
def semistability_cases():
    """(kind, morphism): every distinct stored fan morphism of source rank
    at most 3, plain, and its reduction, stacky."""
    cases = []
    for p in dict.fromkeys(p for _, p in FAN_MORPHISMS if p.source.lattice.rank <= 3):
        cases.append(("plain", p))
        try:
            cases.append(("stacky", reduce(p).stacky_map))
        except ReductionError:
            pass
    return cases


WS_FAULTS = ["valid", "maximal", "face", "target"]


def broken(m, fault, data):
    """m with one sublattice doubled: of a maximal source cone, of a source
    cone that is a proper face of another, or of a target cone together
    with the source cones assigned to it, so that it stays a morphism."""
    if fault == "valid":
        return m
    under = m.underlying
    if fault == "target":
        kappa = data.draw(st.sampled_from([k for k in under.target.cones if k.dim]))
        over = {s: doubled(m.source.sublattice(s))
                for s, k in under.assignment if k == kappa}
        return StackyMorphism(under, with_sublattices(m.source, over),
                              with_sublattices(m.target, {kappa: doubled(
                                  m.target.sublattice(kappa))}))
    maximal = under.source.maximal_cones()
    pool = [c for c in under.source.cones if c.dim and (c in maximal) == (fault == "maximal")]
    if not pool:
        return m
    sigma = data.draw(st.sampled_from(pool))
    return StackyMorphism(under, with_sublattices(
        m.source, {sigma: doubled(m.source.sublattice(sigma))}), m.target)


def test_weak_semistability_matches_every_cone():
    """is_weakly_semistable against the check of every cone: the same
    failing cones, conditions, messages and order, on the stored fan
    morphisms and random projections, plain, and on the reductions of the
    stored ones, stacky, left alone or with one sublattice doubled."""
    cases = semistability_cases()
    outcomes = set()

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.data())
    def check(data):
        if data.draw(st.booleans()):
            kind, m = data.draw(st.sampled_from(cases))
            if kind == "stacky":
                m = broken(m, data.draw(st.sampled_from(WS_FAULTS)), data)
        else:
            source, target, rows = data.draw(projections())
            try:
                kind, m = "plain", morphism(source, target, rows)
            except FanError:
                assume(False)
        report = is_weakly_semistable(m)
        assert report == oracles.is_weakly_semistable_every_cone(m)
        outcomes.add((kind, bool(report), {c for _, c, _ in report.failures} <= {2}))

    check()
    # 16 distinct stored morphisms of source rank at most 3 when written,
    # 15 of which reduce
    assert len(cases) >= 31
    assert outcomes >= {("plain", True, True), ("plain", False, True),
                        ("plain", False, False), ("stacky", True, True),
                        ("stacky", False, True)}


def test_a_sublattice_of_lower_rank_raises_as_before():
    # the quadrant's sublattice misses the ray (0, 1): both forms raise the
    # MonoidError of its Hilbert basis, where the complex form would
    # report a failing cell
    q = quadrant_fan()
    quad = cone(2, (1, 0), (0, 1))
    source = StackyFan.from_dict(q, {quad: sublattice_from_vectors(Lattice(2), [(1, 0)])})
    m = StackyMorphism(FanMorphism(q, q, LatticeMap.identity_map(Lattice(2))),
                       source, StackyFan.from_dict(q, {}))
    for check in (is_weakly_semistable, oracles.is_weakly_semistable_every_cone):
        with pytest.raises(MonoidError, match="^ray does not lie in the span of the lattice$"):
            check(m)


def test_weak_semistability_of_a_fan_not_closed_under_faces_raises():
    # the quadrant without its origin as the source, and without its ray
    # (0, 1) as the target of the half line along (1, 0)
    quad = cone(2, (1, 0), (0, 1))
    no_origin = Fan(Lattice(2), tuple(c for c in quad.faces() if c.dim))
    no_ray = Fan(Lattice(2), tuple(c for c in quad.faces() if c.rays != ((0, 1),)))
    for m, missing in [
            (FanMorphism(no_origin, quadrant_fan(), LatticeMap.identity_map(Lattice(2))),
             "face () of ((0, 1),)"),
            (FanMorphism(halfline_fan(), no_ray, lmap([[1], [0]])),
             "face ((0, 1),) of ((0, 1), (1, 0))")]:
        with pytest.raises(FanError, match=re.escape(missing + " missing from the fan")):
            is_weakly_semistable(m)


class TestSmoothSemistable:
    def test_quadrant_smooth(self):
        assert is_smooth_fan(quadrant_fan())

    def test_index_two_cone_not_smooth(self):
        f = Fan.from_cones(2, [cone(2, (1, 0), (1, 2))])
        assert not is_smooth_fan(f)

    def test_semistable_projection(self):
        F = quadrant_fan()
        G = halfline_fan()
        m = FanMorphism(F, G, lmap([[1, 0]]))
        assert oracles.is_semistable(m)

    def test_semi_fixture_not_semistable(self):
        assert not oracles.is_semistable(semi_fixture())

    @staticmethod
    def stacky_square(top):
        """The square with `top` as its lattice and 2Z on each ray, the
        restriction of both tops tested."""
        square = cone(2, (1, 0), (0, 1))
        subs = {square: top, cone(2, (1, 0)): ((2, 0),), cone(2, (0, 1)): ((0, 2),)}
        return StackyFan.from_dict(
            Fan.from_cones(2, [square]),
            {c: sublattice_from_vectors(Lattice(2), b) for c, b in subs.items()})

    @pytest.mark.parametrize("top,smooth", [
        (((2, 0), (0, 2)), True),
        # {a + b even}: the first points (2,0), (0,2) span a sublattice of index 2
        (((1, 1), (1, -1)), False),
    ], ids=["2Zx2Z", "a+b-even"])
    def test_stacky_square(self, top, smooth):
        f = self.stacky_square(top)
        assert validate_stacky_fan(f)
        assert is_smooth_fan(f) is smooth

    def test_root_stack_on_a_ray_is_smooth(self):
        ray = cone(1, (1,))
        f = StackyFan.from_dict(halfline_fan(), {ray: sublattice_from_vectors(Lattice(1), [(2,)])})
        assert validate_stacky_fan(f)
        assert is_smooth_fan(f)
        # the underlying fan is smooth, and so is the stacky fan of N cap span
        assert is_smooth_fan(f.fan) and is_smooth_fan(StackyFan.from_dict(f.fan, {}))

    def test_ray_without_a_point_of_its_lattice_is_not_smooth(self):
        ray = cone(2, (1, 0))
        f = StackyFan.from_dict(Fan.from_cones(2, [ray]),
                                {ray: sublattice_from_vectors(Lattice(2), [(0, 1)])})
        assert not is_smooth_fan(f)

    def test_reduction_of_semi_fixture_is_semistable(self):
        # every stacky ray of the reduced base is a root stack, hence smooth;
        # so is the total of the sum map, which makes the reduction semistable
        red = reduce(semi_fixture())
        assert is_smooth_fan(red.base) and is_smooth_fan(red.total)
        assert oracles.is_semistable(red.stacky_map)


class TestFiberProduct:
    def test_two_against_three(self):
        f = halfline_fan()
        p = FanMorphism(f, f, lmap([[2]]))
        q = FanMorphism(f, f, lmap([[3]]))
        fan, pn, pl = toric_fiber_product(p, q)
        maxc = fan.maximal_cones()
        assert len(maxc) == 1
        ray = maxc[0]
        assert ray.dim == 1
        r = ray.rays[0]
        assert (pn(r), pl(r)) in (((3,), (2,)),)

    def test_blowup_chart_against_itself(self):
        # chart of the plane blowup fibered against itself over the plane:
        # the fiber is a single two dimensional cone in a rank-2 lattice
        quad = quadrant_fan()
        p = FanMorphism(quad, quad, lmap([[1, 0], [1, 1]]))
        fan, pn, pl = toric_fiber_product(p, p)
        maxc = fan.maximal_cones()
        assert len(maxc) == 1
        assert maxc[0].dim == 2
        assert len(maxc[0].rays) == 2
        assert fan.lattice.rank == 2

    def test_distinct_blowup_charts_overlap_is_a_ray(self):
        quad = quadrant_fan()
        p = FanMorphism(quad, quad, lmap([[1, 0], [1, 1]]))
        q = FanMorphism(quad, quad, lmap([[1, 1], [0, 1]]))
        fan, pn, pl = toric_fiber_product(p, q)
        maxc = fan.maximal_cones()
        assert len(maxc) == 1
        assert maxc[0].dim == 1

    def test_identity_diagonal(self):
        f = blowup_fan()
        ident = FanMorphism(f, f, LatticeMap.identity_map(Lattice(2)))
        fan, pn, pl = toric_fiber_product(ident, ident)
        assert len(fan.maximal_cones()) == len(f.maximal_cones())
        for c in fan.cones:
            for g in c.generators():
                assert pn(g) == pl(g)

    def test_projections_commute(self):
        f = halfline_fan()
        p = FanMorphism(f, f, lmap([[2]]))
        q = FanMorphism(f, f, lmap([[3]]))
        fan, pn, pl = toric_fiber_product(p, q)
        for c in fan.cones:
            for g in c.generators():
                assert p(pn(g)) == q(pl(g))


class TestCartesian:
    def test_blowup_chart_against_itself_fails(self):
        # schematically this fiber product is reducible, so the pushout of
        # dual monoids cannot match the fiber dual monoid
        quad = quadrant_fan()
        p = FanMorphism(quad, quad, lmap([[1, 0], [1, 1]]))
        assert not cartesian_check(p, p)

    def test_move_search_out_of_budget_raises(self, monkeypatch):
        # the cone (1,0),(1,2) has index 2, so the base dual monoid is not
        # free and no leg of the identity is integral by flatness; the
        # pushout class search reaches 41 states, every other search of
        # this check at most 25
        f = Fan.from_cones(2, [Cone.from_generators(2, [(1, 0), (1, 2)])])
        ident = FanMorphism(f, f, LatticeMap.identity_map(Lattice(2)))
        assert cartesian_check(ident, ident)
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 30)
        with pytest.raises(BudgetExceeded, match="pushout class search"):
            cartesian_check(ident, ident)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_integral_leg_skips_the_move_search(self, monkeypatch, k):
        # x k is integral by flatness, so no entry of the quadrant's
        # projection against it enumerates words or searches classes, and
        # the surjectivity test decides without a membership search
        def no_search(*args):
            raise AssertionError("a search ran")

        p = FanMorphism(quadrant_fan(), halfline_fan(), lmap([[1, 0]]))
        q = FanMorphism(halfline_fan(), halfline_fan(), lmap([[k]]))
        monkeypatch.setattr("semistable.fan._pushout_injective_bounded", no_search)
        monkeypatch.setattr("semistable.fan._bounded_points", no_search)
        monkeypatch.setattr("semistable.monoid._bounded_points", no_search)
        report = cartesian_check(p, q)
        assert [entry[3:] for entry in report.entries] == [(True, "")] * 4

    def test_two_three_fail(self):
        f = halfline_fan()
        p = FanMorphism(f, f, lmap([[2]]))
        q = FanMorphism(f, f, lmap([[3]]))
        report = cartesian_check(p, q)
        assert not report

    def test_weakly_semistable_projection_passes(self):
        F = quadrant_fan()
        G = halfline_fan()
        p = FanMorphism(F, G, lmap([[1, 0]]))
        ident = FanMorphism(G, G, LatticeMap.identity_map(Lattice(1)))
        assert cartesian_check(p, ident)

    def test_weakly_semistable_vs_double(self):
        F = quadrant_fan()
        G = halfline_fan()
        p = FanMorphism(F, G, lmap([[1, 0]]))
        b = FanMorphism(G, G, lmap([[2]]))
        assert cartesian_check(p, b)

    # each failure reason that some input reaches.  Two cannot be reached:
    # the pushout and the fiber lattice both have rank n + l - rank(p, -q),
    # and the restriction of a functional nonnegative on sigma (or lambda)
    # is nonnegative on the fiber cone, which sigma (or lambda) contains
    # under its projection, so it lies in the saturated fiber dual monoid
    @pytest.mark.parametrize("kp, kq, entries", [
        (2, 2, [((), (), False, "pushout of dual lattices has torsion of order 2"),
                (((1,),), ((1,),), False,
                 "pushout of dual lattices has torsion of order 2")]),
        (2, 3, [((), (), True, ""),
                (((1,),), ((1,),), False,
                 "fiber dual monoid is strictly larger than the pushout monoid")]),
    ])
    def test_failure_reasons_of_multiplications(self, kp, kq, entries):
        f = halfline_fan()
        p = FanMorphism(f, f, lmap([[kp]]))
        q = FanMorphism(f, f, lmap([[kq]]))
        assert _entry_rays(cartesian_check(p, q)) == entries

    # the claims of the two proofs above, on which _cartesian_triple relies
    # without checking them
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_pushout_and_fiber_lattice_have_one_rank(self, data):
        k, n, l = (data.draw(st.integers(1, 3)) for _ in range(3))
        p, q = (lmap(data.draw(matrices(k, cols))) for cols in (n, l))
        _, pn, _ = fiber_product_lattice(p, q)
        assert pushout_lattice(dual_map(p), dual_map(q)).lattice.rank == pn.domain.rank

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_restricted_dual_monoids_lie_in_the_fiber_dual_monoid(self, data):
        k, n, l = (data.draw(st.integers(1, 3)) for _ in range(3))
        p, q = (lmap(data.draw(matrices(k, cols))) for cols in (n, l))
        sigma, lam = data.draw(pointed_cones(n)), data.draw(pointed_cones(l))
        _, pn, pl = fiber_product_lattice(p, q)
        fiber = dual_monoid(_fiber_cone(pn, pl, sigma, lam))
        for proj, c in ((pn, sigma), (pl, lam)):
            for g in dual_monoid(c).generators:
                assert fiber.contains(matvec(transpose(proj.matrix), g))

    def test_blowup_chart_identifies_pushout_classes(self):
        quad = quadrant_fan()
        chart = FanMorphism(quad, quad, lmap([[1, 0], [1, 1]]))
        identified = "canonical map identifies distinct pushout classes"
        assert _entry_rays(cartesian_check(chart, chart)) == [
            ((), (), True, ""),
            (((0, 1),), ((0, 1),), True, ""),
            (((1, 0),), ((1, 0),), False, identified),
            (((1, 0),), ((0, 1), (1, 0)), False, identified),
            (((0, 1), (1, 0)), ((1, 0),), False, identified),
            (((0, 1), (1, 0)), ((0, 1), (1, 0)), False, identified),
        ]

    def test_matches_the_per_pair_oracle_on_the_benchmark_pairs(self, monkeypatch):
        # the quadrant's projection against x k, k = 1..6, and the blowup
        # chart against itself, with the identity of an index-two cone, whose
        # pushout search passes, where the chart's fails
        answers = []

        def recorded(*args):
            answers.append(_pushout_injective_bounded(*args))
            return answers[-1]

        monkeypatch.setattr("semistable.fan._pushout_injective_bounded", recorded)
        quad = quadrant_fan()
        p = FanMorphism(quad, halfline_fan(), lmap([[1, 0]]))
        chart = FanMorphism(quad, quad, lmap([[1, 0], [1, 1]]))
        f = Fan.from_cones(2, [cone(2, (1, 0), (1, 2))])
        ident = FanMorphism(f, f, LatticeMap.identity_map(Lattice(2)))
        pairs = [(p, _times(k)) for k in range(1, 7)] + [(chart, chart), (ident, ident)]
        for a, b in pairs:
            assert cartesian_check(a, b) == oracles.cartesian_check_per_pair(a, b)
        assert set(answers) == {True, False}

    @given(st.sampled_from([1, 2]).flatmap(
        lambda rank: st.tuples(_cartesian_legs(rank), _cartesian_legs(rank))))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_the_per_pair_oracle(self, pair):
        p, q = pair
        assert cartesian_check(p, q) == oracles.cartesian_check_per_pair(p, q)


def _entry_rays(report):
    return [(s.rays, lam.rays, ok, reason) for s, _, lam, ok, reason in report.entries]


def _times(k):
    return FanMorphism(halfline_fan(), halfline_fan(), lmap([[k]]))


def _cartesian_legs(rank):
    """Fan morphisms of rank <= 2 onto the half line (rank 1) or the
    quadrant (rank 2): x k and projections of the quadrant, diagonal Kummer
    maps and the two blowup charts."""
    quad = quadrant_fan()
    if rank == 1:
        return st.one_of(
            st.integers(1, 4).map(_times),
            st.tuples(st.integers(1, 3), st.integers(0, 3)).map(
                lambda ab: FanMorphism(quad, halfline_fan(), lmap([ab]))))
    charts = [FanMorphism(quad, quad, lmap(m)) for m in ([[1, 0], [1, 1]], [[1, 1], [0, 1]])]
    return st.one_of(
        st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
            lambda ab: FanMorphism(quad, quad, lmap([[ab[0], 0], [0, ab[1]]]))),
        st.sampled_from(charts))


class TestBaseChange:
    def test_double_against_double(self):
        f = halfline_fan()
        p = FanMorphism(f, f, lmap([[2]]))
        out, morph = base_change_along_alteration(p, lmap([[2]]))
        assert len(out.maximal_cones()) == 1
        assert is_weakly_semistable(morph)

    def test_identity_inclusion(self):
        m = semi_fixture()
        j = LatticeMap.identity_map(Lattice(1))
        out, morph = base_change_along_alteration(m, j)
        # the output lives in the fiber product lattice; pi_n identifies it
        # with the source lattice and must carry the cones onto the source's
        _, pi_n, _ = fiber_product_lattice(m.lattice_map, j)
        assert abs(det(pi_n.matrix)) == 1
        assert {image_cone(pi_n, c) for c in out.cones} == set(m.source.cones)

    def test_semi_fixture_index_two(self):
        m = semi_fixture()
        out, morph = base_change_along_alteration(m, lmap([[2]]))
        assert is_weakly_semistable(morph)

    def test_rejects_rank_drop(self):
        m = semi_fixture()
        with pytest.raises(FanError):
            base_change_along_alteration(m, lmap([[1, 1]]))


class TestStackyValidation:
    def test_trivial_is_valid(self):
        s = StackyFan.from_dict(blowup_fan(), {})
        assert validate_stacky_fan(s)

    def test_corrupted_face(self):
        f = quadrant_fan()
        sub = {cone(2, (1, 0)): sublattice_from_vectors(Lattice(2), [(2, 0)])}
        s = StackyFan.from_dict(f, sub)
        report = validate_stacky_fan(s)
        assert not report
        assert any("disagrees" in v for v in report.violations)

    def test_infinite_index_rejected(self):
        f = quadrant_fan()
        sub = {cone(2, (1, 0), (0, 1)):
               sublattice_from_vectors(Lattice(2), [(1, 0)])}
        s = StackyFan.from_dict(f, sub)
        report = validate_stacky_fan(s)
        assert any("infinite index" in v for v in report.violations)


PLANE = Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])


class TestCellDecomposition:
    def test_plane_split_by_axis(self):
        cells = decompose_by_hyperplanes(PLANE, [(1, 0)])
        # open halves and the dividing line, as closed cones
        assert len(cells) == 3

    def test_every_sign_vector_present(self):
        cells = decompose_by_hyperplanes(PLANE, [(1, 0), (0, 1)])
        signs = set()
        for c in cells:
            s = c.interior_sample()
            signs.add((0 if s[0] == 0 else (1 if s[0] > 0 else -1),
                       0 if s[1] == 0 else (1 if s[1] > 0 else -1)))
        assert len(signs) == 9

    @pytest.mark.parametrize("h", [(1, 0), (-1, 0)])
    def test_uncrossed_hyperplane_adds_the_face(self, h):
        # a functional of one sign on the cell keeps it whole and cuts out
        # the face where it vanishes
        quad = cone(2, (1, 0), (0, 1))
        cells = decompose_by_hyperplanes(quad, [h])
        assert cells == [cone(2, (0, 1)), quad]
