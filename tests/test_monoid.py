import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import pushout_monoid
from semistable.cone import Cone, ConeError, dual_cone, image_cone, preimage_cone
from semistable.lattice import (
    Lattice,
    LatticeMap,
    dot,
    dual_map,
    full_sublattice,
    identity,
    image_lattice,
    mat,
    rank,
    sublattice_from_vectors,
    transpose,
    vec_add,
)
from semistable import monoid
from semistable.monoid import (
    AffineMonoid,
    BudgetExceeded,
    MonoidError,
    MonoidMap,
    _compare_hilbert_bases,
    _contains_modulo_units,
    _kato_search,
    _lattice_certificate,
    dual_monoid,
    hilbert_basis,
    image_monoid_equals_cone_monoid,
    integral_by_flatness,
    is_saturated,
    kato_integral,
    monoid_generators_of_cone,
    monoid_membership,
    q_kappa_lattice,
)


def lmap(rows):
    rows = mat(rows)
    return LatticeMap(Lattice(len(rows[0])), Lattice(len(rows)), rows)


def naive_elements(gens, height, rank):
    """All monoid elements with coordinate sums of generator counts <= height."""
    out = {(0,) * rank}
    frontier = [(0,) * rank]
    for _ in range(height):
        nxt = []
        for x in frontier:
            for g in gens:
                y = vec_add(x, g)
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


class TestHilbertBasis:
    def test_quadrant(self):
        c = Cone.from_generators(2, [(1, 0), (0, 1)])
        assert hilbert_basis(c) == [(0, 1), (1, 0)]

    def test_interior_generator_needed(self):
        c = Cone.from_generators(2, [(1, 0), (1, 2)])
        assert hilbert_basis(c) == [(1, 0), (1, 1), (1, 2)]

    def test_ray_in_even_sum_sublattice(self):
        c = Cone.from_generators(2, [(1, 1)])
        L = sublattice_from_vectors(Lattice(2), [(1, 1), (2, 0)])
        assert hilbert_basis(c, L) == [(1, 1)]

    def test_ray_needs_multiple_in_sublattice(self):
        c = Cone.from_generators(2, [(1, 0)])
        L = sublattice_from_vectors(Lattice(2), [(1, 1), (2, 0)])
        assert hilbert_basis(c, L) == [(2, 0)]

    def test_rejects_non_pointed(self):
        c = Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(ConeError):
            hilbert_basis(c)

    def test_zero_cone(self):
        assert hilbert_basis(Cone.zero(2)) == []

    def test_thin_cone(self):
        # one parallelepiped of 5,000 points; its box held about 30,000
        c = Cone.from_generators(2, [(1, 0), (1, 5000)])
        assert hilbert_basis(c) == [(1, k) for k in range(5001)]

    def test_many_weights(self):
        # 5,002 basis elements of 5,001 weights; comparing each candidate
        # with every lighter one took about 40 s, with the candidates of at
        # most half its weight well under a second
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 1, 5000)])
        assert hilbert_basis(c) == [(0, 1, 0), (1, 0, 0)] + [(1, 1, k) for k in range(1, 5001)]

    def test_minimality(self):
        c = Cone.from_generators(2, [(2, -1), (0, 1)])
        hb = hilbert_basis(c)
        for i in range(len(hb)):
            rest = AffineMonoid(Lattice(2), tuple(hb[:i] + hb[i + 1:]))
            ok, _ = monoid_membership(hb[i], rest)
            assert not ok

    def test_generates_everything_bounded(self):
        c = Cone.from_generators(2, [(3, -1), (1, 2)])
        hb = hilbert_basis(c)
        M = AffineMonoid(Lattice(2), tuple(hb))
        for x in range(-2, 7):
            for y in range(-3, 7):
                ok, _ = monoid_membership((x, y), M)
                assert ok == c.contains((x, y))


class TestMembership:
    def test_not_in_even(self):
        M = AffineMonoid(Lattice(1), ((2,),))
        ok, _ = monoid_membership((3,), M)
        assert not ok

    def test_witness(self):
        M = AffineMonoid(Lattice(1), ((2,), (3,)))
        ok, witness = monoid_membership((5,), M)
        assert ok
        assert witness == (1, 1)

    def test_gap(self):
        M = AffineMonoid(Lattice(1), ((2,), (3,)))
        ok, w = monoid_membership((1,), M)
        assert not ok and w is None

    def test_zero_always_member(self):
        M = AffineMonoid(Lattice(1), ((2,),))
        ok, w = monoid_membership((0,), M)
        assert ok and w == (0,)

    def test_fails_fast_on_units(self):
        M = AffineMonoid(Lattice(1), ((1,), (-1,)))
        with pytest.raises(MonoidError):
            monoid_membership((5,), M)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=3),
           st.tuples(st.integers(0, 8), st.integers(0, 8)))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, gens, w):
        gens = [g for g in gens if g != (0, 0)]
        if not gens:
            return
        M = AffineMonoid(Lattice(2), tuple(gens))
        ok, _ = monoid_membership(w, M)
        assert ok == (tuple(w) in naive_elements(gens, 16, 2))


class TestUnitsAwareMembership:
    def test_group_case(self):
        gens = [(1, 0), (-1, 0)]
        assert _contains_modulo_units((5, 0), gens, Lattice(2))
        assert not _contains_modulo_units((0, 1), gens, Lattice(2))

    def test_halfplane_monoid(self):
        gens = [(1, -1), (-1, 1), (0, 1)]
        assert _contains_modulo_units((3, -2), gens, Lattice(2))
        assert _contains_modulo_units((-4, 5), gens, Lattice(2))
        assert not _contains_modulo_units((0, -1), gens, Lattice(2))

    def test_non_saturated_units(self):
        # units generate 2Z(1,-1); residuals must land in that subgroup
        gens = [(2, -2), (-2, 2), (0, 1)]
        assert _contains_modulo_units((2, -1), gens, Lattice(2))
        assert not _contains_modulo_units((1, 0), gens, Lattice(2))

    def test_matches_plain_membership_when_pointed(self):
        gens = [(2,), (3,)]
        assert _contains_modulo_units((5,), gens, Lattice(1))
        assert not _contains_modulo_units((1,), gens, Lattice(1))


class TestGeneratorsOfCone:
    def test_halfplane(self):
        c = Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        gens = monoid_generators_of_cone(c)
        M = set(gens)
        assert (1, 0) in M and (-1, 0) in M
        # some lift with positive second coordinate generates the rest
        assert any(g[1] == 1 for g in gens)
        for v in [(3, 2), (-3, 2), (0, 5)]:
            assert _contains_modulo_units(v, gens, Lattice(2))
        assert not _contains_modulo_units((0, -1), gens, Lattice(2))

    def test_full_line(self):
        c = Cone.from_generators(1, [(1,), (-1,)])
        gens = monoid_generators_of_cone(c)
        assert set(gens) == {(1,), (-1,)}

    def test_pointed_matches_hilbert(self):
        c = Cone.from_generators(2, [(1, 0), (1, 2)])
        assert monoid_generators_of_cone(c) == hilbert_basis(c)


class TestDualMonoid:
    def test_quadrant(self):
        c = Cone.from_generators(2, [(1, 0), (0, 1)])
        assert dual_monoid(c).generators == ((0, 1), (1, 0))

    def test_ray_gives_halfplane_with_units(self):
        c = Cone.from_generators(2, [(1, 1)])
        dm = dual_monoid(c)
        gens = dm.generators
        # oracle: bounded enumeration must reach every dual lattice point
        for x in range(-3, 4):
            for y in range(-3, 4):
                v = (x, y)
                expected = x + y >= 0
                assert _contains_modulo_units(v, gens, Lattice(2)) == expected

    def test_zero_cone_dual_is_whole_lattice(self):
        dm = dual_monoid(Cone.zero(1))
        assert set(dm.generators) == {(1,), (-1,)}

    def test_equal_cones_share_one_monoid(self):
        # built from different generators, so the cone memo makes two objects
        a = Cone.from_generators(2, [(1, 0), (1, 2)])
        b = Cone.from_generators(2, [(2, 0), (1, 2), (2, 2)])
        assert a == b and a is not b
        assert dual_monoid(a) is dual_monoid(b)

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(-2, 2)] * n), max_size=4).map(
            lambda gens: Cone.from_generators(n, gens))))
    @example(Cone.zero(2))
    @example(Cone.from_generators(2, [(1, 1)]))
    @example(Cone.from_generators(2, [(1, 0), (-1, 0), (0, 1)]))
    @example(Cone.from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 3)]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_memo_matches_a_fresh_computation(self, c):
        # cones with lines, lower-dimensional cones (whose duals have lines,
        # the lineality branch of monoid_generators_of_cone) and zero cones
        assert dual_monoid(c) == monoid._dual_monoid.__wrapped__(c)


class TestImageMonoidEquality:
    def test_chart_with_unit_image(self):
        p = lmap([[1, 1]])
        sigma = Cone.from_generators(2, [(1, 0), (1, 1)])
        kappa = Cone.from_generators(1, [(1,)])
        assert image_monoid_equals_cone_monoid(p, sigma, kappa)

    def test_diagonal_ray_fails(self):
        p = lmap([[1, 1]])
        sigma = Cone.from_generators(2, [(1, 1)])
        kappa = Cone.from_generators(1, [(1,)])
        assert not image_monoid_equals_cone_monoid(p, sigma, kappa)

    def test_doubling_fails(self):
        p = lmap([[2]])
        sigma = Cone.from_generators(1, [(1,)])
        kappa = Cone.from_generators(1, [(1,)])
        assert not image_monoid_equals_cone_monoid(p, sigma, kappa)

    def test_image_escaping_the_target_lattice_fails(self):
        # p = id on the ray, N = Z, Q = 2Z: the generator 1 escapes 2Z
        p = lmap([[1]])
        ray = Cone.from_generators(1, [(1,)])
        q_sub = sublattice_from_vectors(Lattice(1), [(2,)])
        assert not image_monoid_equals_cone_monoid(p, ray, ray, None, q_sub)
        assert image_monoid_equals_cone_monoid(p, ray, ray, q_sub, q_sub)

    def test_precondition(self):
        p = lmap([[1, 1]])
        sigma = Cone.from_generators(2, [(1, 0)])
        kappa = Cone.from_generators(1, [(-1,)])
        with pytest.raises(MonoidError):
            image_monoid_equals_cone_monoid(p, sigma, kappa)


@st.composite
def image_monoid_cases(draw):
    """A strictly convex sigma of rank 2-3 onto a strictly convex kappa under
    a small map p, with sublattices N_sub of the source and Q_sub of the
    target: the whole lattice, p(N_sub), or random, of any rank."""
    n = draw(st.integers(2, 3))
    sigma = Cone.from_generators(n, [g[:n] for g in draw(
        st.lists(vec3, min_size=n, max_size=n + 1))])
    assume(sigma.is_strictly_convex)
    k = draw(st.integers(1, n))
    p = lmap([g[:n] for g in draw(st.lists(vec3, min_size=k, max_size=k))])
    kappa = image_cone(p, sigma)
    assume(kappa.is_strictly_convex)
    small = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple)

    def sublattice(lat, image_of=None):
        kind = draw(st.sampled_from(["full", "image", "random"] if image_of else
                                    ["full", "random"]))
        if kind == "full":
            return full_sublattice(lat)
        if kind == "image":
            return image_lattice(p, image_of)
        return sublattice_from_vectors(lat, [g[:lat.rank] for g in draw(
            st.lists(small, min_size=lat.rank, max_size=lat.rank + 1))])

    n_sub = sublattice(p.domain)
    return p, sigma, kappa, n_sub, sublattice(p.codomain, n_sub)


def test_lattice_certificate_agrees_with_hilbert_bases():
    outcomes = set()

    @given(image_monoid_cases())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def check(case):
        p, sigma, kappa, n_sub, q_sub = case
        try:
            want = _compare_hilbert_bases(p, sigma, kappa, n_sub, q_sub)
        except (BudgetExceeded, MonoidError):
            assume(False)
        got = _lattice_certificate(p, sigma, n_sub, q_sub)
        assert got in (None, want)
        assert image_monoid_equals_cone_monoid(p, sigma, kappa, n_sub, q_sub) == want
        outcomes.add(got)

    check()
    assert outcomes == {True, False, None}


def brute_force_q_kappa(p, kappa, contributing, height=12):
    """Oracle: points of kappa with a lattice preimage in every cone, as a group."""
    q_rank = p.codomain.rank
    assert q_rank == 1
    hits = []
    for w in range(1, height + 1):
        wv = (w,)
        ok_all = True
        for sigma, n_sub in contributing:
            found = False
            for x in range(-height * 3, height * 3 + 1):
                for y in range(-height * 3, height * 3 + 1):
                    v = (x, y)[: p.domain.rank]
                    if sigma.contains(v) and n_sub.contains(v) and p(v) == wv:
                        found = True
                        break
                if found:
                    break
            if not found:
                ok_all = False
                break
        if ok_all:
            hits.append(wv)
    return sublattice_from_vectors(p.codomain, hits)


class TestQKappaLattice:
    def test_sum_map_fixture(self):
        p = lmap([[1, 1]])
        kappa = Cone.from_generators(1, [(1,)])
        full = full_sublattice(Lattice(2))
        cones = [
            Cone.from_generators(2, [(1, 0), (1, 1)]),
            Cone.from_generators(2, [(1, 1), (0, 1)]),
            Cone.from_generators(2, [(1, 0)]),
            Cone.from_generators(2, [(1, 1)]),
            Cone.from_generators(2, [(0, 1)]),
        ]
        contributing = [(c, full) for c in cones]
        q = q_kappa_lattice(p, kappa, contributing)
        assert q.vectors() == [(2,)]
        oracle = brute_force_q_kappa(p, kappa, contributing)
        assert q.basis == oracle.basis

    def test_doubling(self):
        p = lmap([[2]])
        kappa = Cone.from_generators(1, [(1,)])
        contributing = [(Cone.from_generators(1, [(1,)]), full_sublattice(Lattice(1)))]
        q = q_kappa_lattice(p, kappa, contributing)
        assert q.vectors() == [(2,)]
        assert q.basis == brute_force_q_kappa(p, kappa, contributing).basis

    def test_identity(self):
        p = lmap([[1, 0], [0, 1]])
        kappa = Cone.from_generators(2, [(1, 0), (0, 1)])
        q = q_kappa_lattice(p, kappa, [(kappa, full_sublattice(Lattice(2)))])
        assert q.rank == 2
        assert q.contains((1, 0)) and q.contains((0, 1))

    def test_rejects_empty(self):
        p = lmap([[1]])
        with pytest.raises(MonoidError):
            q_kappa_lattice(p, Cone.from_generators(1, [(1,)]), [])


class TestPushoutSaturation:
    def test_two_three_pushout_not_saturated(self):
        z_pos = AffineMonoid(Lattice(1), ((1,),))
        u = MonoidMap(z_pos, z_pos, lmap([[2]]))
        v = MonoidMap(z_pos, z_pos, lmap([[3]]))
        po = pushout_monoid(u, v)
        assert po.lattice.rank == 1
        vals = sorted(abs(g[0]) for g in po.generators)
        assert vals == [2, 3]
        assert not is_saturated(po)

    def test_identity_pushout(self):
        z_pos = AffineMonoid(Lattice(1), ((1,),))
        u = MonoidMap(z_pos, z_pos, lmap([[1]]))
        po = pushout_monoid(u, u)
        assert is_saturated(po)

    def test_saturated_examples(self):
        assert is_saturated(AffineMonoid(Lattice(1), ((1,),)))
        assert is_saturated(AffineMonoid(Lattice(1), ((2,),)))  # group is 2Z
        assert not is_saturated(AffineMonoid(Lattice(1), ((2,), (3,))))
        assert is_saturated(AffineMonoid(Lattice(2), ((1, 0), (1, 1), (1, 2))))
        # the group of ((1,0),(1,2)) is the even-second-coordinate lattice,
        # and the monoid is all of cone intersect group, so it is saturated
        assert is_saturated(AffineMonoid(Lattice(2), ((1, 0), (1, 2))))
        # here the group is all of Z^2 but (1,1) is missed
        assert not is_saturated(AffineMonoid(Lattice(2), ((1, 0), (1, 2), (2, 1))))

    def test_saturated_with_units(self):
        assert is_saturated(AffineMonoid(Lattice(1), ((1,), (-1,))))
        assert is_saturated(AffineMonoid(Lattice(2), ((1, -1), (-1, 1), (0, 1))))


class TestKatoIntegral:
    def test_doubling_true(self):
        z_pos = AffineMonoid(Lattice(1), ((1,),))
        u = MonoidMap(z_pos, z_pos, lmap([[2]]))
        ok, cex = kato_integral(u, height_bound=10)
        assert ok and cex is None

    def test_identity_true(self):
        z_pos = AffineMonoid(Lattice(1), ((1,),))
        u = MonoidMap(z_pos, z_pos, lmap([[1]]))
        ok, _ = kato_integral(u, height_bound=6)
        assert ok

    def test_blowup_chart_dual_fails(self):
        # dual of (a,b) -> (a, a+b) between dual monoids of the quadrant
        quad = Cone.from_generators(2, [(1, 0), (0, 1)])
        src = dual_monoid(quad)
        tgt = dual_monoid(quad)
        u = MonoidMap(src, tgt, lmap([[1, 0], [1, 1]]))
        ok, cex = kato_integral(u, height_bound=6)
        assert not ok
        p1, p2, q1, q2 = cex
        assert vec_add(p1, q1) == vec_add(p2, q2)

    def test_rejects_non_injective(self):
        z_pos = AffineMonoid(Lattice(1), ((1,),))
        zero = AffineMonoid(Lattice(1), ())
        u = MonoidMap(z_pos, zero, lmap([[0]]))
        with pytest.raises(MonoidError):
            kato_integral(u)

    def test_counterexample_is_genuine(self):
        # verify the emitted counterexample by exhaustive witness search
        quad = Cone.from_generators(2, [(1, 0), (0, 1)])
        src = dual_monoid(quad)
        tgt = dual_monoid(quad)
        umap = lmap([[1, 0], [1, 1]])
        u = MonoidMap(src, tgt, umap)
        ok, (p1, p2, q1, q2) = kato_integral(u, height_bound=6)
        assert not ok
        elements = naive_elements(tgt.generators, 12, 2)
        src_elements = naive_elements(src.generators, 12, 2)
        for r1 in src_elements:
            w = tuple(a - b for a, b in zip(p1, umap(r1)))
            if w not in elements:
                continue
            for r2 in src_elements:
                if tuple(a + b for a, b in zip(w, umap(r2))) != p2:
                    continue
                s1 = next(s for s in src_elements if tuple(umap(s)) == q1)
                s2 = next(s for s in src_elements if tuple(umap(s)) == q2)
                assert vec_add(s1, r1) != vec_add(s2, r2)


@pytest.mark.xfail(strict=True, reason="the height-bounded search answers yes "
                   "for a map that is not integral")
def test_kato_integral_does_not_call_a_non_integral_map_integral():
    # the search at its default height finds no counterexample; at height
    # 16 it finds ((1,0),(2,-1),(4,0),(3,1)).  An exact decision of
    # integrality makes this pass, and the marker comes off then
    sigma = Cone.from_generators(2, [(2, -1), (2, 3)])
    f = lmap([[2, 2], [-1, 1]])
    kappa = image_cone(f, sigma)
    u = MonoidMap(dual_monoid(kappa), dual_monoid(sigma), dual_map(f))
    assert kato_integral(u) != (True, None)


def kummer_square():
    """diag(2, 1, 1) into the monoid of the cone over a square: both monoids
    saturated, the lattice map injective, and the dual map sends faces
    onto faces, yet the source cone has four rays in rank 3."""
    square = Cone.from_generators(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    f = lmap([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    src = preimage_cone(f, square)
    return MonoidMap(
        AffineMonoid(Lattice(3), tuple(hilbert_basis(src)), saturation_cone=src),
        AffineMonoid(Lattice(3), tuple(hilbert_basis(square)), saturation_cone=square),
        f)


class TestIntegralByFlatness:
    def test_free_source_is_required(self):
        # the Kummer map is not integral: the search finds its
        # counterexample at height 4
        u = kummer_square()
        assert len(u.source.cone().rays) == 4
        assert not integral_by_flatness(u)
        assert kato_integral(u, height_bound=4) == (
            False, ((1, 0, 1), (1, 1, 1), (0, 1, 1), (0, 0, 1)))

    def test_faces_onto_faces_is_required(self):
        # the dual of the blowup chart sends the ray (0, 1) of the quadrant
        # onto (1, 1), which is no face
        quad = Cone.from_generators(2, [(1, 0), (0, 1)])
        u = MonoidMap(dual_monoid(quad), dual_monoid(quad), lmap([[1, 0], [1, 1]]))
        assert not integral_by_flatness(u)

    def test_saturation_is_required(self):
        # x -> x into <2, 3>: the target misses 1
        u = MonoidMap(AffineMonoid(Lattice(1), ((2,),)),
                      AffineMonoid(Lattice(1), ((2,), (3,))), lmap([[1]]))
        assert not integral_by_flatness(u)

    def test_units_in_the_source(self):
        # a group maps integrally into any monoid
        z = AffineMonoid(Lattice(1), ((1,), (-1,)))
        half = AffineMonoid(Lattice(2), ((1, 0), (-1, 0), (0, 1)))
        assert integral_by_flatness(MonoidMap(z, half, lmap([[1], [0]])))

    def test_kato_skips_the_search(self, monkeypatch):
        # the identity of N^2 is integral by flatness
        def no_search(*args):
            raise AssertionError("a bounded search ran")

        n2 = AffineMonoid(Lattice(2), ((1, 0), (0, 1)))
        u = MonoidMap(n2, n2, lmap(identity(2)))
        monkeypatch.setattr(monoid, "_bounded_points", no_search)
        assert kato_integral(u) == (True, None)


vec3 = st.lists(st.integers(-2, 2), min_size=3, max_size=3).map(tuple)


@st.composite
def monoid_maps(draw):
    """Dual maps of random cones under small integer maps, and maps between
    monoids of random generators, which are seldom saturated."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        sigma = Cone.from_generators(n, [g[:n] for g in draw(
            st.lists(vec3, min_size=n, max_size=n + 2))])
        assume(sigma.dim == n and sigma.is_strictly_convex)
        k = draw(st.integers(1, n))
        f = lmap([g[:n] for g in draw(st.lists(vec3, min_size=k, max_size=k))])
        assume(rank(f.matrix) == k)
        kappa = image_cone(f, sigma)
        assume(kappa.is_strictly_convex)
        try:
            return "dual", MonoidMap(dual_monoid(kappa), dual_monoid(sigma), dual_map(f))
        except BudgetExceeded:
            assume(False)
    m = draw(st.integers(1, n))
    small = st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple)
    f = LatticeMap(Lattice(m), Lattice(n),
                   tuple(r[:m] for r in draw(st.lists(small, min_size=n, max_size=n))))
    assume(rank(f.matrix) == m)
    src = AffineMonoid(Lattice(m), tuple(g[:m] for g in draw(
        st.lists(small, min_size=1, max_size=m + 1))))
    assume(src.generators)
    extra = tuple(g[:n] for g in draw(st.lists(small, max_size=n + 1)))
    tgt = AffineMonoid(Lattice(n), extra + tuple(f(g) for g in src.generators))
    return "plain", MonoidMap(src, tgt, f)


def test_integral_by_flatness_never_meets_a_counterexample():
    outcomes = set()

    @given(monoid_maps())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def check(case):
        kind, u = case
        proved = integral_by_flatness(u)
        try:
            found, cex = _kato_search(u, 6)
        except BudgetExceeded:
            assume(False)
        assert found or not proved, cex
        outcomes.add((kind, proved))

    check()
    assert {(kind, proved) for kind in ("dual", "plain") for proved in (True, False)} \
        <= outcomes


class TestMonoidMapValidation:
    def test_rejects_escaping_generator(self):
        src = AffineMonoid(Lattice(1), ((1,),))
        tgt = AffineMonoid(Lattice(1), ((2,),))
        with pytest.raises(MonoidError):
            MonoidMap(src, tgt, lmap([[3]]))

    def test_accepts_valid(self):
        src = AffineMonoid(Lattice(1), ((1,),))
        tgt = AffineMonoid(Lattice(1), ((2,),))
        MonoidMap(src, tgt, lmap([[4]]))


class TestSearchBudget:
    """A search that reaches the budget is undecided: it raises, whatever
    the answer would have been."""

    def test_membership(self, monkeypatch):
        M = AffineMonoid(Lattice(2), ((2, 0), (0, 2)))
        assert monoid_membership((7, 7), M) == (False, None)
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 10)
        for w in [(7, 7), (8, 8)]:
            with pytest.raises(BudgetExceeded, match="undecided"):
                monoid_membership(w, M)

    def test_membership_modulo_units(self, monkeypatch):
        gens = [(1, -1), (-1, 1), (0, 2), (2, 0)]
        assert not _contains_modulo_units((0, 7), gens, Lattice(2))
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 5)
        with pytest.raises(BudgetExceeded):
            _contains_modulo_units((0, 7), gens, Lattice(2))

    def test_kato(self, monkeypatch):
        # integrality by flatness does not apply to the Kummer map, so the
        # search runs, and its first enumeration passes 5 points
        u = kummer_square()
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 5)
        with pytest.raises(BudgetExceeded):
            kato_integral(u, height_bound=10)

    def test_hilbert_box(self, monkeypatch):
        # the budget bounds the parallelepiped points, |det| = 50 here
        c = Cone.from_generators(2, [(1, 0), (1, 50)])
        assert len(hilbert_basis(c)) == 51
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 49)
        with pytest.raises(BudgetExceeded, match="Hilbert basis parallelepipeds"):
            hilbert_basis(c)

    def test_hilbert_candidates_are_parallelepiped_points(self, monkeypatch):
        # a simplicial cone of |det| 60, whose candidate box held 27,132 points
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (5, 7, 60)])
        monkeypatch.setattr(monoid, "SEARCH_BUDGET", 63)
        assert len(hilbert_basis(c)) == 23

    def test_undecided_is_not_a_monoid_error(self):
        assert issubclass(BudgetExceeded, ValueError)
        assert not issubclass(BudgetExceeded, MonoidError)


# -- properties -------------------------------------------------------------

@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_hilbert_basis_generates_cone_points(gens):
    c = Cone.from_generators(2, gens)
    if not c.is_strictly_convex or c.dim == 0:
        return
    hb = hilbert_basis(c)
    M = AffineMonoid(Lattice(2), tuple(hb))
    for x in range(-2, 5):
        for y in range(-2, 5):
            ok, _ = monoid_membership((x, y), M)
            assert ok == c.contains((x, y))


@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-2, 2)] * n), min_size=0, max_size=4)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_the_cone_of_a_dual_monoid_is_its_saturation_cone(gens):
    # `AffineMonoid.cone` answers with the saturation cone, where it used to
    # build the cone of the generators: they generate the same cone
    n = len(gens[0]) if gens else 1
    m = dual_monoid(Cone.from_generators(n, gens))
    assert m.cone() is m.saturation_cone
    assert m.cone() == Cone.from_generators(m.lattice, m.generators)


@given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=1, max_size=4),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
@settings(max_examples=60, deadline=None)
def test_units_membership_matches_naive(gens, w):
    gens = [g for g in gens if g != (0, 0)]
    if not gens:
        return
    got = _contains_modulo_units(w, gens, Lattice(2))
    # height 40: by Cramer's rule a unimodular pair of generators from
    # [-2, 2]^2 needs at most 20 copies of each to reach w in [-5, 5]^2
    assert got == (tuple(w) in naive_elements(gens, 40, 2))
