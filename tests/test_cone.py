import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semistable.cone import (
    CONE_MEMO_SIZE,
    Cone,
    ConeError,
    dual_cone,
    image_cone,
    intersect,
    preimage_cone,
    span_sublattice,
    split_by_hyperplane,
)
from semistable.lattice import Lattice, LatticeMap, dot, mat


def lmap(rows):
    rows = mat(rows)
    return LatticeMap(Lattice(len(rows[0])), Lattice(len(rows)), rows)


def cone2(*gens):
    return Cone.from_generators(2, gens)


class TestConstruction:
    def test_positive_quadrant(self):
        c = cone2((1, 0), (0, 1))
        assert c.rays == ((0, 1), (1, 0))
        assert c.facets == ((0, 1), (1, 0))
        assert c.span_equations == ()
        assert c.dim == 2

    def test_redundant_ray_removed(self):
        c = cone2((1, 0), (1, 1), (0, 1))
        assert c.rays == ((0, 1), (1, 0))

    def test_non_primitive_normalized(self):
        c = cone2((2, 0), (0, 3))
        assert c.rays == ((0, 1), (1, 0))

    def test_ray_in_plane(self):
        c = cone2((1, 2))
        assert c.rays == ((1, 2),)
        assert c.dim == 1
        assert c.span_equations == ((2, -1),) or c.span_equations == ((-2, 1),)

    def test_zero_cone(self):
        c = Cone.zero(2)
        assert c.rays == ()
        assert c.dim == 0
        assert len(c.span_equations) == 2

    def test_halfspace_roundtrip(self):
        c = cone2((1, 0), (1, 2))
        h = Cone.from_halfspaces(c.lattice, c.facets, c.span_equations)
        assert h == c

    def test_full_plane_has_lines(self):
        c = cone2((1, 0), (-1, 0), (0, 1), (0, -1))
        assert c.rays == ()
        assert len(c.lines) == 2
        assert not c.is_strictly_convex
        assert c.facets == ()

    def test_halfplane(self):
        c = cone2((1, 0), (-1, 0), (0, 1))
        assert c.lines == ((1, 0),)
        assert len(c.rays) == 1
        assert c.contains((5, 1)) and c.contains((-5, 1))
        assert not c.contains((0, -1))


def _fields(c):
    return (c.lattice, c.rays, c.lines, c.facets, c.span_equations)


def _fresh(lattice, gens):
    """Build the cone from primitive generators, bypassing the memo."""
    return Cone._build.__wrapped__(Lattice(lattice), tuple(sorted(set(gens))))


class TestMemo:
    def test_equivalent_inputs_share_one_cone(self):
        c = cone2((1, 0), (1, 2))
        assert cone2((1, 2), (1, 0)) is c
        assert cone2((3, 0), (2, 4)) is c
        assert cone2((1, 0), (1, 2), (2, 4), (1, 0)) is c
        assert cone2((0, 0), (1, 0), (0, 0), (1, 2)) is c
        assert Cone.from_generators(Lattice(2), [[1, 0], [1, 2]]) is c

    def test_lattice_rank_is_part_of_the_key(self):
        z2, z3 = Cone.zero(2), Cone.zero(3)
        assert z2 is not z3 and z2 != z3
        assert z2.span_equations == ((1, 0), (0, 1))
        assert len(z3.span_equations) == 3

    def test_results_stay_exact_past_the_bound(self):
        n = CONE_MEMO_SIZE + 50
        gens = [[(1, 0), (k, 1)] for k in range(n)]
        built = [cone2(*g) for g in gens]
        assert Cone._build.cache_info().currsize <= CONE_MEMO_SIZE
        # the first ones are evicted by now: rebuilt, and built again fresh
        for g, c in zip(gens, built):
            assert _fields(c) == _fields(_fresh(2, g))
            assert _fields(cone2(*g)) == _fields(c)

    def test_shared_cones_are_immutable(self):
        c = cone2((1, 0), (0, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.rays = ()


class TestDuality:
    def test_quadrant_self_dual(self):
        c = cone2((1, 0), (0, 1))
        assert dual_cone(c) == c

    def test_spec_example(self):
        # dual of cone((1,0),(1,2)) is cone((0,1),(2,-1))
        c = cone2((1, 0), (1, 2))
        d = dual_cone(c)
        assert d.rays == ((0, 1), (2, -1))

    def test_dual_of_full_space_is_zero(self):
        c = cone2((1, 0), (-1, 0), (0, 1), (0, -1))
        assert dual_cone(c) == Cone.zero(2)

    def test_dual_of_zero_is_full(self):
        d = dual_cone(Cone.zero(2))
        assert d.dim == 2
        assert len(d.lines) == 2

    def test_double_description(self):
        c = Cone.from_generators(2, [(1, 0), (1, 2)])
        facets, eqs = c.facets, c.span_equations
        assert eqs == ()
        assert set(facets) == {(0, 1), (2, -1)}


class TestFaces:
    def test_quadrant_faces(self):
        c = cone2((1, 0), (0, 1))
        fs = c.faces()
        assert len(fs) == 4
        dims = sorted(f.dim for f in fs)
        assert dims == [0, 1, 1, 2]
        assert c in fs
        assert Cone.zero(2) in fs

    def test_is_face(self):
        c = cone2((1, 0), (0, 1))
        assert cone2((1, 0)) in c.faces()
        assert cone2((1, 1)) not in c.faces()

    def test_faces_requires_pointed(self):
        c = cone2((1, 0), (-1, 0), (0, 1))
        for _ in range(2):
            with pytest.raises(ConeError):
                c.faces()

    def test_faces_are_a_fresh_list_each_call(self):
        c = cone2((1, 0), (0, 1))
        fs = c.faces()
        want = list(fs)
        fs.clear()
        assert c.faces() == want and c.faces() is not c.faces()

    def test_simplicial_3d_face_count(self):
        c = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(c.faces()) == 8


class TestMembership:
    def test_contains(self):
        c = cone2((1, 0), (1, 2))
        assert c.contains((1, 1))
        assert c.contains((0, 0))
        assert not c.contains((0, 1))
        assert not c.contains((-1, 0))

    def test_contains_fractions(self):
        c = cone2((1, 0), (1, 2))
        assert c.contains((Fraction(1, 2), Fraction(1, 3)))
        assert not c.contains((Fraction(-1, 2), Fraction(1, 3)))

    def test_relint(self):
        c = cone2((1, 0), (1, 2))
        assert c.relint_contains((1, 1))
        assert not c.relint_contains((1, 0))
        assert not c.relint_contains((0, 0))

    def test_relint_of_ray(self):
        r = cone2((1, 1))
        assert r.relint_contains((2, 2))
        assert not r.relint_contains((0, 0))
        assert not r.relint_contains((1, 2))

    def test_interior_sample(self):
        c = cone2((1, 0), (1, 2))
        s = c.interior_sample()
        assert c.relint_contains(s)


class TestOperations:
    def test_intersect_spec_example(self):
        a = cone2((1, 0), (0, 1))
        b = cone2((1, 1), (-1, 1))
        c = intersect(a, b)
        assert c.rays == ((0, 1), (1, 1))

    def test_intersect_to_ray(self):
        a = cone2((1, 0), (1, 1))
        b = cone2((1, 1), (0, 1))
        assert intersect(a, b) == cone2((1, 1))

    def test_image_cone(self):
        p = lmap([[1, 1]])
        img = image_cone(p, cone2((1, 0), (0, 1)))
        assert img.rays == ((1,),)

    def test_image_cone_collapse(self):
        p = lmap([[1, -1]])
        img = image_cone(p, cone2((1, 0), (0, 1)))
        # image is all of R: generated by +1 and -1
        assert img.lines == ((1,),)

    def test_preimage_cone(self):
        p = lmap([[1, 1]])
        pre = preimage_cone(p, Cone.from_generators(1, [(1,)]))
        # a + b >= 0 is a half plane
        assert pre.dim == 2
        assert pre.contains((3, -2))
        assert not pre.contains((-3, 2))

    def test_preimage_of_zero_is_kernel_line(self):
        p = lmap([[1, 1]])
        pre = preimage_cone(p, Cone.zero(1))
        assert pre.lines == ((1, -1),)
        assert pre.rays == ()

    def test_split_quadrant(self):
        c = cone2((1, 0), (0, 1))
        pos, neg = split_by_hyperplane(c, (-1, 1))  # b - a
        assert pos == cone2((1, 1), (0, 1))
        assert neg == cone2((1, 0), (1, 1))
        assert intersect(pos, neg) == cone2((1, 1))

    def test_span_sublattice(self):
        c = cone2((2, 4))
        s = span_sublattice(c)
        assert s.vectors() == [(1, 2)]


# -- property tests ---------------------------------------------------------

small = st.integers(min_value=-4, max_value=4)


def gen_lists(rank, max_gens=5):
    return st.lists(
        st.tuples(*([small] * rank)), min_size=0, max_size=max_gens
    )


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), gen_lists(n))))
@settings(max_examples=120, deadline=None)
def test_double_dual_identity(args):
    n, gens = args
    c = Cone.from_generators(n, gens)
    assert dual_cone(dual_cone(c)) == c


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), gen_lists(n))))
@settings(max_examples=100, deadline=None)
def test_generators_satisfy_halfspaces(args):
    n, gens = args
    c = Cone.from_generators(n, gens)
    for g in gens:
        assert c.contains(g)
    for r in c.rays:
        assert all(dot(u, r) >= 0 for u in c.facets)
        assert all(dot(e, r) == 0 for e in c.span_equations)


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), gen_lists(n))))
@settings(max_examples=80, deadline=None)
def test_construction_idempotent(args):
    n, gens = args
    c = Cone.from_generators(n, gens)
    again = Cone.from_generators(n, c.generators())
    assert again == c
    assert again.facets == c.facets
    assert again.span_equations == c.span_equations


@given(st.integers(2, 3).flatmap(lambda n: st.tuples(st.just(n), gen_lists(n, 4))))
@settings(max_examples=60, deadline=None)
def test_faces_are_faces(args):
    n, gens = args
    c = Cone.from_generators(n, gens)
    if c.lines:
        return
    fs = c.faces()
    assert c in fs
    for f in fs:
        assert c.contains_cone(f)
        # a face is cut out by some supporting functional of c
        if f != c:
            assert any(
                all(dot(u, r) == 0 for r in f.generators())
                for u in c.facets
            )


@given(gen_lists(2, 4), st.tuples(small, small))
@settings(max_examples=80, deadline=None)
def test_split_covers(gens, func):
    if all(x == 0 for x in func):
        return
    c = Cone.from_generators(2, gens)
    pos, neg = split_by_hyperplane(c, func)
    assert c.contains_cone(pos) and c.contains_cone(neg)
    s = c.interior_sample()
    assert pos.contains(s) or neg.contains(s)


@given(gen_lists(2, 4))
@settings(max_examples=80, deadline=None)
def test_interior_sample_in_relint(gens):
    c = Cone.from_generators(2, gens)
    if c.lines:
        return
    assert c.relint_contains(c.interior_sample())
