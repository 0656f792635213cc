"""Each lattice question against the Smith-form routine it replaced (see
oracles.py), on bounded random integer matrices and sublattices of rank <= 4
and cones of rank <= 5 (with and without lines), facets and cones cut out by
inequalities from double description against the subset loop and the dual
of the inequality cone, Hilbert bases against the box scan they replaced,
and guards on the number of Smith forms, cone intersections and Hilbert
bases one reduce makes."""
import io
import os
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from semistable.cli import load_document, main
from semistable.cone import Cone, _extreme_rays, dual_cone, intersect, span_sublattice
from semistable.conecomplex import (
    _left_inverse_map,
    fan_morphism_as_complex,
    reduce_complex,
)
from semistable import lattice
from semistable.lattice import (
    Lattice,
    LatticeMap,
    Sublattice,
    det,
    identity,
    image_lattice,
    intersect_sublattices,
    kernel_lattice,
    lattice_index,
    left_inverse,
    lift,
    mat,
    matmul,
    matvec,
    preimage_sublattice,
    rank,
    row_hermite_form,
    saturate,
    smith_normal_form,
    span_basis,
    sublattice_from_vectors,
    transpose,
    vec_neg,
)
from semistable import monoid
from semistable.monoid import BudgetExceeded, hilbert_basis, monoid_generators_of_cone

DATA = os.path.join(os.path.dirname(__file__), "data")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

entry = st.integers(-4, 4)


@st.composite
def matrices(draw, max_rows=5, max_cols=5, min_rows=0):
    """Integer matrices with zero rows, repeated rows and row combinations
    mixed in, so rank-deficient cases are common."""
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        kind = draw(st.sampled_from(("random", "random", "zero", "combo")))
        if kind == "zero" or (kind == "combo" and not rows):
            rows.append((0,) * ncols)
        elif kind == "combo":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entry), draw(entry)
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=ncols, max_size=ncols))))
    return mat(rows), ncols


@st.composite
def sublattices(draw, max_rank=4):
    n = draw(st.integers(1, max_rank))
    gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    return sublattice_from_vectors(Lattice(n), gens)


@st.composite
def vectors_for(draw, sub):
    """A vector of the ambient lattice: often in the sublattice or in its
    saturation, otherwise random."""
    n = sub.ambient.rank
    kind = draw(st.sampled_from(("inside", "scaled", "random")))
    if kind == "random" or sub.rank == 0:
        return tuple(draw(st.lists(entry, min_size=n, max_size=n)))
    x = draw(st.lists(entry, min_size=sub.rank, max_size=sub.rank))
    v = matvec(sub.basis, x)
    if kind == "scaled":
        # a vector of the saturation that may fall outside sub
        sat = saturate(sub)
        v = matvec(sat.basis, draw(st.lists(entry, min_size=sat.rank,
                                            max_size=sat.rank)))
    return v


@st.composite
def cones(draw, max_rank=4):
    n = draw(st.integers(1, max_rank))
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=1, max_size=6))
    return Cone.from_generators(n, gens)


@given(matrices())
@SETTINGS
def test_bareiss_rank_matches_smith_form(case):
    a, ncols = case
    assert rank(a) == oracles.rank_of(a, ncols)


def test_rank_of_degenerate_shapes():
    assert rank(()) == 0
    assert rank(((), ())) == 0
    assert rank(((0, 0), (0, 0))) == 0
    assert rank(((0, 2), (0, 4), (1, 0))) == 2


def test_contains_and_coordinates_match_solve_integer():
    seen = set()

    @given(st.data())
    @SETTINGS
    def check(data):
        sub = data.draw(sublattices())
        v = data.draw(vectors_for(sub))
        got = sub.contains(v)
        assert got == oracles.contains(sub, v)
        x = sub.coordinates(v)
        assert (x is not None) == got
        if got:
            assert matvec(sub.basis, x) == tuple(v)
        seen.add(got)

    check()
    assert seen == {True, False}


def test_lattice_index_matches_solve_integer():
    outcomes = set()

    @given(st.data())
    @SETTINGS
    def check(data):
        outer = data.draw(sublattices())
        inner = sublattice_from_vectors(
            outer.ambient, [data.draw(vectors_for(outer)) for _ in range(data.draw(st.integers(0, 4)))])
        try:
            want = oracles.lattice_index(inner, outer)
        except ValueError:
            with pytest.raises(ValueError):
                lattice_index(inner, outer)
            outcomes.add("not contained")
            return
        assert lattice_index(inner, outer) == want
        outcomes.add("infinite" if want is None else "finite")

    check()
    assert outcomes == {"not contained", "infinite", "finite"}


@given(sublattices())
@SETTINGS
def test_saturate_matches_right_inverse(sub):
    assert saturate(sub).basis == oracles.saturate(sub).basis


@given(cones())
@SETTINGS
def test_span_is_the_saturated_span_of_the_generators(c):
    want = oracles.saturate(sublattice_from_vectors(c.lattice, c.generators()))
    assert span_sublattice(c).basis == want.basis


@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(
        st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple),
        min_size=d, max_size=d + 3))))
@SETTINGS
def test_facets_by_double_description_match_kernel_per_subset(case):
    d, rays = case
    assume(oracles.rank_of(rays, d) == d)
    assert _extreme_rays(rays, d) == oracles.facets_fulldim(rays, d)


@given(cones())
@SETTINGS
def test_faces_from_incidences_match_every_facet_subset(c):
    assume(c.is_strictly_convex)
    assert [(f.dim, f.rays) for f in c.faces()] == \
        [(f.dim, f.rays) for f in oracles.faces(c)]


@given(matrices(max_rows=4, max_cols=3, min_rows=1))
@SETTINGS
def test_one_smith_form_decides_injective_and_saturated(case):
    a, ncols = case
    e = LatticeMap(Lattice(ncols), Lattice(len(a)), a)
    snf = smith_normal_form(e.matrix)
    img = image_lattice(e)
    assert (snf.rank == ncols) == (kernel_lattice(e).rank == 0)
    assert all(d == 1 for d in snf.invariant_factors) == \
        (oracles.saturate(img).basis == img.basis)


def test_left_inverse_matches_smith_form_and_solve_integer():
    outcomes = set()

    @given(matrices(max_rows=4, max_cols=4, min_rows=1),
           st.lists(entry, min_size=4, max_size=4))
    @SETTINGS
    def check(case, coeffs):
        a, ncols = case
        snf = smith_normal_form(a)
        embeds = snf.rank == ncols and all(d == 1 for d in snf.invariant_factors)
        inv = left_inverse(a)
        assert (inv is not None) == embeds
        if embeds:
            assert matmul(inv, a) == identity(ncols)
            b = matvec(a, coeffs[:ncols])
            assert matvec(inv, b) == oracles.solve_integer(a, b)
        outcomes.add(embeds)

    check()
    assert outcomes == {True, False}


def test_lift_solves_exactly_where_the_smith_form_does():
    outcomes = set()

    @given(matrices(max_rows=4, max_cols=4, min_rows=1), st.data())
    @SETTINGS
    def check(case, data):
        a, ncols = case
        # images of random vectors, scaled images and random targets
        targets = []
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(("image", "scaled", "random")))
            if kind == "random":
                targets.append(tuple(data.draw(st.lists(entry, min_size=len(a),
                                                        max_size=len(a)))))
            else:
                x = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
                k = data.draw(st.integers(1, 3)) if kind == "scaled" else 1
                targets.append(tuple(k * y for y in matvec(a, x)))
        lifts = lift(a, targets)
        assert len(lifts) == len(targets)
        for b, x in zip(targets, lifts):
            want = oracles.solve_integer(a, b)
            assert (x is None) == (want is None)
            if x is not None:
                assert matvec(a, x) == b
            outcomes.add(x is None)

    check()
    assert outcomes == {True, False}


@given(st.data())
@SETTINGS
def test_smallest_multiple_coords_match_the_rational_solve(data):
    sub = data.draw(sublattices())
    assume(sub.rank > 0)
    ray = data.draw(vectors_for(sub))
    if oracles.solve_rational(sub.basis, ray) is None:
        with pytest.raises(monoid.MonoidError):
            monoid._smallest_multiple_coords(sub, ray)
    else:
        assert monoid._smallest_multiple_coords(sub, ray) == \
            oracles.smallest_multiple_coords(sub.basis, ray)


@given(sublattices())
@SETTINGS
def test_saturate_matches_smith_division_of_the_hermite_basis(sub):
    assert saturate(sub).basis == oracles.smith_saturate(sub).basis


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(entry, min_size=n, max_size=n), max_size=5))))
@SETTINGS
def test_span_basis_gives_saturation_coordinates_and_equations(case):
    n, vecs = case
    basis, coords, eqs = span_basis(vecs, n)
    sat = oracles.saturate(sublattice_from_vectors(Lattice(n), vecs))
    assert sublattice_from_vectors(Lattice(n), basis).basis == sat.basis
    # (coordinates; equations) is unimodular and inverts the basis on the span
    assert abs(det(coords + eqs)) == 1
    if basis:
        b = transpose(mat(basis))
        assert matmul(coords, b) == identity(len(basis))
        assert all(not any(row) for row in matmul(eqs, b))


@st.composite
def sublattice_pairs(draw, max_rank=4):
    n = draw(st.integers(1, max_rank))
    vec = st.lists(entry, min_size=n, max_size=n)
    a = draw(st.lists(vec, max_size=4))
    b = draw(st.lists(vec, max_size=4))
    # share a vector often, so the intersection is not always zero
    if a and draw(st.booleans()):
        b = b + [a[0]]
    return sublattice_from_vectors(Lattice(n), a), sublattice_from_vectors(Lattice(n), b)


def test_intersection_matches_smith_kernel():
    ranks = set()

    @given(sublattice_pairs())
    @SETTINGS
    def check(pair):
        a, b = pair
        got = intersect_sublattices(a, b)
        assert got.basis == oracles.intersect_sublattices(a, b).basis
        ranks.add(min(got.rank, 1))

    check()
    assert ranks == {0, 1}


@st.composite
def maps_and_sublattices(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    s = sublattice_from_vectors(Lattice(m), draw(st.lists(
        st.lists(entry, min_size=m, max_size=m), max_size=3)))
    return LatticeMap(Lattice(n), Lattice(m), mat(rows)), s


@given(maps_and_sublattices())
@SETTINGS
def test_preimage_and_kernel_match_smith_kernel(case):
    f, s = case
    assert preimage_sublattice(f, s).basis == oracles.preimage_sublattice(f, s).basis
    zero = sublattice_from_vectors(f.codomain, [])
    assert kernel_lattice(f).basis == oracles.preimage_sublattice(f, zero).basis


def _both(vectors, lines):
    return [tuple(v) for v in vectors] + [w for l in lines for w in (tuple(l), vec_neg(l))]


@st.composite
def cone_cases(draw, bound=3):
    """(kind, cone, the oracle's (rays, lines, facets, span equations)) of
    rank <= 5: cones from generators, from half-spaces with and without
    equations, and duals of lower-dimensional cones, so many contain lines."""
    n = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    kind = draw(st.sampled_from(("generators", "halfspaces", "dual")))
    if kind == "generators":
        gens = draw(st.lists(vec, min_size=1, max_size=6))
        return kind, Cone.from_generators(n, gens), oracles.cone_data(n, gens)
    if kind == "halfspaces":
        ineqs = draw(st.lists(vec, max_size=4))
        eqs = draw(st.lists(vec, max_size=2))
        dual = oracles.cone_data(n, _both(ineqs, eqs))
        return (kind, Cone.from_halfspaces(n, ineqs, eqs),
                oracles.cone_data(n, _both(dual[2], dual[3])))
    gens = draw(st.lists(vec, max_size=n - 1))
    low = oracles.cone_data(n, gens)
    return (kind, dual_cone(Cone.from_generators(n, gens)),
            oracles.cone_data(n, _both(low[2], low[3])))


def test_cone_construction_matches_the_quotient_facet_pass():
    seen = set()

    @given(cone_cases())
    @SETTINGS
    def check(case):
        kind, c, (rays, lines, facets, eqs) = case
        assert (c.rays, c.lines, c.facets) == (rays, lines, facets)
        assert c.span_equations == row_hermite_form(mat(eqs))
        seen.add((kind, bool(c.lines)))

    check()
    assert {k for k, _ in seen} == {"generators", "halfspaces", "dual"}
    assert {has_lines for k, has_lines in seen if k == "halfspaces"} == {True, False}


def test_from_halfspaces_matches_the_dual_of_the_inequality_cone():
    # one double description against two cone builds, the second from the
    # facets of the first
    seen = set()

    @given(st.data())
    @SETTINGS
    def check(data):
        n = data.draw(st.integers(1, 5))
        vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        ineqs = data.draw(st.lists(vec, max_size=6))
        eqs = data.draw(st.lists(vec, max_size=2))
        c = Cone.from_halfspaces(n, ineqs, eqs)
        want = oracles.from_halfspaces(n, ineqs, eqs)
        assert (c.rays, c.lines, c.facets, c.span_equations, c.span) == \
            (want.rays, want.lines, want.facets, want.span_equations, want.span)
        seen.add((bool(eqs), bool(c.lines)))

    check()
    assert seen == {(eqs, lines) for eqs in (True, False) for lines in (True, False)}


def test_monoid_generators_with_lines_match_smith_quotient():
    kinds = set()

    @given(cone_cases(bound=2), st.lists(st.integers(1, 2), min_size=5, max_size=5))
    @SETTINGS
    def check(case, scale):
        kind, c, _ = case
        assume(c.lines)
        n = c.lattice.rank
        L = sublattice_from_vectors(c.lattice, [tuple(scale[i] if i == j else 0 for j in range(n))
                                                for i in range(n)])
        assert monoid_generators_of_cone(c, L) == oracles.monoid_generators_of_cone(c, L)
        kinds.add(kind)

    check()
    assert kinds == {"generators", "halfspaces", "dual"}


@st.composite
def monoid_cases(draw):
    """(cone, sublattice) of rank 2-4: generators with a positive first
    coordinate, so most cones are strictly convex and many have more rays
    than their dimension, and in some a line of first coordinate 0 added in
    both directions; and a lower triangular basis of a random sublattice of
    finite index."""
    n = draw(st.integers(2, 4))
    tail = st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1).map(tuple)
    gens = draw(st.lists(st.tuples(st.integers(1, 2), tail).map(lambda t: (t[0],) + t[1]),
                         min_size=n, max_size=n + 2))
    lines = [(0,) + t for t in draw(st.lists(tail, max_size=1))]
    c = Cone.from_generators(n, gens + _both((), lines))
    diagonal = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    below = st.integers(-1, 1)
    L = sublattice_from_vectors(c.lattice, [
        tuple(diagonal[i] if i == j else draw(below) if j < i else 0 for j in range(n))
        for i in range(n)])
    return c, L


# the box scan's budget in these examples; the parallelepipeds never hold
# more points than the box, so the library decides wherever the box does
BOX_BUDGET = 20_000


def test_hilbert_bases_match_the_box_scan(monkeypatch):
    monkeypatch.setattr(monoid, "SEARCH_BUDGET", BOX_BUDGET)
    seen = set()

    @given(monoid_cases())
    @SETTINGS
    def check(case):
        c, L = case
        try:
            if c.lines:
                want = oracles.monoid_generators_of_cone(c, L, oracles.box_hilbert_basis)
            else:
                want = oracles.box_hilbert_basis(c, L)
        except BudgetExceeded:
            return
        assert monoid_generators_of_cone(c, L) == want
        pointed_dim = c.dim - len(c.lines)
        seen.add((bool(c.lines), len(c.rays) == pointed_dim))

    check()
    assert seen == {(lines, simplicial) for lines in (True, False)
                    for simplicial in (True, False)}


# ---------------------------------------------------------------------------
# vectors of the wrong length

def test_contains_rejects_a_vector_of_the_wrong_length():
    sub = Sublattice(Lattice(2), ((1,), (0,)))
    assert sub.contains((1, 0)) and not sub.contains((0, 1))
    for v in ((1, 0, 5), (1,)):
        with pytest.raises(ValueError):
            sub.contains(v)
        with pytest.raises(ValueError):
            sub.coordinates(v)


def test_lift_rejects_a_vector_of_the_wrong_length():
    assert lift(identity(2), [(1, 2)]) == [(1, 2)]
    for b in ((1, 2, 3), (1,)):
        with pytest.raises(ValueError):
            lift(identity(2), [b])


# ---------------------------------------------------------------------------
# Smith forms, Hermite forms, intersections and Hilbert bases per reduce

# S->quad makes 62 Smith forms from cleared cone memos, one per cone span
# and lineality quotient and one per lineality of a distinct cone cut out
# by inequalities; building each such cone twice, as the dual of the cone
# its inequalities generate, it made 147, lifting the rays of a cone with lines
# by a Smith form each 191, with Smith-kernel intersections and preimages
# and three per span 792, and with a Smith form for every membership test,
# rank, facet candidate and saturation solve 3,711
SMITH_FORMS_S_QUAD = 62
# the same family reduced chart by chart makes 63, 144 with two builds per
# cone cut out by inequalities; its left inverses lifted by Hermite forms;
# with a Smith form per ray lift and per distinct embedding's left inverse
# it made 201, cutting every source cell by every target piece 427, with one
# left inverse per gluing crossed 643, and with a Smith form per gluing in
# validate_complex and an integer solve per functional, sublattice vector
# and map column 1,060
SMITH_FORMS_S_QUAD_COMPLEX = 63
# and it intersects cones 18 times, cutting each source cell by the maximal
# pieces of its target subdivision only (93 by every piece); it computes no
# Hilbert basis, the lattice certificate deciding weak semistability (60
# before)
INTERSECTS_S_QUAD_COMPLEX = 30
# one row Hermite form per distinct sublattice basis, intersection and
# preimage: 318 in S->quad reduce and 229 in reduce_complex; 444 and 350
# with two builds per cone cut out by inequalities, and 1,312 and 1,096
# while the checks that restrict the same sublattices to the same spans
# eliminated again each time
HERMITE_FORMS_S_QUAD = 318
HERMITE_FORMS_S_QUAD_COMPLEX = 229


def _calls(run, *functions):
    """The number of calls `run()` makes to each of the functions, from
    cleared cone (from generators and from inequalities), left-inverse and
    lattice memos (a cone's face cache goes with the cone)."""
    codes = [f.__code__ for f in functions]
    calls = [0] * len(codes)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes.index(frame.f_code)] += 1

    Cone._build.cache_clear()
    Cone._cut_out.cache_clear()
    _left_inverse_map.cache_clear()
    for memo in (lattice._column_hermite, lattice._intersect, lattice._preimage):
        memo.cache_clear()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_reduce_s_quad_smith_form_count():
    out = io.StringIO()
    status = []
    smith, hermite = _calls(lambda: status.append(
        main(["reduce", "--input", os.path.join(DATA, "s_quad.json")], out=out)),
        smith_normal_form, row_hermite_form)
    assert status == [0]
    with open(os.path.join(DATA, "golden", "reduce_s_quad.json")) as fh:
        assert out.getvalue() == fh.read()
    assert 0 < smith <= SMITH_FORMS_S_QUAD
    assert 0 < hermite <= HERMITE_FORMS_S_QUAD


def test_reduce_complex_s_quad_call_counts():
    with open(os.path.join(DATA, "s_quad.json")) as fh:
        _, p = load_document(fh.read(), ("fan_morphism",))
    m = fan_morphism_as_complex(p)
    results = []
    smith, hermite, intersects, hilbert = _calls(
        lambda: results.append(reduce_complex(m)),
        smith_normal_form, row_hermite_form, intersect, hilbert_basis)
    cx = results[0]
    assert (len(cx.base.complex.cells), len(cx.total.complex.cells)) == (8, 30)
    assert 0 < smith <= SMITH_FORMS_S_QUAD_COMPLEX
    assert 0 < hermite <= HERMITE_FORMS_S_QUAD_COMPLEX
    assert 0 < intersects <= INTERSECTS_S_QUAD_COMPLEX
    assert hilbert == 0
