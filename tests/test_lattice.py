import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import column_hermite_form, right_inverse
from semistable import lattice
from semistable.lattice import (
    INFINITE,
    LATTICE_MEMO_SIZE,
    Lattice,
    LatticeMap,
    Sublattice,
    det,
    dot,
    dual_map,
    fiber_product_lattice,
    full_sublattice,
    hstack,
    identity,
    image_lattice,
    intersect_sublattices,
    is_zero_vec,
    kernel_lattice,
    lattice_index,
    lift,
    mat,
    matmul,
    matvec,
    preimage_sublattice,
    primitive,
    pushout_lattice,
    saturate,
    smith_normal_form,
    sublattice_from_vectors,
    transpose,
    vec_add,
    vec_neg,
    vec_sub,
    zero_sublattice,
)


def lmap(rows, dom=None, cod=None):
    rows = mat(rows)
    m = len(rows)
    n = len(rows[0]) if m else 0
    return LatticeMap(Lattice(n if dom is None else dom), Lattice(m if cod is None else cod), rows)


small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(mat)
        )
    )


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(identity(2))
        assert snf.D == identity(2)
        assert snf.U == identity(2)
        assert snf.V == identity(2)

    def test_diag_2_3(self):
        a = mat([[2, 0], [0, 3]])
        snf = smith_normal_form(a)
        assert matmul(matmul(snf.U, a), snf.V) == snf.D
        assert snf.D == mat([[1, 0], [0, 6]])

    def test_zero_1x1(self):
        snf = smith_normal_form(mat([[0]]))
        assert snf.D == mat([[0]])

    @given(matrices())
    @settings(max_examples=150, deadline=None)
    def test_decomposition_properties(self, a):
        snf = smith_normal_form(a)
        assert matmul(matmul(snf.U, a), snf.V) == snf.D
        assert abs(det(snf.U)) == 1
        assert abs(det(snf.V)) == 1
        diag = [snf.D[i][i] for i in range(min(len(a), len(a[0])))]
        for i in range(len(diag)):
            for j in range(len(a)):
                for k in range(len(a[0])):
                    if (j > i or k > i) and j != k:
                        assert snf.D[j][k] == 0 if j < len(snf.D) and k < len(snf.D[0]) else True
        nonzero = [d for d in diag if d != 0]
        assert all(d > 0 for d in nonzero)
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        # zero diagonal entries come after the nonzero ones
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero


class TestKernelImage:
    def test_kernel_of_sum(self):
        f = lmap([[1, 1]])
        k = kernel_lattice(f)
        assert k.rank == 1
        assert k.contains((1, -1))
        assert k.contains((-2, 2))

    def test_kernel_identity(self):
        assert kernel_lattice(lmap(identity(3))).rank == 0

    def test_kernel_times_two(self):
        assert kernel_lattice(lmap([[2]])).rank == 0

    def test_kernel_is_saturated(self):
        f = lmap([[2, 2]])
        k = kernel_lattice(f)
        assert k.contains((1, -1))

    @given(matrices())
    @settings(max_examples=80, deadline=None)
    def test_kernel_annihilates(self, a):
        f = lmap(a)
        k = kernel_lattice(f)
        for v in k.vectors():
            assert all(x == 0 for x in f(v))
        assert saturate(k).basis == k.basis

    def test_image(self):
        f = lmap([[2, 0], [0, 0]])
        img = image_lattice(f)
        assert img.rank == 1
        assert img.contains((2, 0))
        assert not img.contains((1, 0))

    @given(matrices(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_image_of_a_sublattice_is_spanned_by_the_moved_basis(self, a, ident):
        # an identity map hands the sublattice back without moving it
        n = len(a[0])
        f = LatticeMap.identity_map(Lattice(n)) if ident else lmap(a)
        s = sublattice_from_vectors(Lattice(n), a)
        assert image_lattice(f, s) == sublattice_from_vectors(
            f.codomain, [f(v) for v in s.vectors()])


class TestSaturateIndex:
    def test_index_2z_in_z(self):
        z = Lattice(1)
        assert lattice_index(sublattice_from_vectors(z, [(2,)]), full_sublattice(z)) == 2

    def test_saturate_gcd(self):
        z2 = Lattice(2)
        s = sublattice_from_vectors(z2, [(2, 4)])
        assert saturate(s).vectors() == [(1, 2)]

    def test_index_rank_drop(self):
        z2 = Lattice(2)
        s = sublattice_from_vectors(z2, [(3, 2)])
        assert lattice_index(s, full_sublattice(z2)) == INFINITE

    def test_index_rejects_non_nested(self):
        z = Lattice(1)
        with pytest.raises(ValueError):
            lattice_index(full_sublattice(z), sublattice_from_vectors(z, [(2,)]))

    def test_saturate_idempotent_and_finite_index(self):
        z3 = Lattice(3)
        s = sublattice_from_vectors(z3, [(2, 4, 0), (0, 6, 3)])
        sat = saturate(s)
        assert saturate(sat).basis == sat.basis
        assert lattice_index(s, sat) != INFINITE


class TestFiberProduct:
    def test_two_against_three(self):
        # p = x2 and i = x3 on rank one; the fiber embeds as Z(3, 2)
        fib, pn, pl = fiber_product_lattice(lmap([[2]]), lmap([[3]]))
        assert fib.rank == 1
        v = (pn.matrix[0][0], pl.matrix[0][0])
        assert v in ((3, 2), (-3, -2))
        assert pn.matrix[0][0] > 0  # sign normalization

    def test_identity_diagonal(self):
        f = lmap(identity(2))
        fib, pn, pl = fiber_product_lattice(f, f)
        assert fib.rank == 2
        assert pn.matrix == pl.matrix

    def test_blowup_charts(self):
        p = lmap([[1, 0], [1, 1]])
        q = lmap([[1, 1], [0, 1]])
        fib, pn, pl = fiber_product_lattice(p, q)
        assert fib.rank == 2
        for j in range(2):
            col = tuple(pn.matrix[i][j] for i in range(2)) + tuple(pl.matrix[i][j] for i in range(2))
            a, b, c, d = col
            assert a == c + d and a + b == d

    @given(matrices(3), matrices(3))
    @settings(max_examples=60, deadline=None)
    def test_projections_commute(self, a, b):
        # force a common codomain
        rows = min(len(a), len(b))
        a = a[:rows]
        b = b[:rows]
        p, i = lmap(a), lmap(b)
        fib, pn, pl = fiber_product_lattice(p, i)
        assert matmul(p.matrix, pn.matrix) == matmul(i.matrix, pl.matrix)


class TestPushout:
    def test_two_against_three(self):
        u, v = lmap([[2]]), lmap([[3]])
        po = pushout_lattice(u, v)
        assert po.lattice.rank == 1
        assert abs(po.inc_left.matrix[0][0]) == 3
        assert abs(po.inc_right.matrix[0][0]) == 2
        assert matmul(po.inc_left.matrix, u.matrix) == matmul(po.inc_right.matrix, v.matrix)
        assert po.torsion_order == 1

    def test_identity(self):
        u = lmap(identity(2))
        po = pushout_lattice(u, u)
        assert po.lattice.rank == 2
        assert abs(det(po.inc_left.matrix)) == 1

    def test_torsion_reported(self):
        u, v = lmap([[2]]), lmap([[2]])
        po = pushout_lattice(u, v)
        assert po.lattice.rank == 1
        assert abs(po.inc_left.matrix[0][0]) == 1
        assert abs(po.inc_right.matrix[0][0]) == 1
        assert po.torsion_order == 2


class TestDualIntersectPreimage:
    def test_intersect_2z_3z(self):
        z = Lattice(1)
        a = sublattice_from_vectors(z, [(2,)])
        b = sublattice_from_vectors(z, [(3,)])
        assert intersect_sublattices(a, b).vectors() == [(6,)]

    def test_preimage_even_sum(self):
        f = lmap([[1, 1]])
        s = sublattice_from_vectors(Lattice(1), [(2,)])
        pre = preimage_sublattice(f, s)
        assert pre.rank == 2
        assert pre.contains((1, 1))
        assert pre.contains((2, 0))
        assert not pre.contains((1, 0))
        assert lattice_index(pre, full_sublattice(Lattice(2))) == 2

    def test_dual_of_times_two(self):
        assert dual_map(lmap([[2]])).matrix == mat([[2]])

    @given(matrices(3), matrices(3))
    @settings(max_examples=60, deadline=None)
    def test_dual_contravariant(self, a, b):
        # shape g so that g . f composes
        f = lmap(a)
        rows = len(b)
        g_mat = mat([row[: len(a)] + (0,) * max(0, len(a) - len(row)) for row in b])
        g_mat = mat([r[: len(a)] for r in g_mat])
        g = LatticeMap(Lattice(len(a)), Lattice(rows), g_mat)
        comp = g.compose(f)
        assert dual_map(comp).matrix == matmul(transpose(f.matrix), transpose(g.matrix))


@given(matrices(4))
@settings(max_examples=80, deadline=None)
def test_lift_roundtrip(a):
    # any vector in the image has an exact integer preimage
    x = tuple(1 if i % 2 == 0 else -2 for i in range(len(a[0])))
    b = matvec(a, x)
    [sol] = lift(a, [b])
    assert sol is not None
    assert matvec(a, sol) == b


@given(matrices(3), matrices(3))
@settings(max_examples=40, deadline=None)
def test_fiber_dual_is_pushout_of_duals(a, b):
    """Duality exchanges fiber products and pushouts (up to unimodular basis change)."""
    rows = min(len(a), len(b))
    p, i = lmap(a[:rows]), lmap(b[:rows])
    fib, pn, pl = fiber_product_lattice(p, i)
    po = pushout_lattice(dual_map(p), dual_map(i))
    assert fib.rank == po.lattice.rank
    # the pairing matrix between the two presentations must be unimodular
    emb = tuple(pn.matrix[i] for i in range(len(pn.matrix))) + tuple(
        pl.matrix[i] for i in range(len(pl.matrix))
    )
    quot = hstack(po.inc_left.matrix, po.inc_right.matrix)
    if fib.rank:
        # pair fiber basis vectors against lifts of a pushout basis
        pairing = matmul(transpose(emb), right_inverse(quot))
        assert abs(det(pairing)) == 1


def test_sublattice_equality_via_hnf():
    z2 = Lattice(2)
    a = sublattice_from_vectors(z2, [(1, 0), (1, 2)])
    b = sublattice_from_vectors(z2, [(1, 2), (2, 2)])
    assert a.basis == b.basis


def test_column_hermite_canonical():
    a = mat([[2, 4], [0, 0]])
    h = column_hermite_form(a)
    assert h == mat([[2], [0]])
    # the memoized form behind a sublattice's basis, from lists or tuples
    assert Sublattice(Lattice(2), [[2, 4], [0, 0]]).basis == h
    assert Sublattice(Lattice(2), a).basis == h


# ---------------------------------------------------------------------------
# the Hermite-form memos sit behind plain functions


def test_mismatched_ambients_raise_on_every_call():
    a = full_sublattice(Lattice(2))
    b = full_sublattice(Lattice(3))
    f = lmap([[1, 0], [0, 1]])
    for _ in range(2):
        with pytest.raises(ValueError):
            intersect_sublattices(a, b)
        with pytest.raises(ValueError):
            preimage_sublattice(f, b)


def test_memos_stay_bounded_and_exact_past_the_bound():
    z2 = Lattice(2)
    n = LATTICE_MEMO_SIZE + 50
    subs = [sublattice_from_vectors(z2, [(k, 1)]) for k in range(n)]
    f = lmap([[1, 1], [0, 2]])
    even = sublattice_from_vectors(z2, [(2, 0), (0, 2)])
    caps = [intersect_sublattices(s, even) for s in subs]
    pres = [preimage_sublattice(f, s) for s in subs]
    for memo in (lattice._column_hermite, lattice._intersect, lattice._preimage):
        assert memo.cache_info().currsize <= LATTICE_MEMO_SIZE
    # the first ones are evicted by now and come out the same again
    for k, (s, cap, pre) in enumerate(zip(subs, caps, pres)):
        assert s.basis == ((k,), (1,))
        assert cap.basis == ((2 * k,), (2,))
        assert intersect_sublattices(s, even) == cap
        assert pre == preimage_sublattice(f, s)
        assert all(s.contains(matvec(f.matrix, v)) for v in pre.vectors())


# ---------------------------------------------------------------------------
# the vector kernel against its entry-by-entry references

# entries beyond a machine word, small ones that share factors, and zeros
WIDE = 10 ** 30
entries = st.integers(-WIDE, WIDE) | st.integers(-12, 12) | st.just(0)


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


@st.composite
def kernel_inputs(draw):
    """A matrix of m x n (either may be 0), a vector of length n, a matrix
    of n x k, and a vector whose entries share a drawn factor."""
    m, n, k = (draw(st.integers(0, 4)) for _ in range(3))
    a = tuple(draw(vectors(n)) for _ in range(m))
    b = tuple(draw(vectors(k)) for _ in range(n))
    factor = draw(st.sampled_from([1, -1, 2, -6, 3 * WIDE, -WIDE]))
    v = draw(vectors(n))
    return a, v, b, tuple(x * factor for x in v)


def _same(got, want):
    # equal and of the same types, entry by entry: exact Python integers
    assert got == want
    assert type(got) is type(want)
    if isinstance(got, tuple):
        for x, y in zip(got, want):
            _same(x, y)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_inputs())
def test_vector_kernel_matches_entrywise_references(case):
    a, v, b, scaled = case
    for u in (v, scaled, (0,) * len(v)):
        _same(dot(u, v), oracles.entrywise_dot(u, v))
        _same(is_zero_vec(u), oracles.entrywise_is_zero_vec(u))
        _same(primitive(u), oracles.entrywise_primitive(u))
    _same(matvec(a, v), oracles.entrywise_matvec(a, v))
    _same(matmul(a, b), oracles.entrywise_matmul(a, b))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(kernel_inputs())
def test_vector_sums_mat_and_identity_match_entrywise_references(case):
    # the kernels map `operator.add`, `sub` and `neg`, and `mat` no longer
    # converts: on integers each equals the loop, the old `int()` of every
    # entry included, in value and in type
    a, v, b, scaled = case
    for u in (v, scaled, (0,) * len(v)):
        _same(vec_add(u, v), oracles.entrywise_vec_add(u, v))
        _same(vec_sub(u, v), oracles.entrywise_vec_sub(u, v))
        _same(vec_neg(u), oracles.entrywise_vec_neg(u))
    _same(mat(a), oracles.coercing_mat(a))
    _same(mat([list(row) for row in b]), oracles.coercing_mat(b))
    _same(identity(len(v)), oracles.entrywise_identity(len(v)))


def test_identity_is_memoized_per_rank_and_type():
    assert identity(3) is identity(3)
    _same(identity(0), ())
    # typed: a bool or float rank never answers from an int's entry
    assert lattice._identity.cache_parameters()["typed"]
    with pytest.raises(TypeError):
        identity(2.0)
    assert lattice._identity.cache_info().maxsize == lattice.IDENTITY_MEMO_SIZE


@pytest.mark.parametrize("v,want", [
    ((), ()),
    ((0, 0, 0), (0, 0, 0)),
    ((-4, -6), (-2, -3)),
    ((0, -7), (0, -1)),
    ((-3 * WIDE, 6 * WIDE), (-1, 2)),
    ((WIDE + 1, 0), (1, 0)),
])
def test_primitive_on_empty_zero_negative_and_wide_vectors(v, want):
    _same(primitive(v), want)
    _same(primitive(v), oracles.entrywise_primitive(v))


def test_kernel_on_empty_operands():
    _same(dot((), ()), 0)
    assert is_zero_vec(())
    _same(matvec((), (1, 2)), ())
    _same(matvec(((), ()), ()), (0, 0))
    _same(matmul((), ((1, 2),)), ())
    _same(matmul(((), ()), ()), ((), ()))
    _same(dot((WIDE, -WIDE), (WIDE, WIDE)), 0)


def test_compose_through_the_zero_lattice_is_the_zero_map():
    # a 0-row matrix carries no column count, so the product takes its
    # width from the domain
    z0, z1, z2 = Lattice(0), Lattice(1), Lattice(2)
    from_zero = LatticeMap(z0, z2, ((), ()))
    to_zero = LatticeMap(z1, z0, ())
    assert from_zero.compose(to_zero) == LatticeMap(z1, z2, ((0,), (0,)))
    assert to_zero.compose(LatticeMap(z0, z1, ((),))) == LatticeMap(z0, z0, ())
    assert LatticeMap(z2, z0, ()).compose(from_zero) == LatticeMap(z0, z0, ())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_compose_applies_the_maps_in_turn(data):
    a, b, c = (data.draw(st.integers(0, 2)) for _ in range(3))

    def random_map(n, m):
        rows = tuple(tuple(data.draw(small_int) for _ in range(n)) for _ in range(m))
        return LatticeMap(Lattice(n), Lattice(m), rows)
    g, f = random_map(a, b), random_map(b, c)
    composed = f.compose(g)
    assert (composed.domain, composed.codomain) == (Lattice(a), Lattice(c))
    for v in identity(a):
        assert composed(v) == f(g(v))
