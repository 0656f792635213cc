"""End-to-end acceptance checks.

Each test prints one pass/fail line so the suite can be skimmed from the
test log; every numeric claim is asserted exactly.
"""
import functools
import random
from math import gcd

from oracles import pushout_monoid, solve_integer, solve_rational
from semistable.cone import Cone, span_sublattice
from semistable.conecomplex import (
    fan_morphism_as_complex,
    reduce_complex,
)
from semistable.fan import (
    Fan,
    FanMorphism,
    cartesian_check,
    is_modification,
    is_representable,
    is_weakly_semistable,
    toric_fiber_product,
)
from semistable.lattice import (
    Lattice,
    LatticeMap,
    mat,
    matvec,
    sublattice_from_vectors,
    transpose,
)
from semistable.monoid import (
    AffineMonoid,
    MonoidMap,
    dual_monoid,
    is_saturated,
    kato_integral,
)
from semistable.reduction import (
    factor_through,
    reduce,
    universal_minimal_modification,
    validate_category_object,
)


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


def quadrant_projection():
    return FanMorphism(quadrant_fan(), halfline_fan(), lmap([[1, 0]]))


CORPUS = (fix_semi, fix_double, fix_subdiv, quadrant_projection)


def reported(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            try:
                fn(*a, **k)
            except BaseException:
                print(f"criterion {n:2d} [{desc}]: FAIL")
                raise
            print(f"criterion {n:2d} [{desc}]: PASS")
        return wrapper
    return deco


def cone_in_coords(c, sub):
    """The cone rewritten in the coordinates of a sublattice spanning it."""
    rows = tuple(zip(*sub.vectors()))
    gens = []
    for g in c.generators():
        x = solve_rational(rows, g)
        scale = 1
        for v in x:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        gens.append(tuple(int(v * scale) for v in x))
    return Cone.from_generators(sub.rank, gens)


def dual_pair_map(p, sigma, kappa, n_sub, q_sub):
    """Map of dual monoids Hom(kappa cap Q, N) -> Hom(sigma cap N, N) of a
    weakly semistable cone pair, in sublattice coordinates."""
    q_rows = tuple(zip(*q_sub.vectors()))
    cols = []
    for b in n_sub.vectors():
        y = solve_integer(q_rows, matvec(p.matrix, b))
        assert y is not None, "sublattice image escapes the base sublattice"
        cols.append(y)
    matrix = tuple(tuple(cols[c][r] for c in range(len(cols)))
                   for r in range(q_sub.rank))
    sigma_c = cone_in_coords(sigma, n_sub)
    kappa_c = cone_in_coords(kappa, q_sub)
    return MonoidMap(dual_monoid(kappa_c), dual_monoid(sigma_c),
                     LatticeMap(Lattice(q_sub.rank), Lattice(n_sub.rank),
                                transpose(matrix)))


def ws_dual_maps():
    out = []
    for factory in (fix_semi, fix_double, fix_subdiv):
        red = reduce(factory())
        p = red.stacky_map.underlying.lattice_map
        for sigma, kappa in red.stacky_map.underlying.assignment:
            if kappa.dim == 0:
                continue
            out.append(dual_pair_map(p, sigma, kappa,
                                     red.total.sublattice(sigma),
                                     red.base.sublattice(kappa)))
    return out


@reported(1, "blowup chart fiber product")
def test_criterion_1():
    chart = FanMorphism(quadrant_fan(), quadrant_fan(), lmap([[1, 0], [1, 1]]))
    fan, _, _ = toric_fiber_product(chart, chart)
    top = [c for c in fan.cones if c.dim == 2]
    assert fan.lattice.rank == 2
    assert top == [cone(2, (1, 0), (0, 1))]
    assert not cartesian_check(chart, chart)


@reported(2, "x2/x3 fiber product")
def test_criterion_2():
    p = FanMorphism(halfline_fan(), halfline_fan(), lmap([[2]]))
    q = FanMorphism(halfline_fan(), halfline_fan(), lmap([[3]]))
    fan, pn, pl = toric_fiber_product(p, q)
    assert fan.lattice.rank == 1
    assert (pn.lattice_map.matrix, pl.lattice_map.matrix) == (((3,),), ((2,),))
    n_pos = AffineMonoid(Lattice(1), ((1,),))
    u = MonoidMap(n_pos, n_pos, lmap([[2]]))
    v = MonoidMap(n_pos, n_pos, lmap([[3]]))
    po = pushout_monoid(u, v)
    # pushout coordinates are unique up to a unit of the rank-1 lattice
    assert sorted(abs(g[0]) for g in po.generators) == [2, 3]
    assert not is_saturated(po)
    assert not cartesian_check(p, q)


@reported(3, "reduction of the doubling family")
def test_criterion_3():
    red = reduce(fix_double())
    ray = cone(1, (1,))
    assert red.base.sublattice(ray).vectors() == [(2,)]
    assert red.total.sublattice(ray).vectors() == [(1,)]
    assert is_weakly_semistable(red.stacky_map)
    assert is_representable(red.stacky_map)
    # brute-force oracle: values of the map on lattice points up to 12
    values = sorted({2 * a for a in range(7)})
    g = 0
    for v in values:
        g = gcd(g, v)
    assert g == 2


@reported(4, "reduction of the diagonal-collapse family")
def test_criterion_4():
    red = reduce(fix_semi())
    ray = cone(1, (1,))
    assert red.base.sublattice(ray).vectors() == [(2,)]
    even_sum = sublattice_from_vectors(Lattice(2), [(1, 1), (2, 0)])
    for c in red.total.fan.cones:
        if c.dim == 2:
            assert red.total.sublattice(c).basis == even_sum.basis
    assert red.total.sublattice(cone(2, (1, 1))).vectors() == [(1, 1)]
    assert red.total.sublattice(cone(2, (1, 0))).vectors() == [(2, 0)]
    assert is_weakly_semistable(red.stacky_map)
    i = FanMorphism(halfline_fan(), halfline_fan(), lmap([[2]]))
    obj = universal_minimal_modification(red, i)
    assert validate_category_object(obj, fix_semi())
    assert is_weakly_semistable(obj.projection)


@reported(5, "reduction of a subdivision family")
def test_criterion_5():
    red = reduce(fix_subdiv())
    assert red.base.fan == blowup_fan()
    for c in red.base.fan.cones:
        assert red.base.sublattice(c).basis == span_sublattice(c).basis
    for c in red.total.fan.cones:
        assert red.total.sublattice(c).basis == span_sublattice(c).basis


@reported(6, "idempotence of the reduction")
def test_criterion_6():
    for factory in CORPUS:
        red = reduce(factory())
        again = reduce(red.stacky_map.underlying)
        assert again.base.fan == red.base.fan
        assert again.total.fan == red.total.fan
        assert is_modification(again.base_to_original)
        assert is_modification(again.total_to_original)


@reported(7, "terminality across alteration squares")
def test_criterion_7():
    ident2 = LatticeMap.identity_map(Lattice(2))
    finer = Fan.from_cones(2, [cone(2, (1, 0), (2, 1)), cone(2, (2, 1), (1, 1)),
                               cone(2, (1, 1), (0, 1))])
    cases = [
        (fix_semi, FanMorphism(halfline_fan(), halfline_fan(), lmap([[2]]))),
        (fix_semi, FanMorphism(halfline_fan(), halfline_fan(), lmap([[4]]))),
        (fix_double, FanMorphism(halfline_fan(), halfline_fan(), lmap([[2]]))),
        (fix_double, FanMorphism(halfline_fan(), halfline_fan(), lmap([[6]]))),
        (fix_subdiv, FanMorphism(quadrant_fan(), quadrant_fan(), ident2)),
        (fix_subdiv, FanMorphism(finer, quadrant_fan(), ident2)),
    ]
    assert len(cases) >= 6 and len({f for f, _ in cases}) >= 3
    for factory, i in cases:
        red = reduce(factory())
        obj = universal_minimal_modification(red, i)
        assert validate_category_object(obj, factory())
        cert = factor_through(obj, red)
        assert cert == factor_through(obj, red)


@reported(8, "bounded equational integrality")
def test_criterion_8():
    for u in ws_dual_maps():
        ok, _ = kato_integral(u, height_bound=8)
        assert ok
        pushes = [MonoidMap(u.source, u.source,
                            LatticeMap.identity_map(u.source.lattice))]
        if u.source.lattice.rank == 1:
            quad_dual = dual_monoid(cone(2, (1, 0), (0, 1)))
            pushes.append(MonoidMap(u.source, quad_dual, lmap([[1], [1]])))
        for v in pushes:
            assert is_saturated(pushout_monoid(u, v))
    # the non-flat blowup chart fails with a genuine counterexample
    quad_dual = dual_monoid(cone(2, (1, 0), (0, 1)))
    chart = MonoidMap(quad_dual, quad_dual, lmap([[1, 0], [1, 1]]))
    ok, cex = kato_integral(chart, height_bound=8)
    assert not ok and cex is not None


@reported(9, "cartesian base changes of a weakly semistable family")
def test_criterion_9():
    p = quadrant_projection()
    rng = random.Random(0)
    for _ in range(10):
        k = rng.randrange(1, 10)
        q = FanMorphism(halfline_fan(), halfline_fan(), lmap([[k]]))
        assert cartesian_check(p, q)


@reported(10, "fan and complex reductions agree")
def test_criterion_10():
    for factory in CORPUS:
        p = factory()
        red = reduce(p)
        cres = reduce_complex(fan_morphism_as_complex(p))
        base = dict(zip(cres.base.complex.cells, cres.base.sublattices))
        assert set(base) == set(red.base.fan.cones)
        for c in red.base.fan.cones:
            assert base[c].basis == red.base.sublattice(c).basis
        total = dict(zip(cres.total.complex.cells, cres.total.sublattices))
        assert set(total) == set(red.total.fan.cones)
        for c in red.total.fan.cones:
            assert total[c].basis == red.total.sublattice(c).basis
