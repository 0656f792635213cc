"""Affine monoids: Hilbert bases, dual monoids, membership, saturation, the
lattice points of a cone's image (weak semistability), and integrality: a
proof by flatness where it applies, else a bounded checker for the
equational criterion.

Cones and monoids are immutable, so the dual monoid of a cone is memoized,
up to DUAL_MONOID_MEMO_SIZE entries, on the cone: the cartesian check asks
for the same few dual monoids once per pair of cones.

Membership and the integrality check enumerate monoid points with one
breadth-first kernel, `_bounded_points`, bounded either by a strictly
positive integer functional (the sum of facet normals of the relevant cone)
or by word length; `hilbert_basis` takes its candidates from the fundamental
parallelepipeds of a triangulation.  Every search is exact and
deterministic, and stops at SEARCH_BUDGET points: running out raises
`BudgetExceeded`, an "undecided", never a wrong yes or no.  Which
answers are proofs: membership, saturation, both answers of
`image_monoid_equals_cone_monoid` (a lattice certificate where it applies,
else Hilbert bases) and a False from `kato_integral` always; a True from
`kato_integral` when `integral_by_flatness` gave it, and otherwise only
evidence up to the height searched.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Optional, Sequence

from .cone import Cone, ConeError, dual_cone, image_cone, span_sublattice
from .lattice import (
    Lattice,
    LatticeMap,
    Record,
    Sublattice,
    Vector,
    det,
    dot,
    dual_map,
    full_sublattice,
    identity,
    image_lattice,
    integer_rows,
    integer_vector,
    intersect_sublattices,
    is_zero_vec,
    kernel_lattice,
    lift,
    mat,
    matvec,
    reduce_mod_rows,
    span_basis,
    sublattice_from_vectors,
    transpose,
    vec_add,
    vec_neg,
    vec_sub,
)


# The most points one search may reach (for hilbert_basis: the sum of the
# parallelepipeds' sizes) before it gives up as undecided.  The test suite
# and the benchmark corpus need at most 5,000 (the Hilbert basis
# parallelepiped of the thin cone (1,0),(1,5000); 60 in the benchmark) and
# 270 (a monoid enumeration).
SEARCH_BUDGET = 100_000

# entries of the dual monoid memo: one benchmark operation asks for the dual
# monoids of at most 6 distinct cones, one benchmark pass of 6 (in 120
# calls), and the monoid, fan and acceptance tests of 142
DUAL_MONOID_MEMO_SIZE = 256


class MonoidError(ValueError):
    pass


class BudgetExceeded(ValueError):
    """A search reached SEARCH_BUDGET points, so its answer is undecided.

    Deliberately not a MonoidError: callers that record a MonoidError as a
    failing cone must let an undecided search through."""


def _check_budget(count: int, what: str) -> None:
    if count > SEARCH_BUDGET:
        raise BudgetExceeded(f"undecided: {what} passed the search budget "
                             f"of {SEARCH_BUDGET} points")


class AffineMonoid(Record):
    """Submonoid of a lattice given by a finite generating set.

    saturation_cone, when present, records that the monoid arose as
    (cone intersect lattice) data; generators must lie inside it.
    """

    lattice: Lattice
    generators: tuple[Vector, ...]
    saturation_cone: Optional[Cone] = None

    def __post_init__(self):
        gens = tuple(sorted({g for g in integer_rows("generators", self.generators)
                             if not is_zero_vec(g)}))
        object.__setattr__(self, "generators", gens)
        if self.saturation_cone is not None:
            for g in gens:
                if not self.saturation_cone.contains(g):
                    raise MonoidError(f"generator {g} outside the saturation cone")

    def cone(self) -> Cone:
        """The cone of the monoid: its saturation cone when it has one, the
        monoid being that cone's lattice points."""
        if self.saturation_cone is not None:
            return self.saturation_cone
        return Cone.from_generators(self.lattice, self.generators)

    def contains(self, w: Sequence[int]) -> bool:
        """Membership; a saturated monoid (cone ∩ lattice) needs no search."""
        w = integer_vector("w", w)
        if self.saturation_cone is not None:
            return self.saturation_cone.contains(w)
        return _contains_modulo_units(w, self.generators, self.lattice)

    def group(self) -> Sublattice:
        """The subgroup of the lattice generated by the monoid."""
        return sublattice_from_vectors(self.lattice, self.generators)


class MonoidMap(Record):
    source: AffineMonoid
    target: AffineMonoid
    lattice_map: LatticeMap

    def __post_init__(self):
        if (self.lattice_map.domain != self.source.lattice
                or self.lattice_map.codomain != self.target.lattice):
            raise MonoidError("lattice map does not match monoid lattices")
        for g in self.source.generators:
            if not self.target.contains(self.lattice_map(g)):
                raise MonoidError(f"image of generator {g} is not in the target monoid")

    def __call__(self, v: Sequence[int]) -> Vector:
        return self.lattice_map(v)


# ---------------------------------------------------------------------------
# Hilbert bases

def _as_sublattice(lat_or_sub, ambient: Lattice) -> Sublattice:
    if isinstance(lat_or_sub, Sublattice):
        return lat_or_sub
    return full_sublattice(ambient)


def _smallest_multiple_coords(M: Sublattice, ray: Vector) -> Vector:
    """Coordinates in M of the smallest positive multiple of `ray` lying in
    M.  Substituting down the Hermite basis divides once by each pivot, so
    d ray has integer coordinates y for d the product of the pivots, and
    the smallest multiple is (d / g) ray with g = gcd(d, y)."""
    d = math.prod(next(x for x in col if x) for col in M.vectors())
    y = M.coordinates(tuple(d * x for x in ray))
    if y is None:
        raise MonoidError("ray does not lie in the span of the lattice")
    g = math.gcd(d, *y)
    return tuple(x // g for x in y)


def _pulling_triangulation(c: Cone) -> list[tuple[Vector, ...]]:
    """Simplicial cones, as ray tuples, triangulating the strictly convex
    cone c: a simplicial face is its own triangulation, and any other face
    joins its first ray to the simplices of its facets that miss that ray.
    Every face pulls its rays in the same (sorted) order, so the
    triangulations of two faces agree where they meet."""
    if len(c.rays) == c.dim:
        return [c.rays]
    done: list[tuple[frozenset, int, list[tuple[Vector, ...]]]] = []
    for f in c.faces():
        rays = frozenset(f.rays)
        if len(f.rays) == f.dim:
            simplices = [f.rays]
        else:
            apex = f.rays[0]
            simplices = [(apex,) + s for g, dim, tri in done
                         if dim == f.dim - 1 and apex not in g and g < rays
                         for s in tri]
        done.append((rays, f.dim, simplices))
    return done[-1][2]


def _parallelepiped_points(rays: tuple[Vector, ...]) -> set[Vector]:
    """The lattice points of the half-open parallelepiped
    {sum l_i r_i : 0 <= l_i < 1} of d linearly independent rays in Z^d, one
    in each class of Z^d / sum Z r_i, so |det| of them.

    The classes are reached from 0 by adding unit vectors, and each point
    is brought into the parallelepiped by x -> x - sum floor(u_i.x / u_i.r_i) r_i,
    where u_i is the facet of the simplicial cone opposite r_i: u_i.r_j = 0
    for j != i, so each step fixes one coordinate l_i and leaves the
    others."""
    d = len(rays)
    facets = Cone.from_generators(d, rays).facets
    opposite = [(u, r, dot(u, r)) for r in rays for u in facets if dot(u, r) > 0]

    def reduce(x: Vector) -> Vector:
        for u, r, h in opposite:
            q = dot(u, x) // h
            if q:
                x = vec_sub(x, [q * b for b in r])
        return x

    units = identity(d)
    zero = (0,) * d
    points = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for e in units:
                y = reduce(vec_add(x, e))
                if y not in points:
                    points.add(y)
                    nxt.append(y)
        frontier = nxt
    return points


def hilbert_basis(c: Cone, L=None) -> list[Vector]:
    """Minimal generating set of c intersect L, lex sorted.

    Worked in coordinates of M = L ∩ Span c, where the cone has rays r the
    smallest lattice multiples of its extremal rays.  Candidates are the
    rays and the lattice points of the half-open fundamental parallelepiped
    of each simplex of a pulling triangulation (Bruns-Ichim, "Normaliz:
    algorithms for affine monoids and rational cones", J. Algebra 324,
    2010).  They generate c ∩ M: a point x lies in some simplex, so
    x = sum l_i r_i with l_i >= 0, and x - sum floor(l_i) r_i is a point of
    that parallelepiped.  So every irreducible element is a candidate.

    The grading f, the sum of the facet normals, is positive on every
    nonzero point of the cone.  A candidate t is reducible exactly when a
    candidate s with 2 f(s) <= f(t) leaves a remainder t - s in the cone:
    such an s is lighter than t, so the remainder is nonzero.  Conversely,
    if t = a + b with a and b nonzero, say f(a) <= f(t)/2, then a is a sum
    of candidates, because they generate the monoid, and each of them
    weighs at most f(a); any candidate c of that sum has
    t - c = (a - c) + b in the monoid.  The SEARCH_BUDGET bounds sum |det|
    over the simplices, the number of parallelepiped points, before any is
    listed.
    """
    if not c.is_strictly_convex:
        raise ConeError("hilbert basis requires a strictly convex cone")
    L = _as_sublattice(L, c.lattice)
    if c.dim == 0:
        return []
    M = intersect_sublattices(L, span_sublattice(c))
    d = M.rank
    if d == 0:
        return []
    ct = Cone.from_generators(d, [_smallest_multiple_coords(M, r) for r in c.rays])
    simplices = _pulling_triangulation(ct)
    sizes = [abs(det(s)) for s in simplices]
    _check_budget(sum(sizes), "the Hilbert basis parallelepipeds")
    candidates = set(ct.rays)
    for s, size in zip(simplices, sizes):
        # a unimodular simplex's parallelepiped holds only 0
        if size > 1:
            candidates |= _parallelepiped_points(s)
    candidates.discard((0,) * d)
    # each candidate with its values on the facets, lightest first by their
    # sum f; t - s lies in the cone exactly when each value of t is at
    # least that of s
    values = {t: tuple(dot(u, t) for u in ct.facets) for t in candidates}
    graded = sorted((sum(v), t, v) for t, v in values.items())
    weights = [w for w, _, _ in graded]
    irreducible = []
    for w, t, v in graded:
        lighter = itertools.islice(graded, bisect.bisect_right(weights, w // 2))
        if not any(all(x >= y for x, y in zip(v, vs)) for _, _, vs in lighter):
            irreducible.append(t)
    return sorted(matvec(M.basis, t) for t in irreducible)


def monoid_generators_of_cone(c: Cone, L=None) -> list[Vector]:
    """Generators of c intersect L, allowing cones with lines.

    For a strictly convex cone this is the Hilbert basis.  Otherwise the
    unit part (lattice points of the lineality space) contributes a basis
    with both signs, and the strictly convex quotient contributes lifts.
    """
    L = _as_sublattice(L, c.lattice)
    if c.dim == 0:
        return []
    if c.is_strictly_convex:
        return hilbert_basis(c, L)
    n = c.lattice.rank
    units = intersect_sublattices(L, sublattice_from_vectors(c.lattice, c.lines)).vectors()

    # quotient by the saturated lineality
    _, _, qmat = span_basis(c.lines, n)
    if not qmat:
        return sorted(set(units + [vec_neg(u) for u in units]))
    q = LatticeMap(c.lattice, Lattice(len(qmat)), qmat)
    ls = intersect_sublattices(L, span_sublattice(c))
    qc = Cone.from_generators(q.codomain, [q(g) for g in c.generators()])
    hb = hilbert_basis(qc, image_lattice(q, ls))
    # lift each quotient generator back into L intersect Span c; every lift
    # exists, as the Hilbert basis lies in q(ls), which the columns of
    # lift_matrix span.  Two lifts differ by a unit, so reducing modulo the
    # units' Hermite basis makes each lift canonical
    lift_matrix = transpose(mat([q(col) for col in ls.vectors()]))
    lifts = [reduce_mod_rows(matvec(ls.basis, t), units) for t in lift(lift_matrix, hb)]
    return sorted(set(units + [vec_neg(u) for u in units] + lifts))


def dual_monoid(c: Cone) -> AffineMonoid:
    """Monoid of integer functionals nonnegative on c; equal cones get the
    identical monoid.  A memoized monoid is exact, so a call under a smaller
    SEARCH_BUDGET may return it where a fresh computation would raise
    BudgetExceeded."""
    return _dual_monoid(c)


@functools.lru_cache(maxsize=DUAL_MONOID_MEMO_SIZE)
def _dual_monoid(c: Cone) -> AffineMonoid:
    d = dual_cone(c)
    gens = monoid_generators_of_cone(d)
    return AffineMonoid(d.lattice, tuple(gens), saturation_cone=d)


# ---------------------------------------------------------------------------
# membership

def _positive_functional(gens: Sequence[Vector], n: int) -> Vector:
    """The sum of the facets of the cone of `gens`.  On a strictly convex
    cone it is positive at every nonzero point: each facet is nonnegative
    on the cone, and within its span only the origin is tight on all of
    them.  So it is positive on `gens`, none of which a caller passes zero."""
    c = Cone.from_generators(n, gens)
    if not c.is_strictly_convex:
        raise MonoidError(
            "no strictly positive functional: generators span a non-convex direction"
        )
    return tuple(sum(u[j] for u in c.facets) for j in range(n))


def _bounded_points(rank: int, gens: Sequence[Vector], weights: Sequence[int],
                    bound: int, hit=None):
    """The points sum c_i g_i with sum c_i w_i <= bound, breadth first.

    A point's weight must not depend on the word that reaches it (w_i is
    f(g_i) for a linear f), or every w_i is 1 and the bound is a word
    length: either way the first visit is the lightest, so deduplicating by
    point is exact.  Returns the dict from each point reached, in visiting
    order, to the index of the generator that reached it (None for zero),
    and the first point satisfying `hit`, where the search stops, or None.
    """
    zero = (0,) * rank
    reached = {zero: None}
    frontier = [(zero, 0)]
    while frontier:
        nxt = []
        for x, wx in frontier:
            for i, g in enumerate(gens):
                y = vec_add(x, g)
                wy = wx + weights[i]
                if wy > bound or y in reached:
                    continue
                reached[y] = i
                _check_budget(len(reached), "a monoid enumeration")
                if hit is not None and hit(y):
                    return reached, y
                nxt.append((y, wy))
        frontier = nxt
    return reached, None


def monoid_membership(w: Sequence[int], M: AffineMonoid):
    """(True, coefficients) when w is a nonnegative combination, else (False, None)."""
    w = integer_vector("w", w)
    gens = M.generators
    if is_zero_vec(w):
        return True, (0,) * len(gens)
    if not gens:
        return False, None
    f = _positive_functional(gens, M.lattice.rank)
    reached, y = _bounded_points(M.lattice.rank, gens, [dot(f, g) for g in gens],
                                 dot(f, w), lambda y: y == w)
    if y is None:
        return False, None
    coeffs = [0] * len(gens)
    while reached[y] is not None:
        coeffs[reached[y]] += 1
        y = vec_sub(y, gens[reached[y]])
    return True, tuple(coeffs)


def _contains_modulo_units(w: Sequence[int], gens: Sequence[Vector],
                           lattice: Lattice) -> bool:
    """Membership that tolerates unit generators (g with -g in the cone)."""
    w = tuple(w)
    gens = tuple(tuple(g) for g in gens if not is_zero_vec(g))
    if is_zero_vec(w) or w in gens:
        return True
    if not gens:
        return False
    c = Cone.from_generators(lattice, gens)
    if c.is_strictly_convex:
        ok, _ = monoid_membership(w, AffineMonoid(lattice, gens))
        return ok
    # unit generators are those lying in the lineality space of the cone
    unit_gens = [g for g in gens if all(dot(u, g) == 0 for u in c.facets)
                 and all(dot(e, g) == 0 for e in c.span_equations)]
    rest = [g for g in gens if g not in unit_gens]
    # the unit generators span a linear space, so they generate a group
    U = sublattice_from_vectors(lattice, unit_gens)
    _, _, qmat = span_basis(c.lines, lattice.rank)
    if not qmat or is_zero_vec(matvec(qmat, w)) or not rest:
        return U.contains(w)
    # the quotient kills exactly the lineality, so f(q(g)) > 0 on rest: walk
    # the points y of the monoid of rest in the lattice itself, by the height
    # f(q(y)), until w - y lies in U
    f = _positive_functional([matvec(qmat, g) for g in rest], len(qmat))
    fq = tuple(dot(f, col) for col in transpose(qmat))
    fw = dot(fq, w)
    _, y = _bounded_points(lattice.rank, rest, [dot(fq, g) for g in rest], fw,
                           lambda y: dot(fq, y) == fw and U.contains(vec_sub(w, y)))
    return y is not None


# ---------------------------------------------------------------------------
# image monoids and base lattices

def image_monoid_equals_cone_monoid(p: LatticeMap, sigma: Cone, kappa: Cone,
                                    N_sub: Sublattice | None = None,
                                    Q_sub: Sublattice | None = None) -> bool:
    """True iff p(N_sub intersect sigma) equals Q_sub intersect kappa.

    Decided by `_lattice_certificate` where it applies, and otherwise by
    comparing Hilbert bases; both answers are proofs."""
    N_sub = _as_sublattice(N_sub, p.domain)
    Q_sub = _as_sublattice(Q_sub, p.codomain)
    if image_cone(p, sigma) != kappa:
        raise MonoidError("sigma does not map onto kappa")
    decided = _lattice_certificate(p, sigma, N_sub, Q_sub)
    if decided is not None:
        return decided
    return _compare_hilbert_bases(p, sigma, kappa, N_sub, Q_sub)


def _lattice_certificate(p: LatticeMap, sigma: Cone, N_sub: Sublattice,
                         Q_sub: Sublattice) -> Optional[bool]:
    """p(N_sub ∩ sigma) = Q_sub ∩ p(sigma) decided by lattices alone, or None
    when this certificate does not apply.

    It applies to a strictly convex sigma whose lattice M = N_sub ∩ Span sigma
    has rank dim sigma.  Then sigma ∩ M generates M, so p(N_sub ∩ sigma) lies
    in Q_sub exactly when p sends a basis of M into Q_sub: False otherwise.
    True when, in addition, every face tau of sigma on which p is injective
    has Q_sub ∩ Span p(tau) inside p(N_sub ∩ Span tau).  Proof: take v in
    Q_sub ∩ p(sigma).  Its fibre sigma ∩ p^-1(v) is a nonempty polyhedron
    without lines, since sigma has none, so it has a vertex x.  Let tau be
    the face of sigma with x in its relative interior.  A w != 0 in Span tau
    with p(w) = 0 would put x ± εw in the fibre, so p is injective on
    Span tau.  Then v = p(x) lies in Q_sub ∩ Span p(tau), hence v = p(y) for
    some y in N_sub ∩ Span tau, and y = x by injectivity: v is the image of
    x in N_sub ∩ sigma (following Abramovich-Karu, "Weak semistable
    reduction in characteristic 0", Invent. Math. 2000, §4-5).
    None when some such face fails, which does not by itself disprove
    equality.  A face inside a passing face on which p is injective passes
    too, so the faces are tried largest first and those are skipped.
    """
    if not sigma.is_strictly_convex:
        return None
    M = intersect_sublattices(N_sub, span_sublattice(sigma))
    if M.rank != sigma.dim:
        return None
    if not all(Q_sub.contains(p(v)) for v in M.vectors()):
        return False
    passed: list[Cone] = []
    for tau in reversed(sigma.faces()):
        if any(t.contains_cone(tau) for t in passed):
            continue
        img = image_cone(p, tau)
        if img.dim != tau.dim:
            continue
        reached = image_lattice(p, intersect_sublattices(M, span_sublattice(tau)))
        if not reached.contains_sublattice(intersect_sublattices(Q_sub, span_sublattice(img))):
            return None
        passed.append(tau)
    return True


def _compare_hilbert_bases(p: LatticeMap, sigma: Cone, kappa: Cone,
                           N_sub: Sublattice, Q_sub: Sublattice) -> bool:
    """p(N_sub ∩ sigma) = Q_sub ∩ kappa by the Hilbert bases of both sides,
    for kappa = p(sigma)."""
    image_gens = tuple(p(h) for h in hilbert_basis(sigma, N_sub))
    # p(sigma) = kappa, so the image lies in Q_sub ∩ kappa iff it lies in Q_sub
    if not all(Q_sub.contains(g) for g in image_gens):
        return False
    target = hilbert_basis(kappa, Q_sub)
    src_monoid = AffineMonoid(p.codomain, image_gens)
    for h in target:
        ok, _ = monoid_membership(h, src_monoid)
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# saturation

def is_saturated(M: AffineMonoid) -> bool:
    """True iff M equals (cone of M) intersected with (group of M)."""
    gens = set(M.generators)
    return all(g in gens or M.contains(g)
               for g in monoid_generators_of_cone(M.cone(), M.group()))


# ---------------------------------------------------------------------------
# integrality: a proof by flatness, else the bounded equational criterion

def integral_by_flatness(u: MonoidMap) -> bool:
    """True proves that u: P -> Q is integral; False only means that this
    criterion does not apply.

    It holds when (a) the lattice map of u is injective, (b) Q is saturated
    and generates its lattice, (c) P is free modulo units: saturated,
    generating its lattice, with the rays of its cone and a basis of its
    lines forming a lattice basis, so k[P] is regular, and (d) the transpose
    of u sends every face of the dual cone of Q onto a face of the dual cone
    of P, so the fibres of Spec k[Q] -> Spec k[P] are equidimensional.
    Then k[P] -> k[Q] is flat by miracle flatness (k[Q] is Cohen-Macaulay
    by Hochster's theorem; Abramovich-Karu, Invent. Math. 2000, §4-5), and
    flatness is integrality (K. Kato, "Logarithmic structures of
    Fontaine-Illusie", 1989, Prop. 4.1).

    (c) cannot be dropped: the Kummer map diag(2, 1, 1) into the monoid of
    the cone over a square satisfies (a), (b) and (d), and P is saturated,
    but its cone has four rays in rank 3, and the map is not integral.  The
    saturation tests run last, since a monoid without a saturation cone
    needs a search.
    """
    if kernel_lattice(u.lattice_map).rank != 0:
        return False
    P, Q = u.source, u.target
    cp, cq = P.cone(), Q.cone()
    basis = cp.rays + cp.lines
    if len(basis) != P.lattice.rank or abs(det(basis)) != 1:
        return False
    if any(M.group() != full_sublattice(M.lattice) for M in (P, Q)):
        return False
    # both cones are full-dimensional, so their duals are strictly convex
    dual_faces = set(dual_cone(cp).faces())
    t = dual_map(u.lattice_map)
    if not all(image_cone(t, f) in dual_faces for f in dual_cone(cq).faces()):
        return False
    return all(M.saturation_cone is not None or is_saturated(M) for M in (P, Q))


def kato_integral(u: MonoidMap, height_bound: int = 8):
    """Integrality of u by flatness, else by a bounded check of the
    equational criterion.

    Returns (True, None) when `integral_by_flatness` proves u integral, or
    when no counterexample of height <= height_bound exists, and
    (False, (p1, p2, q1, q2)) otherwise.  A True from the criterion is a
    proof and a False is a proof; a True from the search is evidence up to
    the height.  Raises BudgetExceeded when the search meets a monoid with
    more than SEARCH_BUDGET points of that height.
    """
    integer_vector("height_bound", (height_bound,))
    if kernel_lattice(u.lattice_map).rank != 0:
        raise MonoidError("the criterion requires an injective lattice map")
    if integral_by_flatness(u):
        return True, None
    return _kato_search(u, height_bound)


def _kato_search(u: MonoidMap, height_bound: int):
    """The equational criterion on the points of height <= height_bound."""
    tgt = u.target
    src = u.source
    n = tgt.lattice.rank
    all_gens = list(tgt.generators) + [u(g) for g in src.generators]
    all_gens = [g for g in all_gens if not is_zero_vec(g)]
    if not all_gens:
        return True, None
    f = _positive_functional(all_gens, n)

    T, _ = _bounded_points(n, tgt.generators, [dot(f, g) for g in tgt.generators],
                           height_bound)
    # source elements, keyed by their (injective) images
    S, _ = _bounded_points(src.lattice.rank, src.generators,
                           [dot(f, u(g)) for g in src.generators], height_bound)
    img = {tuple(u(s)): s for s in S}

    by_sum: dict[Vector, list[tuple[Vector, Vector]]] = {}
    for p in T:
        for q, s in img.items():
            key = vec_add(p, q)
            by_sum.setdefault(key, []).append((p, s))

    for pairs in by_sum.values():
        for (p1, s1), (p2, s2) in itertools.combinations(pairs, 2):
            if _kato_witness(p1, s1, s2, img, T, S):
                continue
            q1 = tuple(u(s1))
            q2 = tuple(u(s2))
            return False, (p1, p2, q1, q2)
    return True, None


def _kato_witness(p1, s1, s2, img: dict, T: dict, S: dict) -> bool:
    """Some r1 in S with w = p1 - u(r1) in T and r2 = s1 + r1 - s2 in S.

    Then w + u(r2) = p2 by linearity, because p1 + u(s1) = p2 + u(s2).
    """
    return any(vec_sub(p1, q) in T and vec_sub(vec_add(s1, r1), s2) in S
               for q, r1 in img.items())
