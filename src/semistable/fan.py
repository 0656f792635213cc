"""Fans, stacky fans, fan morphisms, and the predicates on them:
properness, modifications, alterations, weak semistability, smoothness,
fiber products, cartesianness, base change, representability.

Support comparisons never touch real arithmetic and are made cone by cone:
a cone is cut by the facets of the cones inside it, and one interior
sample per piece decides coverage exactly.
"""
from __future__ import annotations

import functools
import itertools
from typing import Iterable, Sequence

from .cone import (
    Cone,
    image_cone,
    intersect,
    preimage_cone,
    relint_owner,
    span_sublattice,
    split_by_hyperplane,
)
from .lattice import (
    INFINITE,
    Lattice,
    LatticeMap,
    LatticePushout,
    Matrix,
    Record,
    Sublattice,
    Vector,
    det,
    dot,
    dual_map,
    fiber_product_lattice,
    image_lattice,
    intersect_sublattices,
    lattice_index,
    matvec,
    preimage_sublattice,
    pushout_lattice,
    transpose,
    vec_add,
    vec_sub,
)
from .monoid import (
    AffineMonoid,
    MonoidError,
    MonoidMap,
    _bounded_points,
    _check_budget,
    _contains_modulo_units,
    _smallest_multiple_coords,
    dual_monoid,
    integral_by_flatness,
)

# Word length of the pairs (m, l) whose pushout classes the cartesian check
# compares.
PUSHOUT_TEST_LENGTH = 4


class FanError(ValueError):
    pass


# ---------------------------------------------------------------------------
# types

class Fan(Record):
    lattice: Lattice
    cones: tuple[Cone, ...]

    @staticmethod
    def from_cones(lattice: Lattice | int, cones: Iterable[Cone]) -> "Fan":
        if not isinstance(lattice, Lattice):
            lattice = Lattice(lattice)
        closed: dict = {}
        for c in cones:
            if c.lattice != lattice:
                raise FanError("cone lattice does not match the fan lattice")
            for f in c.faces():
                closed[(f.rays, f.lines)] = f
        if not closed:
            closed[((), ())] = Cone.zero(lattice)
        return Fan(lattice, tuple(sorted(closed.values())))

    def maximal_cones(self) -> list[Cone]:
        """The cones inside no other cone, in fan order."""
        return list(self._maximal)

    @functools.cached_property
    def _maximal(self) -> tuple[Cone, ...]:
        """Computed once per fan, from the candidates: the cones that are no
        proper face of another cone, found by the faces of each candidate,
        from the largest dimension down.  Every cone lies in a candidate, so
        a cone inside another lies in another candidate, and comparing the
        candidates pairwise gives the cones inside no other cone, on any
        list of cones.  A cone of lower dimension cannot contain c."""
        covered: set = set()
        for c in sorted(self.cones, key=lambda c: -c.dim):
            if c not in covered and c.is_strictly_convex:
                covered.update(c.faces()[:-1])
        candidates = [c for c in self.cones if c not in covered]
        return tuple(c for c in candidates if not any(
            o.dim >= c.dim and o != c and o.contains_cone(c) for o in candidates))

    def __contains__(self, c: Cone) -> bool:
        return c in self.cones


class ValidationReport(Record):
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return not self.violations


def _closed_under_faces(f: Fan) -> bool:
    """The cones of f are exactly the faces of its maximal cones."""
    maximal = f.maximal_cones()
    return (all(c.is_strictly_convex for c in maximal)
            and set(f.cones) == {face for c in maximal for face in c.faces()})


def _every_pair(f: Fan) -> ValidationReport:
    bad: list[str] = []
    for c in f.cones:
        if not c.is_strictly_convex:
            bad.append(f"cone {c.rays} is not strictly convex")
    seen = set()
    for c in f.cones:
        key = (c.rays, c.lines)
        if key in seen:
            bad.append(f"duplicate cone {c.rays}")
        seen.add(key)
    faces = {c: c.faces() for c in f.cones if c.is_strictly_convex}
    for c in f.cones:
        for face in faces.get(c, ()):
            if (face.rays, face.lines) not in seen:
                bad.append(f"face {face.rays} of {c.rays} missing from the fan")
    for a, b in itertools.combinations([c for c in f.cones if c.is_strictly_convex], 2):
        cap = intersect(a, b)
        if cap not in faces[a] or cap not in faces[b]:
            bad.append(f"intersection of {a.rays} and {b.rays} is not a common face")
    return ValidationReport(tuple(bad))


def validate_fan(f: Fan) -> ValidationReport:
    """Lemma: if the cones are exactly the faces of the maximal cones, and
    any two maximal cones A, B meet in a common face F, then so do faces
    a <= A and b <= B, since a cap F and b cap F are faces of F.  Any failure
    falls back to every pair, which names each violation in a fixed order."""
    if (len({(c.rays, c.lines) for c in f.cones}) == len(f.cones)
            and _closed_under_faces(f)
            and all((cap := intersect(a, b)) in a.faces() and cap in b.faces()
                    for a, b in itertools.combinations(f.maximal_cones(), 2))):
        return ValidationReport(())
    return _every_pair(f)


class StackyFan(Record):
    """Fan together with a finite-index sublattice for each cone."""

    fan: Fan
    assignments: tuple[tuple[Cone, Sublattice], ...]

    @staticmethod
    def from_dict(fan: Fan, sub: dict) -> "StackyFan":
        pairs = []
        for c in fan.cones:
            if c in sub:
                pairs.append((c, sub[c]))
            else:
                pairs.append((c, span_sublattice(c)))
        return StackyFan(fan, tuple(pairs))

    def __post_init__(self):
        # a cone listed twice keeps its first sublattice
        index: dict[Cone, Sublattice] = {}
        for cone, s in self.assignments:
            index.setdefault(cone, s)
        object.__setattr__(self, "_index", index)

    def sublattice(self, c: Cone) -> Sublattice:
        if c not in self._index:
            raise FanError(f"cone {c.rays} is not in the stacky fan")
        return self._index[c]


def validate_stacky_fan(s: StackyFan) -> ValidationReport:
    bad: list[str] = []
    for c, sub in s.assignments:
        full = span_sublattice(c)
        try:
            idx = lattice_index(sub, full)
        except ValueError:
            bad.append(f"sublattice of {c.rays} is not contained in Span intersect N")
            continue
        if idx == INFINITE:
            bad.append(f"sublattice of {c.rays} has infinite index")
    for c, sub in s.assignments:
        for face in c.faces():
            if face not in s._index:
                continue
            expected = s.sublattice(face)
            got = intersect_sublattices(sub, span_sublattice(face))
            if got.basis != expected.basis:
                bad.append(
                    f"sublattice of face {face.rays} of {c.rays} disagrees with restriction"
                )
    return ValidationReport(tuple(bad))


class FanMorphism(Record):
    """Lattice map sending every source cone into some target cone.

    The image of each source cone (`images`, aligned with `source.cones`)
    and the assignment, each source cone with its smallest containing
    target cone, are computed here and are not constructor arguments.
    """

    source: Fan
    target: Fan
    lattice_map: LatticeMap

    def __post_init__(self):
        if (self.lattice_map.domain != self.source.lattice
                or self.lattice_map.codomain != self.target.lattice):
            raise FanError("lattice map does not match fan lattices")
        images = tuple(image_cone(self.lattice_map, c) for c in self.source.cones)
        pairs = tuple((c, minimal_containing_cone(self.target, img))
                      for c, img in zip(self.source.cones, images))
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "assignment", pairs)
        object.__setattr__(self, "_assigned", dict(pairs))

    def image_of(self, c: Cone) -> Cone:
        if c not in self._assigned:
            raise FanError(f"cone {c.rays} is not in the source fan")
        return self._assigned[c]

    def __call__(self, v: Sequence[int]) -> Vector:
        return self.lattice_map(v)

    def compose(self, other: "FanMorphism") -> "FanMorphism":
        return FanMorphism(other.source, self.target,
                           self.lattice_map.compose(other.lattice_map))


def minimal_containing_cone(f: Fan, c: Cone) -> Cone:
    """The unique fan cone whose relative interior meets relint(c)."""
    sample = c.interior_sample()
    candidate = relint_owner(f.cones, sample)
    if candidate is None:
        raise FanError(f"no fan cone contains the point {sample}")
    if not candidate.contains_cone(c):
        raise FanError(f"cone with sample {sample} straddles the fan cone {candidate.rays}")
    return candidate


class StackyMorphism(Record):
    underlying: FanMorphism
    source: StackyFan
    target: StackyFan

    def __post_init__(self):
        if (self.underlying.source != self.source.fan
                or self.underlying.target != self.target.fan):
            raise FanError("underlying morphism does not match the stacky fans")
        p = self.underlying.lattice_map
        for sigma, kappa in self.underlying.assignment:
            n_s = self.source.sublattice(sigma)
            q_k = self.target.sublattice(kappa)
            if not q_k.contains_sublattice(image_lattice(p, n_s)):
                raise FanError(
                    f"image of the sublattice of {sigma.rays} escapes the base sublattice"
                )


# ---------------------------------------------------------------------------
# support comparison, cone by cone

def decompose_by_hyperplanes(start: Cone, functionals: Iterable[Vector]) -> list[Cone]:
    """All cells of the hyperplane arrangement restricted to `start`.

    Every point of `start` lies in some cell whose relative interior gives
    it the same sign vector, so one interior sample per cell decides any
    predicate defined by the functionals.
    """
    cells = {(start.rays, start.lines): start}
    for h in functionals:
        nxt: dict = {}
        for c in cells.values():
            gens = c.generators()
            vals = [dot(h, g) for g in gens]
            if any(v < 0 for v in vals) and any(v > 0 for v in vals):
                parts = split_by_hyperplane(c, h) + (Cone.from_halfspaces(
                    c.lattice, c.facets, c.span_equations + (tuple(h),)),)
            else:
                # h keeps one sign on c: c itself and the face where h vanishes
                parts = (c, Cone.from_generators(
                    c.lattice, [g for g, v in zip(gens, vals) if v == 0]))
            for part in parts:
                nxt[(part.rays, part.lines)] = part
        cells = nxt
    return sorted(cells.values(), key=lambda c: (c.dim, c.rays, c.lines))


def covers(cell: Cone, cones: Iterable[Cone]) -> bool:
    """True iff the cones inside `cell` cover it.

    Only the cones of the cell's dimension count: closed cones of lower
    dimension cannot cover an open gap.  Cutting the cell by their facets
    and span equations puts the relative interior of every piece inside or
    outside each of them, so one interior sample per piece decides.
    """
    parts = [c for c in cones if c.dim == cell.dim and cell.contains_cone(c)]
    hyps = sorted({h for c in parts for h in c.facets + c.span_equations})
    return all(any(c.contains(piece.interior_sample()) for c in parts)
               for piece in decompose_by_hyperplanes(cell, hyps))


def is_proper(m: FanMorphism) -> bool:
    """Every point of the target support is hit by the source support.

    The target must be a fan.  Each image cone lies in its assigned target
    cone and meets any other target cone only in the image of one of its
    faces, itself a source cone; so it suffices that every maximal target
    cone is covered by the images lying inside it.
    """
    images = set(m.images)
    return all(covers(kappa, images) for kappa in m.target.maximal_cones())


# ---------------------------------------------------------------------------
# modifications and alterations

def is_modification(m: FanMorphism) -> bool:
    """Identity on the lattice with equal supports.  The morphism already
    puts the source support inside the target's, so properness gives the
    rest; the target must be a fan."""
    return (m.lattice_map == LatticeMap.identity_map(m.source.lattice)
            and is_proper(m))


def is_alteration(m: FanMorphism) -> bool:
    """Finite-index lattice map identifying the supports: the morphism
    gives one inclusion, properness the other; the target must be a fan."""
    lm = m.lattice_map
    if lm.domain.rank != lm.codomain.rank or det(lm.matrix) == 0:
        return False
    return is_proper(m)


def factor_alteration(m: FanMorphism) -> tuple[FanMorphism, FanMorphism]:
    """Split an alteration into a modification followed by a finite-index
    inclusion through the pulled-back fan.

    No code of the package calls it; it stays as the library form of the
    factorisation that the category of alteration squares is built on."""
    if not is_alteration(m):
        raise FanError("morphism is not an alteration")
    j = m.lattice_map
    pulled = Fan.from_cones(m.source.lattice,
                            [preimage_cone(j, k) for k in m.target.cones])
    modification = FanMorphism(m.source, pulled, LatticeMap.identity_map(m.source.lattice))
    inclusion = FanMorphism(pulled, m.target, j)
    return modification, inclusion


def require_fans(source: Fan, target: Fan) -> None:
    """Raise FanError naming the first of the two that is not a fan."""
    for name, fan in (("source", source), ("target", target)):
        if not (report := validate_fan(fan)):
            raise FanError(f"the {name} is not a fan: " + "; ".join(report.violations))


def minimal_modification(p_map: LatticeMap, f: Fan, g: Fan) -> tuple[Fan, FanMorphism]:
    """Coarsest refinement of f whose cones map into cones of g: the face
    closure of the cuts sigma ∩ p^-1(kappa) of the maximal cones.  Maximal
    cones suffice: faces of kappa pull back to faces of p^-1(kappa), and
    faces of A and B meet in a face of A cap B, as both fans are the face
    closures of their maximal cones.

    Both inputs must be fans (`require_fans`), and then the output is one,
    so it is not validated.  Each cut lies in sigma, so it is strictly
    convex.  Two cuts meet in (sigma ∩ sigma') ∩ p^-1(kappa ∩ kappa'), that
    is tau ∩ p^-1(lambda) for a common face tau of sigma and sigma' and a
    common face lambda of kappa and kappa'.  If u >= 0 on sigma vanishes
    exactly on tau, and v >= 0 on kappa exactly on lambda, then u + v p is
    >= 0 on a cut and vanishes on it exactly on tau ∩ p^-1(lambda): so the
    two cuts meet in a common face.  That is the lemma of `validate_fan`
    for the maximal cuts, and Fan.from_cones closes them under faces."""
    if p_map.domain != f.lattice or p_map.codomain != g.lattice:
        raise FanError("lattice map does not match the fans")
    require_fans(f, g)
    kappas = g.maximal_cones()
    refined = Fan.from_cones(f.lattice, [cut for sigma in f.maximal_cones()
                                         for cut in cut_by_preimages(sigma, p_map, kappas)])
    return refined, FanMorphism(refined, g, p_map)


def cut_by_preimages(sigma: Cone, p_map: LatticeMap, cones: Iterable[Cone]) -> list[Cone]:
    """The cones sigma ∩ p^-1(c) for c in `cones`, in their order.  Each is
    cut out of sigma in one step, by its facets and span equations and by
    those of c pulled back along p, as u.(p x) = (p^T u).x, so no
    preimage cone is built."""
    back = transpose(p_map.matrix)
    return [Cone.from_halfspaces(
        sigma.lattice, [matvec(back, u) for u in c.facets] + list(sigma.facets),
        [matvec(back, e) for e in c.span_equations] + list(sigma.span_equations))
        for c in cones]


# ---------------------------------------------------------------------------
# weak semistability

class WeakSemistabilityReport(Record):
    failures: tuple[tuple[Cone, int, str], ...]

    def __bool__(self) -> bool:
        return not self.failures

    def failing_cones(self) -> list[Cone]:
        return [c for c, _, _ in self.failures]


def is_weakly_semistable(m) -> WeakSemistabilityReport:
    """The two conditions on every source cone sigma of a fan morphism or a
    stacky morphism: the image of sigma is a cone of the target fan
    (condition 1), and the lattice points of sigma, in its sublattice on a
    stacky source, map onto the lattice points of the image, in its
    sublattice on a stacky target (condition 2).  Failures are listed by
    (dim, rays).

    One implementation: the morphism goes as a complex
    (`fan_morphism_as_complex`) through `complex_weak_semistability`, which
    certifies the maximal cones and lets their faces inherit (the proof is
    in its docstring), and its failures are worded for cones.  Source and
    target must be fans.  Then both forms ask the same first condition: the
    image is a fan cone exactly when it is its assigned cone, the one whose
    relative interior holds the image's sample, since no two fan cones
    share relative interior points.  A Fan that is not closed under faces
    raises FanError.  A MonoidError, from a sublattice that meets its span
    in a lattice of lower rank, propagates, as does BudgetExceeded."""
    stacky = isinstance(m, StackyMorphism)
    under = m.underlying if stacky else m
    cm = conecomplex.fan_morphism_as_complex(under)
    subs = ((list(map(m.source.sublattice, cm.source.cells)),
             list(map(m.target.sublattice, cm.target.cells))) if stacky else ())
    report = conecomplex.complex_weak_semistability(cm, *subs, monoid_errors_fail=False)
    if report:
        return report
    image = dict(zip(under.source.cones, under.images))
    failures = [(sigma, cond, f"image cone {image[sigma].rays} is not in the target fan"
                 if cond == 1 else "image monoid is strictly smaller than the cone monoid")
                for sigma, cond, _ in report.failures]
    return WeakSemistabilityReport(tuple(sorted(failures, key=lambda t: (t[0].dim, t[0].rays))))


def is_smooth_fan(f) -> bool:
    """A cone sigma with lattice N_sigma is smooth when sigma is simplicial
    and the first points of N_sigma on its rays (the smallest multiples
    lying in N_sigma) form a basis of N_sigma: the chart X_{sigma,N_sigma}
    is then an affine space times a torus.  A plain fan takes N_sigma = N
    cap span(sigma), whose first points are the primitive rays.  A ray
    with no point in N_sigma has no first point, and its cone is not
    smooth."""
    if isinstance(f, StackyFan):
        pairs = f.assignments
    else:
        pairs = tuple((c, span_sublattice(c)) for c in f.cones)
    for c, sub in pairs:
        if not c.is_strictly_convex or len(c.rays) != c.dim or sub.rank != c.dim:
            return False
        try:
            first = [_smallest_multiple_coords(sub, r) for r in c.rays]
        except MonoidError:
            return False
        if abs(det(first)) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# fiber products

def toric_fiber_product(p: FanMorphism, q: FanMorphism):
    """Fan of fiber cones inside the fiber product lattice, with projections.

    Maximal pairs suffice.  The fiber lattice embeds by iota = (pn, pl), so
    each fiber cone iota^-1(sigma x lambda) is the cone sigma x lambda cut by
    a linear subspace: it is strictly convex, and its faces are the cuts of
    the faces sigma' x lambda' of sigma x lambda, that is the fiber cones of
    the faces sigma' <= sigma and lambda' <= lambda.  Every cone of a fan is
    a face of one of its maximal cones, so the face closure of the maximal
    pairs holds the fiber cone of every pair."""
    if p.target != q.target:
        raise FanError("fiber product requires a shared target")
    fib, pn, pl = fiber_product_lattice(p.lattice_map, q.lattice_map)
    fan = Fan.from_cones(fib, [_fiber_cone(pn, pl, sigma, lam)
                               for sigma in p.source.maximal_cones()
                               for lam in q.source.maximal_cones()])
    proj_n = FanMorphism(fan, p.source, pn)
    proj_l = FanMorphism(fan, q.source, pl)
    return fan, proj_n, proj_l


def _fiber_cone(pn: LatticeMap, pl: LatticeMap, sigma: Cone, lam: Cone) -> Cone:
    """iota^-1(sigma x lambda) for iota = (pn, pl): the intersection of the
    preimages of sigma and lambda, cut out as one cone by the facets and
    span equations of both pulled back to the fiber lattice."""
    tn, tl = transpose(pn.matrix), transpose(pl.matrix)
    return Cone.from_halfspaces(
        pn.domain,
        [matvec(tn, u) for u in sigma.facets] + [matvec(tl, u) for u in lam.facets],
        [matvec(tn, e) for e in sigma.span_equations]
        + [matvec(tl, e) for e in lam.span_equations])


class CartesianReport(Record):
    entries: tuple[tuple[Cone, Cone, Cone, bool, str], ...]

    def __bool__(self) -> bool:
        return all(ok for _, _, _, ok, _ in self.entries)


def cartesian_check(p: FanMorphism, q: FanMorphism) -> CartesianReport:
    """Compare the pushout of dual monoids with the dual monoid of each
    fiber cone under the canonical identification of dual lattices.

    What depends on p and q alone (`_Fiber`) is computed once per call,
    equal cones share one dual monoid, and the legs of the entries and what
    the entries ask of them are computed once per call (`_Legs`).

    A failing entry is a proof.  A passing entry whose base dual monoid
    maps integrally into one of its legs (`integral_by_flatness`) is exact
    too; any other passing entry is exact except for injectivity, which is
    checked on pairs of word length at most PUSHOUT_TEST_LENGTH.  A search
    that runs out of budget raises BudgetExceeded instead of adding an
    entry."""
    if p.target != q.target:
        raise FanError("cartesian check requires a shared target")
    _, pn, pl = fiber_product_lattice(p.lattice_map, q.lattice_map)
    up, uq = dual_map(p.lattice_map), dual_map(q.lattice_map)
    fiber = _Fiber(pn, pl, up, uq, pushout_lattice(up, uq),
                   transpose(pn.matrix), transpose(pl.matrix))
    legs = _Legs()
    entries = []
    for sigma, kappa in p.assignment:
        for lam, image in q.assignment:
            if image != kappa:
                continue
            ok, reason = _cartesian_triple(fiber, legs, sigma, kappa, lam)
            entries.append((sigma, kappa, lam, ok, reason))
    return CartesianReport(tuple(sorted(
        entries, key=lambda t: (t[0].dim, t[0].rays, t[2].dim, t[2].rays))))


class _Fiber(Record):
    """The data no entry of one cartesian check changes: the projections of
    the fiber lattice, the dual maps of p and q, their pushout lattice,
    whose torsion and rank answer for every entry, and the transposed
    projections, which restrict a functional on either source to the
    fiber."""

    pn: LatticeMap
    pl: LatticeMap
    up: LatticeMap
    uq: LatticeMap
    pushout: LatticePushout
    pn_t: Matrix
    pl_t: Matrix


class _Legs:
    """What the entries of one cartesian check share, each computed on first
    use and then kept: the legs of the entries, maps of dual monoids from a
    base cone to a source cone by the dual map of p or q; whether
    `integral_by_flatness` proves a leg integral; and the points of a dual
    monoid of word length at most PUSHOUT_TEST_LENGTH with their
    restrictions to the fiber lattice.  The legs are keyed by value, so
    when p = q a leg of p is the same leg of q."""

    def __init__(self):
        self._maps: dict = {}
        self._integral: dict = {}
        self._points: dict = {}

    def map(self, dual: LatticeMap, kappa: Cone, cone: Cone) -> MonoidMap:
        key = (dual, kappa, cone)
        if key not in self._maps:
            self._maps[key] = MonoidMap(dual_monoid(kappa), dual_monoid(cone), dual)
        return self._maps[key]

    def integral(self, u: MonoidMap) -> bool:
        if u not in self._integral:
            self._integral[u] = integral_by_flatness(u)
        return self._integral[u]

    def test_points(self, monoid: AffineMonoid, restrict: Matrix) -> tuple[list, list]:
        key = (monoid, restrict)
        if key not in self._points:
            points, _ = _bounded_points(monoid.lattice.rank, monoid.generators,
                                        [1] * len(monoid.generators), PUSHOUT_TEST_LENGTH)
            self._points[key] = (list(points), [matvec(restrict, m) for m in points])
        return self._points[key]


def _cartesian_triple(fiber: _Fiber, legs: _Legs, sigma: Cone, kappa: Cone, lam: Cone):
    u = legs.map(fiber.up, kappa, sigma)
    v = legs.map(fiber.uq, kappa, lam)
    m_sigma = u.target
    m_lambda = v.target
    po = fiber.pushout
    if po.torsion_order != 1:
        return False, f"pushout of dual lattices has torsion of order {po.torsion_order}"

    # the canonical map phi sends a class [m, l] to the sum of the
    # restrictions of m and l to the fiber lattice, whose rank is the
    # pushout's, n + l - rank(p, -q).  The projections map the fiber cone
    # into sigma and lambda, so the image monoid lies in the saturated fiber
    # dual monoid, and surjectivity asks that it be all of it
    dm = dual_monoid(_fiber_cone(fiber.pn, fiber.pl, sigma, lam))
    mapped = [matvec(fiber.pn_t, g) for g in m_sigma.generators]
    mapped += [matvec(fiber.pl_t, g) for g in m_lambda.generators]
    # a Hilbert basis element of a strictly convex dm is irreducible in dm,
    # and mapped lies in dm, so it is in the monoid of mapped only as a member
    if dm.saturation_cone.is_strictly_convex:
        larger = not set(dm.generators) <= set(mapped)
    else:
        larger = not all(_contains_modulo_units(g, mapped, dm.lattice)
                         for g in dm.generators)
    if larger:
        return False, "fiber dual monoid is strictly larger than the pushout monoid"

    # injectivity of the amalgamated pushout.  An integral leg makes the
    # pushout monoid integral, so its classes are those of its torsion-free
    # lattice, on which phi is injective: the lattice has the fiber rank and
    # phi maps it onto the group of the fiber dual monoid.  Otherwise pairs
    # of short words with the same restriction must be connected by
    # exchange moves through the base
    if legs.integral(u) or legs.integral(v):
        return True, ""
    if not _pushout_injective_bounded(u, v, legs.test_points(m_sigma, fiber.pn_t),
                                      legs.test_points(m_lambda, fiber.pl_t)):
        return False, "canonical map identifies distinct pushout classes"
    return True, ""


def _pushout_injective_bounded(u: MonoidMap, v: MonoidMap, m_test: tuple[list, list],
                               l_test: tuple[list, list]) -> bool:
    """Check that any two pairs (m, l) of test points with the same
    restriction to the fiber are related by moves
    (m, l) -> (m -+ u(g), l +- v(g)), g a generator of the base dual
    monoid, that keep m and l in their monoids.  The test points of either
    side, `m_test` and `l_test`, are the points of word length at most
    PUSHOUT_TEST_LENGTH of the target of u or v, with their restrictions.

    The pairs are grouped by the sum of their two restrictions, written as
    one integer: x -> sum x_i w^i is linear, so a pair's key is the sum of
    the keys of its two restrictions, and it is injective on the vectors
    whose entries lie in [-(w - 1)/2, (w - 1)/2] (balanced base w), where
    every sum of two restrictions lies for w = 4 B + 1, B the largest
    absolute entry of a restriction.  The groups are searched one at a
    time, in the order of their first pairs and each from its first pair,
    and the pairs of a group come from the test points of each side
    indexed by key, so the search stops at the first group that is not
    connected without forming the others.

    These moves generate the pushout relation, so the search is exact: a
    False proves that the canonical map identifies two distinct pushout
    classes, and a True is evidence up to the word length.  A component
    that grows past the search budget raises BudgetExceeded.
    `_cartesian_triple` calls it only when neither leg is integral by
    flatness; with an integral leg it could only answer True.
    """
    moves = [(u(g), v(g)) for g in u.source.generators]
    m_points, m_restricted = m_test
    l_points, l_restricted = l_test
    bound = max(map(abs, itertools.chain(*m_restricted, *l_restricted)), default=0)
    powers = [(4 * bound + 1) ** i for i in range(len(m_restricted[0]))]
    m_keys = [dot(powers, a) for a in m_restricted]
    m_by_key = _by_key(m_points, m_keys)
    l_by_key = _by_key(l_points, [dot(powers, b) for b in l_restricted])
    searched = set()
    for m, ka in zip(m_points, m_keys):
        for kb, ls in l_by_key.items():
            key = ka + kb
            if key in searched:
                continue
            searched.add(key)
            group = {(x, l) for kx, xs in m_by_key.items()
                     for l in l_by_key.get(key - kx, ()) for x in xs}
            if len(group) > 1 and not _connected((m, ls[0]), group, moves, u.target, v.target):
                return False
    return True


def _by_key(points: list[Vector], keys: list[int]) -> dict[int, list[Vector]]:
    """The points with each key, in their order."""
    out: dict[int, list[Vector]] = {}
    for x, k in zip(points, keys):
        out.setdefault(k, []).append(x)
    return out


def _connected(start: tuple[Vector, Vector], targets: set, moves: list,
               M: AffineMonoid, L: AffineMonoid) -> bool:
    """Whether moves (m, l) -> (m -+ a, l +- b) that keep m in M and l in L
    reach every pair of `targets` from `start`, breadth first."""
    seen = {start}
    frontier = [start]
    found = {start}
    while frontier and len(found) < len(targets):
        nxt = []
        for m, l in frontier:
            for a, b in moves:
                for cand in ((vec_sub(m, a), vec_add(l, b)),
                             (vec_add(m, a), vec_sub(l, b))):
                    cm, cl = cand
                    if cand not in seen and M.contains(cm) and L.contains(cl):
                        seen.add(cand)
                        _check_budget(len(seen), "a pushout class search")
                        nxt.append(cand)
                        if cand in targets:
                            found.add(cand)
        frontier = nxt
    return len(found) == len(targets)


def require_finite_index(j: LatticeMap) -> None:
    """Raise FanError unless j is a finite-index inclusion of lattices."""
    if j.domain.rank != j.codomain.rank or det(j.matrix) == 0:
        raise FanError("base change requires a finite-index inclusion")


def base_change_along_alteration(p: FanMorphism, j: LatticeMap) -> tuple[Fan, FanMorphism]:
    """Pull a family back along a finite-index base lattice inclusion and
    take the coarsest fan refinement that maps to the pulled-back base."""
    if j.codomain != p.target.lattice:
        raise FanError("inclusion codomain must be the base lattice")
    require_finite_index(j)
    fib, pi_n, pi_q = fiber_product_lattice(p.lattice_map, j)
    pulled_f = Fan.from_cones(fib, [preimage_cone(pi_n, s)
                                    for s in p.source.cones
                                    if preimage_cone(pi_n, s).is_strictly_convex])
    pulled_g = Fan.from_cones(j.domain, [preimage_cone(j, k) for k in p.target.cones])
    return minimal_modification(pi_q, pulled_f, pulled_g)


# ---------------------------------------------------------------------------
# representability

def is_representable(m: StackyMorphism) -> bool:
    """True iff every stacky sublattice is the full preimage of its base
    sublattice inside the span of its cone."""
    p = m.underlying.lattice_map
    for sigma, kappa in m.underlying.assignment:
        n_s = m.source.sublattice(sigma)
        q_k = m.target.sublattice(kappa)
        pre = preimage_sublattice(p, q_k)
        expected = intersect_sublattices(pre, span_sublattice(sigma))
        if expected.basis != n_s.basis:
            return False
    return True


# The complex form of weak semistability imports this module, so the module
# binds it last; `is_weakly_semistable` looks it up when it runs.
from . import conecomplex  # noqa: E402
