"""Rational polyhedral cones with exact generator/half-space duality.

A cone is stored with both descriptions computed at construction time:
extremal rays (plus lineality generators when the cone contains lines),
irredundant facet normals, and integer equations cutting out the linear
span.  All conversions are exact.  Cones are immutable, and one memo of
CONE_MEMO_SIZE entries, keyed on the normalized generators, builds each once;
each cone enumerates its faces once, on the first call to `faces`.

Both directions of the conversion go through one kernel, `_extreme_rays`,
an integer double description of a pointed cone given by inequalities.
`Cone._build` answers every question about a cone from generators with the
elimination it needs: one Smith form of the generators (`span_basis`) gives
the span lattice, coordinates in it and the span equations (kept in row
Hermite form); the facet normals are the extreme rays of the dual in those
coordinates; extremal rays and the lineality are read off the generators'
tight facets by Bareiss rank; a cone with lines takes one more Smith form
for its lineality quotient and one `lift` for all its rays.
`from_halfspaces` splits off the lineality of its inequalities (one more
Smith form, only when there is one), finds the rays of the pointed part by
double description, and builds the cone from those rays and lines; a second
memo of CONE_MEMO_SIZE entries, keyed on the normalized inequalities, cuts
each cone out once.

`from_generators`, `from_halfspaces` and `split_by_hyperplane` take only
integer entries (`lattice.integer_rows`), and `contains` and
`relint_contains` take rational points: an int or Fraction entry, never a
float or a string (IntegerError).  Membership is one `dot` per equation
and facet, mapped over the rows and compared by `operator.le` or `lt`.
"""
from __future__ import annotations

import functools
from itertools import repeat
from numbers import Rational
from operator import le, lt
from typing import Iterable, Sequence

from .lattice import (
    IntegerError,
    Lattice,
    LatticeMap,
    Record,
    Sublattice,
    Vector,
    det,
    dot,
    integer_rows,
    integer_vector,
    is_zero_vec,
    lift,
    matvec,
    plain_ints,
    primitive,
    rank,
    reduce_mod_rows,
    row_hermite_form,
    span_basis,
    sublattice_from_vectors,
    transpose,
    vec_neg,
    vec_sub,
)

# distinct cones built from cleared memos: at most 59 by one benchmark
# operation and 61 by one pass, 88 by an S^4 -> quad reduce or
# reduce_complex and 196 by an S^5 -> quad one (173 and 404 while each cone
# cut out by inequalities was built twice); and cut out by inequalities: 56
# by one benchmark operation, 63 by one pass and 208 by an S^5 -> quad
# reduce_complex; and dual cones: 13 by one monoid_checks pass
CONE_MEMO_SIZE = 1024


def _both_signs(vectors: Iterable[Sequence[int]], lines: Iterable[Sequence[int]]) -> list[Vector]:
    """The vectors, then each of `lines` in both directions."""
    out = [tuple(v) for v in vectors]
    for l in lines:
        out += [tuple(l), vec_neg(l)]
    return out


def _normalized(vectors: Iterable[Sequence[int]]) -> tuple[Vector, ...]:
    """The memo key of a cone: its sorted, distinct, primitive, nonzero
    generators or inequalities."""
    return tuple(sorted({primitive(v) for v in vectors if not is_zero_vec(v)}))


def _extreme_rays(rows: Sequence[Vector], d: int) -> list[Vector]:
    """Primitive extreme rays, sorted, of the pointed cone {u : a.u >= 0 for
    a in rows} in Z^d, where the rows have rank d.

    Integer double description (Fukuda-Prodon, "Double description method
    revisited", LNCS 1120, 1996).  The first d independent rows cut out a
    simplicial cone; its rays are the columns of their adjugate, signed by
    the determinant: the signed (d-1)-minors of all but one of the rows,
    positive on that one.  Each further row a keeps the rays with a.u >= 0
    and puts one new ray on a = 0 between each adjacent pair of rays on
    opposite sides.  Two rays are adjacent exactly when no third ray is
    tight on every row both are tight on, and then they share at least
    d - 2 tight rows.
    """
    if d == 0 or not rows:
        return []
    start: list[int] = []
    for i, a in enumerate(rows):
        if rank([rows[j] for j in start] + [a]) > len(start):
            start.append(i)
            if len(start) == d:
                break
    # each ray with the rows it is tight on, as a bit mask
    done = sum(1 << i for i in start)
    rays = []
    for i in start:
        sub = [rows[j] for j in start if j != i]
        u = primitive(tuple((-1) ** k * det(tuple(r[:k] + r[k + 1:] for r in sub))
                            for k in range(d)))
        rays.append((vec_neg(u) if dot(rows[i], u) < 0 else u, done & ~(1 << i)))
    for i, a in enumerate(rows):
        if done >> i & 1:
            continue
        bit = 1 << i
        kept, pos, neg = [], [], []
        for u, z in rays:
            x = dot(a, u)
            if x > 0:
                pos.append((u, z, x))
                kept.append((u, z))
            elif x < 0:
                neg.append((u, z, x))
            else:
                kept.append((u, z | bit))
        masks = [z for _, z in rays]
        for p, zp, xp in pos:
            for q, zq, xq in neg:
                common = zp & zq
                if (common.bit_count() >= d - 2
                        and len([z for z in masks if z & common == common]) == 2):
                    kept.append((primitive(vec_sub([xp * y for y in q], [xq * x for x in p])),
                                 common | bit))
        rays = kept
    return sorted(u for u, _ in rays)


class ConeError(ValueError):
    pass


def _check_rational(v: Sequence) -> None:
    """Raise IntegerError unless every entry of the point v is an integer or
    a Fraction.  A sum of such entries is one of them, and a float or a
    string among them makes the sum a float or raises TypeError."""
    try:
        total = sum(v)
    except TypeError:
        total = None
    if total.__class__ is not int and not isinstance(total, Rational):
        bad = next((x for x in v if not isinstance(x, Rational)), total)
        raise IntegerError(f"v has the entry {bad!r} of type {type(bad).__name__};"
                           " expected integers or Fractions")


class Cone(Record):
    """Cone given by generators, normalized at construction.

    rays: primitive extremal generators (canonical representatives modulo
    the lineality space when the cone contains lines), sorted.
    lines: saturated basis of the lineality space; empty iff strictly convex.
    facets: irredundant supporting functionals, nonnegative on the cone.
    span_equations: integer equations cutting out the linear span, a row
    Hermite basis of the functionals vanishing on it.
    span: the saturated sublattice (lattice intersect Span), built once.
    """

    lattice: Lattice
    rays: tuple[Vector, ...]
    lines: tuple[Vector, ...]
    facets: tuple[Vector, ...]
    span_equations: tuple[Vector, ...]
    span: Sublattice

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_generators(lattice: Lattice | int, gens: Iterable[Sequence[int]]) -> "Cone":
        if not isinstance(lattice, Lattice):
            lattice = Lattice(lattice)
        return Cone._build(lattice, _normalized(integer_rows("gens", gens)))

    @staticmethod
    @functools.lru_cache(maxsize=CONE_MEMO_SIZE)
    def _build(lattice: Lattice, gen_list: tuple[Vector, ...]) -> "Cone":
        gen_list = plain_ints(gen_list)
        n = lattice.rank
        basis, coords, eqs = span_basis(gen_list, n)
        span_lat = sublattice_from_vectors(lattice, basis)
        span_eqs = row_hermite_form(eqs)
        d = len(basis)
        if d == 0:
            return Cone(lattice, (), (), (), span_eqs, span_lat)

        # full-dimensional in the coordinates of its span
        rays_c = [matvec(coords, g) for g in gen_list]
        facets_c = _extreme_rays(rays_c, d)
        pull = transpose(coords)
        facets_amb = tuple(sorted(reduce_mod_rows(matvec(pull, u), span_eqs) for u in facets_c))

        # a generator tight on every facet lies in the lineality; any other
        # is extremal modulo the lineality when its tight facets have
        # corank one among all facets
        k = rank(facets_c)
        units, extremal = [], []
        for g, r in zip(gen_list, rays_c):
            tight = [u for u in facets_c if dot(u, r) == 0]
            if len(tight) == len(facets_c):
                units.append(g)
            elif rank(tight) == k - 1:
                extremal.append(g)
        if not units:
            return Cone(lattice, tuple(extremal), (), facets_amb, span_eqs, span_lat)

        # lift the primitive image of each extremal generator in the quotient
        # by the saturated lineality, and reduce it modulo the lineality;
        # every lift exists, as quot, the last rows of a unimodular matrix,
        # maps Z^n onto the quotient
        line_basis, _, quot = span_basis(units, n)
        lines = tuple(sublattice_from_vectors(lattice, line_basis).vectors())
        q_rays = sorted({primitive(matvec(quot, g)) for g in extremal})
        rays = [reduce_mod_rows(x, lines) for x in lift(quot, q_rays)]
        return Cone(lattice, tuple(sorted(rays)), lines, facets_amb, span_eqs, span_lat)

    @staticmethod
    def from_halfspaces(lattice: Lattice | int,
                        inequalities: Iterable[Sequence[int]],
                        equations: Iterable[Sequence[int]] = ()) -> "Cone":
        """{x : u.x >= 0 for u in inequalities, e.x = 0 for e in equations}.

        Each equation is the pair of inequalities e.x >= 0 and -e.x >= 0,
        and the cone is memoized, up to CONE_MEMO_SIZE entries, on the
        sorted, distinct, primitive, nonzero inequalities.
        """
        if not isinstance(lattice, Lattice):
            lattice = Lattice(lattice)
        return Cone._cut_out(lattice, _normalized(_both_signs(
            integer_rows("inequalities", inequalities), integer_rows("equations", equations))))

    @staticmethod
    @functools.lru_cache(maxsize=CONE_MEMO_SIZE)
    def _cut_out(lattice: Lattice, rows: tuple[Vector, ...]) -> "Cone":
        # When the rows have rank n the cone is pointed, and double
        # description gives its rays.  Otherwise its lineality is their
        # kernel.  One `span_basis` of them gives a basis of that kernel (its
        # equations rows) and coordinate rows C with C B = 1 on the saturated
        # basis B of their span, so every x is C^T B^T x plus a point of the
        # kernel, and (C u).(B^T x) = u.x: the cone is C^T of the pointed
        # cone {z : (C u).z >= 0} plus the lineality.  Either way one cone
        # is built, from the rays and lines.
        n = lattice.rank
        if rank(rows) == n:
            return Cone.from_generators(lattice, _extreme_rays(rows, n))
        _, coords, lines = span_basis(rows, n)
        back = transpose(coords)
        rays = _extreme_rays([matvec(coords, u) for u in rows], len(coords))
        return Cone.from_generators(lattice, _both_signs((matvec(back, z) for z in rays), lines))

    @staticmethod
    def zero(lattice: Lattice | int) -> "Cone":
        return Cone.from_generators(lattice, [])

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.lattice.rank - len(self.span_equations)

    @property
    def is_strictly_convex(self) -> bool:
        return not self.lines

    def generators(self) -> list[Vector]:
        return _both_signs(self.rays, self.lines)

    def contains(self, v: Sequence) -> bool:
        """v lies in the cone; its entries may be integers or Fractions."""
        _check_rational(v)
        return (not any(map(dot, self.span_equations, repeat(v)))
                and all(map(le, repeat(0), map(dot, self.facets, repeat(v)))))

    def relint_contains(self, v: Sequence) -> bool:
        """v lies in the relative interior; its entries may be integers or
        Fractions."""
        _check_rational(v)
        return (not any(map(dot, self.span_equations, repeat(v)))
                and all(map(lt, repeat(0), map(dot, self.facets, repeat(v)))))

    def interior_sample(self) -> Vector:
        if not self.rays:
            return (0,) * self.lattice.rank
        return tuple(map(sum, zip(*self.rays)))

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(g) for g in other.generators())

    def faces(self) -> list["Cone"]:
        """All faces (strictly convex only), sorted by dimension and rays."""
        if self.lines:
            raise ConeError("face enumeration requires a strictly convex cone")
        return list(self._faces)

    @functools.cached_property
    def _faces(self) -> tuple["Cone", ...]:
        # computed once per cone: the ray sets tight on some set of facets,
        # that is the closure of the facets' tight sets under intersection
        tight_sets = {frozenset(self.rays)}
        for u in self.facets:
            tight = frozenset(r for r in self.rays if dot(u, r) == 0)
            tight_sets |= {t & tight for t in tight_sets}
        faces = [Cone.from_generators(self.lattice, t) for t in tight_sets]
        return tuple(sorted(faces, key=lambda c: (c.dim, c.rays)))

    def __hash__(self):
        return hash((self.lattice, self.rays, self.lines))

    def __eq__(self, other):
        return (isinstance(other, Cone) and self.lattice == other.lattice
                and self.rays == other.rays and self.lines == other.lines)

    def __lt__(self, other):
        return (self.dim, self.rays, self.lines) < (other.dim, other.rays, other.lines)


# ---------------------------------------------------------------------------
# operations

def dual_cone(c: Cone) -> Cone:
    """{u : u.v >= 0 for all v in c} in the dual lattice, memoized on c up to
    CONE_MEMO_SIZE cones.

    It is read off the double description of c, with one `span_basis` of
    c's lines as its only elimination: the rays of the dual are the facets
    of c, its lines the span equations of c, its facets the rays of c and
    its span equations the lines of c.  Each is already in the canonical
    form that `Cone.from_generators` gives the dual: primitive vectors,
    sorted and reduced modulo the Hermite basis of the lineality of their
    cone, and the row Hermite bases of the two saturated lattices (the
    lineality of the dual is span(c)^⊥, and its span is the annihilator of
    the lineality of c).
    """
    return _dual(c)


@functools.lru_cache(maxsize=CONE_MEMO_SIZE)
def _dual(c: Cone) -> Cone:
    n = c.lattice.rank
    span = sublattice_from_vectors(c.lattice, span_basis(c.lines, n)[2])
    return Cone(c.lattice, c.facets, c.span_equations, c.rays, c.lines, span)


def intersect(a: Cone, b: Cone) -> Cone:
    if a.lattice != b.lattice:
        raise ConeError("cones live in different lattices")
    return Cone.from_halfspaces(a.lattice, a.facets + b.facets,
                                a.span_equations + b.span_equations)


def image_cone(f: LatticeMap, c: Cone) -> Cone:
    return Cone.from_generators(f.codomain, [f(g) for g in c.generators()])


def relint_owner(cones: Iterable[Cone], v: Sequence) -> Cone | None:
    """The first of `cones` whose relative interior holds v, or None."""
    return next((c for c in cones if c.relint_contains(v)), None)


def preimage_cone(f: LatticeMap, c: Cone) -> Cone:
    # pull the half-space description back along f
    ft = transpose(f.matrix)
    pulled_ineqs = [matvec(ft, u) for u in c.facets]
    pulled_eqs = [matvec(ft, e) for e in c.span_equations]
    return Cone.from_halfspaces(f.domain, pulled_ineqs, pulled_eqs)


def split_by_hyperplane(c: Cone, functional: Sequence[int]) -> tuple[Cone, Cone]:
    u = integer_vector("functional", functional)
    pos = Cone.from_halfspaces(c.lattice, c.facets + (u,), c.span_equations)
    neg = Cone.from_halfspaces(c.lattice, c.facets + (vec_neg(u),), c.span_equations)
    return pos, neg


def span_sublattice(c: Cone) -> Sublattice:
    """The saturated sublattice (ambient lattice intersect Span c)."""
    return c.span
