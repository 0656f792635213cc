"""Rational polyhedral cones with exact generator/half-space duality.

A cone is stored with both descriptions computed at construction time:
extremal rays (plus lineality generators when the cone contains lines),
irredundant facet normals, and integer equations cutting out the linear
span.  All conversions are exact.  Cones are immutable, and one memo of
CONE_MEMO_SIZE entries, keyed on the normalized generators, builds each once;
each cone enumerates its faces once, on the first call to `faces`.

One construction, `Cone._build`, answers every question about a cone with
the elimination it needs: one Smith form of the generators (`span_basis`)
gives the span lattice, coordinates in it and the span equations (kept in
row Hermite form); facet normals come from signed minors in those
coordinates; extremal rays and the lineality are read off the generators'
tight facets by Bareiss rank; a cone with lines takes one more Smith form
for its lineality quotient and one `lift` for all its rays.
`from_halfspaces` is the dual of a cone built from generators.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .lattice import (
    Lattice,
    LatticeMap,
    Sublattice,
    Vector,
    det,
    dot,
    is_zero_vec,
    lift,
    matvec,
    primitive,
    rank,
    reduce_mod_rows,
    row_hermite_form,
    span_basis,
    sublattice_from_vectors,
    transpose,
    vec_neg,
)

# one operation builds at most 243 distinct cones, one benchmark pass 290
CONE_MEMO_SIZE = 1024


def _both_signs(vectors: Iterable[Sequence[int]], lines: Iterable[Sequence[int]]) -> list[Vector]:
    """The vectors, then each of `lines` in both directions."""
    out = [tuple(v) for v in vectors]
    for l in lines:
        out += [tuple(l), vec_neg(l)]
    return out


def _facets_fulldim(rays: Sequence[Vector], d: int) -> list[Vector]:
    """Irredundant facet normals of a full-dimensional cone in Z^d."""
    if d == 0 or not rays:
        return []
    found: set[Vector] = set()
    for subset in itertools.combinations(range(len(rays)), d - 1):
        # the signed (d-1)-minors span the kernel of the subset, and all
        # vanish exactly when its rank is below d - 1
        sub = [rays[i] for i in subset]
        u = primitive(tuple((-1) ** k * det(tuple(r[:k] + r[k + 1:] for r in sub))
                            for k in range(d)))
        if is_zero_vec(u):
            continue
        vals = [dot(u, r) for r in rays]
        if all(x <= 0 for x in vals):
            u = vec_neg(u)
            vals = [-x for x in vals]
        elif not all(x >= 0 for x in vals):
            continue
        tight = [rays[i] for i, x in enumerate(vals) if x == 0]
        if rank(tight) == d - 1:
            found.add(u)
    return sorted(found)


class ConeError(ValueError):
    pass


@dataclass(frozen=True)
class Cone:
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
    span: Sublattice = field(repr=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_generators(lattice: Lattice | int, gens: Iterable[Sequence[int]]) -> "Cone":
        if isinstance(lattice, int):
            lattice = Lattice(lattice)
        return Cone._build(lattice, tuple(sorted({primitive(g) for g in gens if not is_zero_vec(g)})))

    @staticmethod
    @functools.lru_cache(maxsize=CONE_MEMO_SIZE)
    def _build(lattice: Lattice, gen_list: tuple[Vector, ...]) -> "Cone":
        n = lattice.rank
        basis, coords, eqs = span_basis(gen_list, n)
        span_lat = sublattice_from_vectors(lattice, basis)
        span_eqs = row_hermite_form(eqs)
        d = len(basis)
        if d == 0:
            return Cone(lattice, (), (), (), span_eqs, span_lat)

        # full-dimensional in the coordinates of its span
        rays_c = [matvec(coords, g) for g in gen_list]
        facets_c = _facets_fulldim(rays_c, d)
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
        # by the saturated lineality, and reduce it modulo the lineality
        line_basis, _, quot = span_basis(units, n)
        lines = tuple(sublattice_from_vectors(lattice, line_basis).vectors())
        q_rays = sorted({primitive(matvec(quot, g)) for g in extremal})
        rays = []
        for r, x in zip(q_rays, lift(quot, q_rays)):
            if x is None:
                raise ConeError(f"no lift of the ray {r} from the lineality quotient")
            rays.append(reduce_mod_rows(x, lines))
        return Cone(lattice, tuple(sorted(rays)), lines, facets_amb, span_eqs, span_lat)

    @staticmethod
    def from_halfspaces(lattice: Lattice | int,
                        inequalities: Iterable[Sequence[int]],
                        equations: Iterable[Sequence[int]] = ()) -> "Cone":
        """{x : u.x >= 0 for u in inequalities, e.x = 0 for e in equations}."""
        return dual_cone(Cone.from_generators(lattice, _both_signs(inequalities, equations)))

    @staticmethod
    def zero(lattice: Lattice | int) -> "Cone":
        if isinstance(lattice, int):
            lattice = Lattice(lattice)
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
        return (all(dot(e, v) == 0 for e in self.span_equations)
                and all(dot(u, v) >= 0 for u in self.facets))

    def relint_contains(self, v: Sequence) -> bool:
        return (all(dot(e, v) == 0 for e in self.span_equations)
                and all(dot(u, v) > 0 for u in self.facets))

    def interior_sample(self) -> Vector:
        n = self.lattice.rank
        out = [0] * n
        for r in self.rays:
            out = [x + y for x, y in zip(out, r)]
        return tuple(out)

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
    """{u : u.v >= 0 for all v in c} in the dual lattice."""
    return Cone.from_generators(Lattice(c.lattice.rank), _both_signs(c.facets, c.span_equations))


def intersect(a: Cone, b: Cone) -> Cone:
    if a.lattice != b.lattice:
        raise ConeError("cones live in different lattices")
    return Cone.from_halfspaces(a.lattice, a.facets + b.facets,
                                a.span_equations + b.span_equations)


def image_cone(f: LatticeMap, c: Cone) -> Cone:
    return Cone.from_generators(f.codomain, [f(g) for g in c.generators()])


def preimage_cone(f: LatticeMap, c: Cone) -> Cone:
    # pull the half-space description back along f
    ft = transpose(f.matrix)
    pulled_ineqs = [tuple(dot(u, row) for row in ft) for u in c.facets]
    pulled_eqs = [tuple(dot(e, row) for row in ft) for e in c.span_equations]
    return Cone.from_halfspaces(f.domain, pulled_ineqs, pulled_eqs)


def split_by_hyperplane(c: Cone, functional: Sequence[int]) -> tuple[Cone, Cone]:
    u = tuple(functional)
    pos = Cone.from_halfspaces(c.lattice, c.facets + (u,), c.span_equations)
    neg = Cone.from_halfspaces(c.lattice, c.facets + (vec_neg(u),), c.span_equations)
    return pos, neg


def span_sublattice(c: Cone) -> Sublattice:
    """The saturated sublattice (ambient lattice intersect Span c)."""
    return c.span
