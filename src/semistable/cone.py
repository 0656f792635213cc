"""Rational polyhedral cones with exact generator/half-space duality.

A cone is stored with both descriptions computed at construction time:
extremal rays (plus lineality generators when the cone contains lines),
irredundant facet normals, and integer equations cutting out the linear
span.  All conversions are exact.  Cones are immutable, and one memo of
CONE_MEMO_SIZE entries, keyed on the normalized generators, builds each once.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .lattice import (
    Lattice,
    LatticeMap,
    Matrix,
    Sublattice,
    Vector,
    det,
    dot,
    from_columns,
    identity,
    is_zero_vec,
    kernel_basis,
    mat,
    matmul,
    matvec,
    primitive,
    rank,
    row_hermite_form,
    saturate,
    smith_normal_form,
    solve_integer,
    sublattice_from_vectors,
    transpose,
    vec_neg,
)

# one operation builds at most 243 distinct cones, one benchmark pass 290
CONE_MEMO_SIZE = 1024


def _left_inverse(b: Matrix) -> Matrix:
    """P with P @ B = I for a saturated column basis B."""
    d = len(b[0]) if b else 0
    n = len(b)
    snf = smith_normal_form(b)
    # saturated basis => all invariant factors are 1
    head = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(d))
    return matmul(matmul(snf.V, head), snf.U)


def _reduce_mod_rows(v: Vector, rows: Matrix) -> Vector:
    """Deterministic representative of v modulo the row lattice of `rows`."""
    out = list(v)
    for row in row_hermite_form(rows):
        col = next((k for k, x in enumerate(row) if x != 0), None)
        if col is None:
            continue
        q = out[col] // row[col]
        if q:
            out = [x - q * y for x, y in zip(out, row)]
    return tuple(out)


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
    span_equations: integer equations cutting out the linear span.
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
        span_lat = saturate(sublattice_from_vectors(lattice, gen_list))
        span = span_lat.basis
        d = span_lat.rank
        if d == 0:
            return Cone(lattice, (), (), (), identity(n), span_lat)

        # equations of the span: integer functionals vanishing on it
        span_eqs = tuple(sorted(primitive(v) for v in kernel_basis(transpose(span))))

        proj = _left_inverse(span)  # coordinates inside the span
        rays_c = [matvec(proj, g) for g in gen_list]
        facets_c = _facets_fulldim(rays_c, d)

        # lineality inside the span: where every facet is tight, so none
        # when the facets have full rank
        if rank(facets_c) == d:
            lin_c = []
        else:
            lin_c = kernel_basis(mat(facets_c)) if facets_c else list(identity(d))

        if not lin_c:
            extremal = []
            for r in rays_c:
                tight = [u for u in facets_c if dot(u, r) == 0]
                if rank(tight) >= d - 1:
                    extremal.append(r)
            rays_amb = sorted(primitive(matvec(span, r)) for r in extremal)
            lines_amb: tuple[Vector, ...] = ()
        else:
            # quotient out the lineality, take extremal rays there, lift back
            lin_mat = from_columns(lin_c, d)
            snf = smith_normal_form(lin_mat)
            l = snf.rank
            quot = snf.U[l:]  # kernel is exactly the (saturated) lineality
            if len(quot) == 0:
                rays_amb = []
            else:
                q_rays = [matvec(quot, r) for r in rays_c]
                q_rays = sorted({primitive(r) for r in q_rays if not is_zero_vec(r)})
                q_facets = _facets_fulldim(q_rays, d - l)
                extremal_q = []
                for r in q_rays:
                    tight = [u for u in q_facets if dot(u, r) == 0]
                    if rank(tight) >= d - l - 1:
                        extremal_q.append(r)
                rays_amb = []
                lin_rows = mat([matvec(span, c) for c in lin_c])
                for r in extremal_q:
                    x = solve_integer(quot, r)
                    assert x is not None
                    amb = matvec(span, x)
                    rays_amb.append(_reduce_mod_rows(amb, lin_rows))
                rays_amb = sorted(set(rays_amb))
            lines_sub = sublattice_from_vectors(lattice, [matvec(span, c) for c in lin_c])
            lines_amb = tuple(lines_sub.vectors())

        facets_amb = tuple(
            sorted(primitive(_reduce_mod_rows(matvec(transpose(proj), u), mat(span_eqs) if span_eqs else ()))
                   for u in facets_c)
        )
        return Cone(lattice, tuple(rays_amb), lines_amb, facets_amb, span_eqs, span_lat)

    @staticmethod
    def from_halfspaces(lattice: Lattice | int,
                        inequalities: Iterable[Sequence[int]],
                        equations: Iterable[Sequence[int]] = ()) -> "Cone":
        """{x : u.x >= 0 for u in inequalities, e.x = 0 for e in equations}."""
        if isinstance(lattice, int):
            lattice = Lattice(lattice)
        n = lattice.rank
        dual_gens: list[Vector] = [tuple(u) for u in inequalities]
        for e in equations:
            dual_gens.append(tuple(e))
            dual_gens.append(vec_neg(e))
        dual = Cone.from_generators(lattice, dual_gens)
        gens = list(dual.facets)
        for e in dual.span_equations:
            gens.append(e)
            gens.append(vec_neg(e))
        return Cone.from_generators(lattice, gens)

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
        out = list(self.rays)
        for l in self.lines:
            out.append(l)
            out.append(vec_neg(l))
        return out

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
        """All faces (strictly convex only): the ray sets tight on some set
        of facets, that is the closure of the facets' tight sets under
        intersection, each built once."""
        if self.lines:
            raise ConeError("face enumeration requires a strictly convex cone")
        tight_sets = {frozenset(self.rays)}
        for u in self.facets:
            tight = frozenset(r for r in self.rays if dot(u, r) == 0)
            tight_sets |= {t & tight for t in tight_sets}
        faces = [Cone.from_generators(self.lattice, t) for t in tight_sets]
        return sorted(faces, key=lambda c: (c.dim, c.rays))

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
    gens = list(c.facets)
    for e in c.span_equations:
        gens.append(e)
        gens.append(vec_neg(e))
    return Cone.from_generators(Lattice(c.lattice.rank), gens)


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
