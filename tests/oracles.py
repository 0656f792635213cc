"""The Smith-form routines the library used before each lattice question got
its own elimination, kept as oracles for the routines that replaced them."""
import itertools

from semistable.cone import Cone, ConeError
from semistable.lattice import (
    INFINITE,
    det,
    dot,
    from_columns,
    is_zero_vec,
    kernel_basis,
    mat,
    primitive,
    smith_normal_form,
    solve_integer,
    sublattice_from_vectors,
    vec_neg,
)


def rank_of(vectors, n):
    """Rank of the vectors as rows, by Smith form."""
    if not vectors:
        return 0
    return smith_normal_form(mat(vectors)).rank if n else 0


def contains(sub, v):
    if sub.rank == 0:
        return is_zero_vec(v)
    return solve_integer(sub.basis, v) is not None


def lattice_index(inner, outer):
    if inner.ambient != outer.ambient:
        raise ValueError("sublattices have different ambient lattices")
    coords = []
    for c in inner.vectors():
        x = solve_integer(outer.basis, c)
        if x is None:
            raise ValueError("inner sublattice is not contained in the outer one")
        coords.append(x)
    if inner.rank < outer.rank:
        return INFINITE
    return abs(det(from_columns(coords, outer.rank)))


def right_inverse(a):
    """Integer right inverse of a surjective map, one solve per column."""
    m = len(a)
    cols = []
    for i in range(m):
        e = tuple(1 if j == i else 0 for j in range(m))
        x = solve_integer(a, e)
        if x is None:
            raise ValueError("matrix has no integer right inverse")
        cols.append(x)
    n = len(a[0]) if m else 0
    return from_columns(cols, n)


def saturate(s):
    if s.rank == 0:
        return s
    snf = smith_normal_form(s.basis)
    n = s.ambient.rank
    uinv = right_inverse(snf.U)
    cols = [tuple(uinv[i][j] for i in range(n)) for j in range(snf.rank)]
    return sublattice_from_vectors(s.ambient, cols)


def facets_fulldim(rays, d):
    """Facet normals of a full-dimensional cone: a kernel per (d-1)-subset."""
    if d == 0 or not rays:
        return []
    found = set()
    for subset in itertools.combinations(range(len(rays)), d - 1):
        if subset:
            kb = kernel_basis(mat([rays[i] for i in subset]))
        else:
            kb = [(1,)]
        if len(kb) != 1:
            continue
        u = primitive(kb[0])
        vals = [dot(u, r) for r in rays]
        if all(x <= 0 for x in vals):
            u = vec_neg(u)
            vals = [-x for x in vals]
        elif not all(x >= 0 for x in vals):
            continue
        tight = [rays[i] for i, x in enumerate(vals) if x == 0]
        if rank_of(tight, d) == d - 1:
            found.add(u)
    return sorted(found)


def faces(c):
    """Faces by every one of the 2^F facet subsets."""
    if c.lines:
        raise ConeError("face enumeration requires a strictly convex cone")
    seen = {}
    for k in range(len(c.facets) + 1):
        for subset in itertools.combinations(c.facets, k):
            rs = [r for r in c.rays if all(dot(u, r) == 0 for u in subset)]
            face = Cone.from_generators(c.lattice, rs)
            seen[face.rays] = face
    return sorted(seen.values(), key=lambda f: (f.dim, f.rays))
