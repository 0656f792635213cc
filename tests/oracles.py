"""The Smith-form routines the library used before each lattice question got
its own elimination, kept as oracles for the routines that replaced them:
kernels of stacked bases for intersections and preimages, a left inverse
for span coordinates, and a second facet pass in the quotient by the
lineality for the rays of a cone with lines.  Also the maximal cones of a
fan by every pair, and the cut of a source cell of `reduce_complex` by
every piece of its target subdivision, which the cut by the maximal pieces
replaced, the Hilbert basis by a scan of a box of candidates, which the
fundamental parallelepipeds of a triangulation replaced, and the integer
solve by a Smith form and the rational solve by Gauss-Jordan elimination,
which one Hermite form per `lift` and the Hermite coordinates replaced, and
the toric fiber product from every pair of source cones, which the maximal
pairs replaced.  And the facets of a cone from a kernel per (d-1)-subset of
its rays, and the cone cut out by inequalities as the dual of the cone they
generate, which integer double description replaced in both directions.
And the vector kernel entry by entry (`dot`, `matvec`, `matmul`,
`is_zero_vec` and `primitive` as generator expressions and a running gcd),
which sums over `map(operator.mul, ...)`, `any` and one `math.gcd` replaced,
and `mat` with its `int()` of every entry, `vec_add`, `vec_sub`, `vec_neg`,
`identity`, cone membership and a cone's interior sample as generator
expressions and loops, which `map` over `operator` functions replaced,
the dual cone built from the facets and span equations, which reading it
off the cone's double description replaced,
and `validate_complex` with its composite check on every (gluing, face of
the glued face) pair, which the pairs of codimension at most one replaced.
And a complex's gluings looked up by a scan over all of them, which two
indexes per complex replaced.  And the cartesian check with every dual
monoid, dual map, pushout lattice and restriction recomputed for each pair
of cones and each pair of test points, which the memoized dual monoids,
the data of one call and the restriction of each test point once replaced.
And the pushout monoid of two monoid maps, support membership by a scan
over the cones of a fan, the column Hermite form of a matrix without the
memo and semistability of a morphism, which no library code calls but the
tests use as references.  And, for each `Record` class, the frozen dataclass
with the same fields and defaults, whose generated methods `Record`
replaced.  And the image of every source cone or cell mapped again on each
call, the target cone of a source cone found by a scan of the assignment,
and the three scans for the cone whose relative interior holds a point (the
smallest fan cone holding a cone, the owner face of a point of a cell and
the piece a source part lands in), which the images and the assignment a
morphism keeps and the one lookup `relint_owner` replaced.  And the face
agreement check of `reduce_complex` on every gluing, each piece inside the
glued face found by a containment scan, which the walk of
`_assemble_complex` through the gluing of each piece's owner face
replaced.  And the target-cell step of `reduce_complex` that moved points
instead of images: every labelled point carried through the gluing of its
owner face into each assigned cell, and every functional of every image
pulled back through every pair of gluings that share a chart, which the
source images moved into each target cell once replaced.  And the checks
of `reduce_complex` as they ran before each did its work once: the
gluings of `validate_complex` checked on image cones (the every-face form
above builds them), the morphism's maps compared vector by vector on each
glued face, the lattice points of every cell compared, faces included,
which the certificate of each maximal cell and the restriction of its
sublattices to its faces replaced, and the coverage of each source cell by
its parts, which the coverage of each target cell by its maximal pieces
replaced."""
import dataclasses
import functools
import itertools
import math
from fractions import Fraction

from semistable.cone import (
    Cone,
    ConeError,
    dual_cone,
    image_cone,
    intersect,
    preimage_cone,
    span_sublattice,
)
from semistable.conecomplex import ComplexMorphism, _CellRun, _key, _owner_face, _retraction
from semistable.fan import (
    PUSHOUT_TEST_LENGTH,
    CartesianReport,
    Fan,
    FanError,
    ValidationReport,
    WeakSemistabilityReport,
    covers,
    is_smooth_fan,
    is_weakly_semistable,
)
from semistable.lattice import (
    INFINITE,
    Lattice,
    LatticeMap,
    Sublattice,
    det,
    dot,
    dual_map,
    fiber_product_lattice,
    from_columns,
    full_sublattice,
    hstack,
    identity,
    image_lattice,
    is_zero_vec,
    kernel_basis,
    mat,
    matmul,
    matvec,
    primitive,
    pushout_lattice,
    row_hermite_form,
    saturate as lattice_saturate,
    smith_normal_form,
    sublattice_from_vectors,
    transpose,
    vec_neg,
    zero_sublattice,
)
from semistable.monoid import (
    AffineMonoid,
    MonoidError,
    MonoidMap,
    _as_sublattice,
    _bounded_points,
    _check_budget,
    _contains_modulo_units,
    _dual_monoid,
    hilbert_basis,
    image_monoid_equals_cone_monoid,
    integral_by_flatness,
)
from semistable.reduction import ReductionError, refine_cell


def solve_integer(a, b):
    """One integer solution x of A x = b, or None if there is none."""
    m = len(a)
    if len(b) != m:
        raise ValueError(f"vector of length {len(b)} for a matrix with {m} rows")
    snf = smith_normal_form(a)
    n = len(a[0]) if m else 0
    c = matvec(snf.U, b)
    y = [0] * n
    for i in range(m):
        d = snf.D[i][i] if i < n else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return matvec(snf.V, y)


def solve_rational(a, b):
    """One rational solution x of A x = b, free variables set to zero, or
    None if there is none."""
    m = len(a)
    n = len(a[0]) if m else 0
    if any(Fraction(y) != 0 for y in b[m:]):
        return None
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(rows[i][n] != 0 for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return tuple(x)


def smallest_multiple_coords(basis_cols, ray):
    """Coordinates (in the basis) of the smallest positive multiple of
    `ray` lying in the column lattice of basis_cols, by a rational solve."""
    y = solve_rational(basis_cols, ray)
    if y is None:
        raise ValueError("ray does not lie in the span of the lattice")
    k = math.lcm(*(x.denominator for x in y))
    return tuple(int(x * k) for x in y)


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


def from_halfspaces(lattice, inequalities, equations=()):
    """The cone cut out by the inequalities and equations, as the dual of
    the cone they generate."""
    return dual_cone(Cone.from_generators(
        lattice, [tuple(u) for u in inequalities]
        + [w for e in equations for w in (tuple(e), vec_neg(e))]))


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


def intersect_sublattices(a, b):
    """a ∩ b from the Smith-form kernel of the stacked bases (a | -b)."""
    if a.ambient != b.ambient:
        raise ValueError("sublattices have different ambient lattices")
    ka, kb = a.rank, b.rank
    if ka == 0 or kb == 0:
        return sublattice_from_vectors(a.ambient, [])
    neg_b = tuple(tuple(-x for x in row) for row in b.basis)
    stacked = hstack(a.basis, neg_b)
    vecs = [matvec(a.basis, v[:ka]) for v in kernel_basis(stacked)]
    return sublattice_from_vectors(a.ambient, vecs)


def preimage_sublattice(f, s):
    """f^-1(s) from the Smith-form kernel of (f | -basis of s)."""
    if s.ambient != f.codomain:
        raise ValueError("sublattice does not live in the codomain")
    n = f.domain.rank
    if f.codomain.rank == 0:
        return full_sublattice(f.domain)
    if s.rank == 0:
        return sublattice_from_vectors(f.domain, kernel_basis(f.matrix))
    neg_b = tuple(tuple(-x for x in row) for row in s.basis)
    stacked = hstack(f.matrix, neg_b)
    return sublattice_from_vectors(f.domain, [v[:n] for v in kernel_basis(stacked)])


def smith_saturate(s):
    """Saturation by exact division of B V, B the Hermite basis of s."""
    if s.rank == 0:
        return s
    snf = smith_normal_form(s.basis)
    bv = matmul(s.basis, snf.V)
    cols = [tuple(row[j] // d for row in bv)
            for j, d in enumerate(snf.invariant_factors)]
    return sublattice_from_vectors(s.ambient, cols)


def left_inverse(b):
    """P with P @ B = I for a saturated column basis B."""
    d = len(b[0]) if b else 0
    n = len(b)
    snf = smith_normal_form(b)
    head = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(d))
    return matmul(matmul(snf.V, head), snf.U)


def reduce_mod_rows(v, rows):
    out = list(v)
    for row in row_hermite_form(rows):
        col = next(k for k, x in enumerate(row) if x != 0)
        q = out[col] // row[col]
        if q:
            out = [x - q * y for x, y in zip(out, row)]
    return tuple(out)


def cone_data(n, gens):
    """(rays, lines, facets, span equations) of the cone the generators span:
    coordinates by a left inverse of the saturated span, the lineality as
    the kernel of the facets, and the rays of a cone with lines from a second
    facet pass in the quotient by the lineality, lifted by solve_integer."""
    lattice = Lattice(n)
    gen_list = sorted({primitive(g) for g in gens if not is_zero_vec(g)})
    span = smith_saturate(sublattice_from_vectors(lattice, gen_list)).basis
    d = len(span[0]) if span and span[0] else 0
    if d == 0:
        return (), (), (), identity(n)
    span_eqs = tuple(sorted(primitive(v) for v in kernel_basis(transpose(span))))
    proj = left_inverse(span)
    rays_c = [matvec(proj, g) for g in gen_list]
    facets_c = facets_fulldim(rays_c, d)
    if rank_of(facets_c, d) == d:
        lin_c = []
    else:
        lin_c = kernel_basis(mat(facets_c)) if facets_c else list(identity(d))
    if not lin_c:
        rays = sorted(primitive(matvec(span, r)) for r in rays_c
                      if rank_of([u for u in facets_c if dot(u, r) == 0], d) >= d - 1)
        lines = ()
    else:
        snf = smith_normal_form(from_columns(lin_c, d))
        l = snf.rank
        quot = snf.U[l:]
        lin_rows = mat([matvec(span, c) for c in lin_c])
        rays = set()
        if quot:
            q_rays = sorted({primitive(matvec(quot, r)) for r in rays_c} - {(0,) * (d - l)})
            q_facets = facets_fulldim(q_rays, d - l)
            for r in q_rays:
                if rank_of([u for u in q_facets if dot(u, r) == 0], d - l) >= d - l - 1:
                    x = solve_integer(quot, r)
                    rays.add(reduce_mod_rows(matvec(span, x), lin_rows))
        rays = sorted(rays)
        lines = tuple(sublattice_from_vectors(
            lattice, [matvec(span, c) for c in lin_c]).vectors())
    facets = sorted(primitive(reduce_mod_rows(matvec(transpose(proj), u), mat(span_eqs)))
                    for u in facets_c)
    return tuple(rays), lines, tuple(facets), span_eqs


def box_hilbert_basis(c, L=None):
    """Minimal generating set of c ∩ L, lex sorted, from every lattice point
    of the box around the zonotope spanned by the smallest lattice
    multiples of the extremal rays.  Raises BudgetExceeded when the box
    holds more than SEARCH_BUDGET points."""
    if not c.is_strictly_convex:
        raise ConeError("hilbert basis requires a strictly convex cone")
    L = _as_sublattice(L, c.lattice)
    if c.dim == 0:
        return []
    M = intersect_sublattices(L, c.span)
    d = M.rank
    if d == 0:
        return []
    cols = M.vectors()
    facets_t = [tuple(dot(u, col) for col in cols) for u in c.facets]
    f_t = tuple(sum(u[j] for u in facets_t) for j in range(d))
    ray_coords = [smallest_multiple_coords(M.basis, r) for r in c.rays]
    bound = sum(dot(f_t, rc) for rc in ray_coords)
    lo = [0] * d
    hi = [0] * d
    for rc in ray_coords:
        fr = dot(f_t, rc)
        for j in range(d):
            v = Fraction(bound * rc[j], fr)
            lo[j] = min(lo[j], v)
            hi[j] = max(hi[j], v)
    ranges = [range(math.floor(lo[j]), math.ceil(hi[j]) + 1) for j in range(d)]
    _check_budget(math.prod(len(r) for r in ranges), "the Hilbert basis candidate box")
    candidates = sorted((t for t in itertools.product(*ranges)
                         if any(t) and dot(f_t, t) <= bound
                         and all(dot(u, t) >= 0 for u in facets_t)),
                        key=lambda t: (dot(f_t, t), t))
    irreducible = []
    for t in candidates:
        ft = dot(f_t, t)
        if not any(all(dot(u, t) - dot(u, s) >= 0 for u in facets_t)
                   for s in itertools.takewhile(lambda s: dot(f_t, s) < ft, candidates)):
            irreducible.append(t)
    return sorted(matvec(M.basis, t) for t in irreducible)


def monoid_generators_of_cone(c, L, hilbert=hilbert_basis):
    """Generators of c ∩ L for a cone with lines: the points of L in the
    lineality in both signs, and lifts of the `hilbert` basis in the
    quotient by the Smith form of the lines, by Smith-form solves and
    reduced modulo the Hermite basis of those points, with Smith-kernel
    intersections."""
    n = c.lattice.rank
    units = intersect_sublattices(L, sublattice_from_vectors(c.lattice, c.lines)).vectors()
    snf = smith_normal_form(from_columns(list(c.lines), n))
    qmat = snf.U[snf.rank:]
    if not qmat:
        return sorted(set(units + [vec_neg(u) for u in units]))
    q = LatticeMap(c.lattice, Lattice(len(qmat)), qmat)
    ls = intersect_sublattices(L, smith_saturate(
        sublattice_from_vectors(c.lattice, c.generators())))
    q_ls = sublattice_from_vectors(q.codomain, [q(v) for v in ls.vectors()])
    qc = Cone.from_generators(q.codomain, [q(g) for g in c.generators()])
    lift = transpose(mat([q(v) for v in ls.vectors()]))
    lifts = [reduce_mod_rows(matvec(ls.basis, solve_integer(lift, h)), units)
             for h in hilbert(qc, q_ls)]
    return sorted(set(units + [vec_neg(u) for u in units] + lifts))


def cut_by_all_pieces(sigma, pmap, pieces):
    """sigma cut by the preimage of every piece, faces of pieces included."""
    return Fan.from_cones(sigma.lattice, [intersect(preimage_cone(pmap, piece), sigma)
                                          for piece in pieces]).cones


def maximal_cones(f):
    """The cones of f inside no other cone, by every pair, in fan order."""
    return [c for c in f.cones if not any(o != c and o.contains_cone(c) for o in f.cones)]


def every_pair_fiber_product(p, q):
    """The fiber product fan of p and q from the fiber cone of every pair of
    source cones that is strictly convex."""
    _, pn, pl = fiber_product_lattice(p.lattice_map, q.lattice_map)
    cones = [intersect(preimage_cone(pn, sigma), preimage_cone(pl, lam))
             for sigma in p.source.cones for lam in q.source.cones]
    return Fan.from_cones(pn.domain, [c for c in cones if c.is_strictly_convex])


def entrywise_dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def entrywise_matvec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def entrywise_matmul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def entrywise_vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def entrywise_vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def entrywise_vec_neg(v):
    return tuple(-x for x in v)


def coercing_mat(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


def entrywise_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def entrywise_contains(c, v):
    return (all(entrywise_dot(e, v) == 0 for e in c.span_equations)
            and all(entrywise_dot(u, v) >= 0 for u in c.facets))


def entrywise_relint_contains(c, v):
    return (all(entrywise_dot(e, v) == 0 for e in c.span_equations)
            and all(entrywise_dot(u, v) > 0 for u in c.facets))


def entrywise_interior_sample(c):
    out = [0] * c.lattice.rank
    for r in c.rays:
        out = [x + y for x, y in zip(out, r)]
    return tuple(out)


def dual_cone_by_generators(c):
    """The dual cone built afresh from its generators, past the cone memo."""
    gens = list(c.facets) + [v for e in c.span_equations for v in (e, tuple(-x for x in e))]
    return Cone._build.__wrapped__(Lattice(c.lattice.rank), tuple(sorted(set(gens))))


def entrywise_is_zero_vec(v):
    return all(x == 0 for x in v)


def entrywise_primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    if g <= 1:
        return tuple(int(x) for x in v)
    return tuple(int(x) // g for x in v)


def validate_complex_every_face(cx):
    """`validate_complex` with each gluing checked on the image cone of
    its chart and the composite check on every face of every glued face,
    each chart counterpart found by an image cone."""
    bad = []
    for i, c in enumerate(cx.cells):
        if not c.is_strictly_convex:
            bad.append(f"cell {i} is not strictly convex")
    if bad:
        return ValidationReport(tuple(bad))

    faces = [c.faces() for c in cx.cells]
    by_occurrence = {}
    for g in cx.gluings:
        c = cx.cells[g.cell]
        if g.face not in faces[g.cell]:
            bad.append(f"gluing on cell {g.cell} names {g.face.rays}, "
                       "which is not a face of the cell")
            continue
        occ = (g.cell, _key(g.face))
        if occ in by_occurrence:
            bad.append(f"face {g.face.rays} of cell {g.cell} is glued twice")
        by_occurrence[occ] = g

        e = g.embedding
        if e.domain != cx.cells[g.chart].lattice or e.codomain != c.lattice:
            bad.append(f"embedding for face {g.face.rays} of cell {g.cell} "
                       "connects the wrong lattices")
            continue
        if g.retraction is None:
            image = image_lattice(e)
            if image.rank != e.domain.rank:
                bad.append(f"embedding into cell {g.cell} is not injective")
            if lattice_saturate(image).basis != image.basis:
                bad.append(f"embedding into cell {g.cell} has a non-saturated image")
        if image_cone(e, cx.cells[g.chart]) != g.face:
            bad.append(f"chart {g.chart} does not map onto face "
                       f"{g.face.rays} of cell {g.cell}")

    for i, c in enumerate(cx.cells):
        for face in faces[i]:
            if (i, _key(face)) not in by_occurrence:
                bad.append(f"face {face.rays} of cell {i} is not glued")
    if bad:
        return ValidationReport(tuple(bad))

    for g in cx.gluings:
        e = g.embedding
        for h in g.face.faces():
            direct = by_occurrence[(g.cell, _key(h))]
            step = by_occurrence[(g.chart, _key(image_cone(g.retraction, h)))]
            if step.chart != direct.chart:
                bad.append(f"cell {g.cell}, face {h.rays}: gluing through chart "
                           f"{g.chart} reaches cell {step.chart}, "
                           f"directly it reaches {direct.chart}")
                continue
            if matmul(e.matrix, step.embedding.matrix) != direct.embedding.matrix:
                bad.append(f"cell {g.cell}, face {h.rays}: composite gluing "
                           "disagrees with the direct one")
    return ValidationReport(tuple(bad))


def validate_complex_morphism_by_vectors(m):
    """`validate_complex_morphism` with both sides of each gluing applied
    to every basis vector of the chart's span, four products a vector."""
    bad = []
    for g in m.source.gluings:
        i, j, e = g.cell, g.chart, g.embedding
        kappa, lam = m.assignment[i], m.assignment[j]
        span = span_sublattice(m.source.cells[j]).vectors()
        if not any(all(matvec(m.cell_maps[i].matrix, matvec(e.matrix, v)) ==
                       matvec(tg.embedding.matrix, matvec(m.cell_maps[j].matrix, v))
                       for v in span)
                   for tg in m.target.gluings_of(kappa, lam)):
            bad.append(f"maps of cells {i} and {j} disagree on the face "
                       f"{g.face.rays}")
    return ValidationReport(tuple(bad))


def complex_weak_semistability_every_cell(m, source_sublattices=None,
                                          target_sublattices=None):
    """`complex_weak_semistability` with the lattice points of every cell,
    faces included, compared by `image_monoid_equals_cone_monoid`."""
    if source_sublattices is None:
        source_sublattices = [full_sublattice(c.lattice) for c in m.source.cells]
    if target_sublattices is None:
        target_sublattices = [full_sublattice(c.lattice) for c in m.target.cells]
    failures = []
    for s, sigma in enumerate(m.source.cells):
        t = m.assignment[s]
        cell = m.target.cells[t]
        img = m.images[s]
        if img not in cell.faces():
            failures.append((sigma, 1,
                             f"image of cell {s} is not a face of its target cell"))
            continue
        if img == cell:
            q_sub = target_sublattices[t]
        else:
            gl = m.target.gluing_for(t, img)
            q_sub = image_lattice(gl.embedding, target_sublattices[gl.chart])
        try:
            ok = image_monoid_equals_cone_monoid(m.cell_maps[s], sigma, img,
                                                 source_sublattices[s], q_sub)
        except MonoidError as exc:
            failures.append((sigma, 2, f"cell {s}: {exc}"))
            continue
        if not ok:
            failures.append((sigma, 2,
                             f"lattice points of cell {s} do not cover the "
                             "lattice points of its image"))
    return WeakSemistabilityReport(tuple(failures))


def uncovered_source_cells(m, parts):
    """The source cells s whose parts `parts[s]`, as `reduce_complex` cuts
    them, miss part of the cell, each checked by `covers`."""
    return [s for s, sigma in enumerate(m.source.cells) if not covers(sigma, parts[s])]


def gluing_for_scan(cx, cell, face):
    """The first gluing of `face` of cell `cell`, found by a scan."""
    for g in cx.gluings:
        if g.cell == cell and g.face == face:
            return g
    return None


def gluings_of_scan(cx, cell, chart):
    """The gluings of cell `cell` from chart `chart`, in order, by a scan."""
    return [g for g in cx.gluings if g.cell == cell and g.chart == chart]


def support_contains(f, v):
    """v lies in some cone of the fan f."""
    return any(c.contains(v) for c in f.cones)


def pushout_monoid(u, v):
    """Image of M ⊕ L in the pushout of the underlying lattices."""
    if u.source != v.source:
        raise MonoidError("pushout requires a shared source monoid")
    po = pushout_lattice(u.lattice_map, v.lattice_map)
    gens = [po.inc_left(g) for g in u.target.generators]
    gens += [po.inc_right(g) for g in v.target.generators]
    return AffineMonoid(po.lattice, tuple(gens))


# the dual monoid computed afresh, past the library's memo
dual_monoid = _dual_monoid.__wrapped__


def cartesian_check_per_pair(p, q):
    """`cartesian_check` with everything recomputed for each entry."""
    if p.target != q.target:
        raise FanError("cartesian check requires a shared target")
    fib, pn, pl = fiber_product_lattice(p.lattice_map, q.lattice_map)
    entries = []
    for sigma in p.source.cones:
        kappa = p.image_of(sigma)
        for lam in q.source.cones:
            if q.image_of(lam) != kappa:
                continue
            ok, reason = cartesian_triple_per_pair(p.lattice_map, q.lattice_map,
                                                   sigma, kappa, lam, fib, pn, pl)
            entries.append((sigma, kappa, lam, ok, reason))
    return CartesianReport(tuple(sorted(
        entries, key=lambda t: (t[0].dim, t[0].rays, t[2].dim, t[2].rays))))


def cartesian_triple_per_pair(p, q, sigma, kappa, lam, fib, pn, pl):
    m_sigma = dual_monoid(sigma)
    m_kappa = dual_monoid(kappa)
    m_lambda = dual_monoid(lam)
    u = MonoidMap(m_kappa, m_sigma, dual_map(p))
    v = MonoidMap(m_kappa, m_lambda, dual_map(q))
    po = pushout_lattice(u.lattice_map, v.lattice_map)
    if po.torsion_order != 1:
        return False, f"pushout of dual lattices has torsion of order {po.torsion_order}"

    fc = intersect(preimage_cone(pn, sigma), preimage_cone(pl, lam))
    dm = dual_monoid(fc)
    if po.lattice.rank != fib.rank:
        return False, "pushout rank does not match the fiber rank"

    pn_t = transpose(pn.matrix)
    pl_t = transpose(pl.matrix)

    def phi(m_elt, l_elt):
        a = tuple(dot(row, m_elt) for row in pn_t)
        b = tuple(dot(row, l_elt) for row in pl_t)
        return tuple(x + y for x, y in zip(a, b))

    mapped = [phi(g, (0,) * q.domain.rank) for g in m_sigma.generators]
    mapped += [phi((0,) * p.domain.rank, g) for g in m_lambda.generators]
    for g in mapped:
        if not dm.contains(g):
            return False, "pushout monoid escapes the fiber dual monoid"
    if dm.saturation_cone.is_strictly_convex:
        larger = not set(dm.generators) <= set(mapped)
    else:
        larger = not all(_contains_modulo_units(g, mapped, dm.lattice)
                         for g in dm.generators)
    if larger:
        return False, "fiber dual monoid is strictly larger than the pushout monoid"

    if integral_by_flatness(u) or integral_by_flatness(v):
        return True, ""
    if not pushout_injective_every_pair(u, v, phi):
        return False, "canonical map identifies distinct pushout classes"
    return True, ""


def pushout_injective_every_pair(u, v, phi):
    """The bounded pushout class search with phi evaluated on every pair of
    test points."""
    M, L = u.target, v.target
    m_test, _ = _bounded_points(M.lattice.rank, M.generators, [1] * len(M.generators),
                                PUSHOUT_TEST_LENGTH)
    l_test, _ = _bounded_points(L.lattice.rank, L.generators, [1] * len(L.generators),
                                PUSHOUT_TEST_LENGTH)
    moves = [(tuple(u(g)), tuple(v(g))) for g in u.source.generators]

    groups = {}
    for m in m_test:
        for l in l_test:
            groups.setdefault(phi(m, l), []).append((m, l))

    for members in groups.values():
        if len(members) < 2:
            continue
        targets = set(members)
        start = members[0]
        seen = {start}
        frontier = [start]
        found = {start}
        while frontier and len(found) < len(targets):
            nxt = []
            for m, l in frontier:
                for a, b in moves:
                    for cand in (
                        (tuple(x - y for x, y in zip(m, a)),
                         tuple(x + y for x, y in zip(l, b))),
                        (tuple(x + y for x, y in zip(m, a)),
                         tuple(x - y for x, y in zip(l, b))),
                    ):
                        cm, cl = cand
                        if cand not in seen and M.contains(cm) and L.contains(cl):
                            seen.add(cand)
                            _check_budget(len(seen), "a pushout class search")
                            nxt.append(cand)
                            if cand in targets:
                                found.add(cand)
            frontier = nxt
        if len(found) < len(targets):
            return False
    return True


def column_hermite_form(a):
    """Canonical basis, as columns, of the column space of a: the transposed
    row Hermite form, computed afresh."""
    return transpose(row_hermite_form(transpose(mat(a))))


def is_semistable(m):
    """Weakly semistable between smooth fans."""
    return (bool(is_weakly_semistable(m))
            and is_smooth_fan(m.source) and is_smooth_fan(m.target))


@functools.cache
def frozen_dataclass_twin(cls):
    """The frozen dataclass of the fields of the `Record` class `cls`, in
    order, with the same defaults and no methods of its own: the reference
    for the `__init__`, `__eq__`, `__hash__` and `__repr__` of a record.
    One twin per class, so that the twins of two records can compare."""
    fields = [(name, object, dataclasses.field(default=vars(cls)[name]))
              if name in vars(cls) else (name, object) for name in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def images_mapped_again(m):
    """The image of every source cone of a fan morphism, or of every source
    cell of a complex morphism, computed afresh."""
    if isinstance(m, ComplexMorphism):
        return tuple(image_cone(f, c) for f, c in zip(m.cell_maps, m.source.cells))
    return tuple(image_cone(m.lattice_map, c) for c in m.source.cones)


def image_of_scan(m, c):
    """The target cone a fan morphism assigns to c, by a scan."""
    for s, t in m.assignment:
        if s == c:
            return t
    raise FanError(f"cone {c.rays} is not in the source fan")


def minimal_containing_cone_scan(f, c):
    """The fan cone whose relative interior holds the sample of c."""
    sample = c.interior_sample()
    for candidate in f.cones:
        if candidate.relint_contains(sample):
            if not candidate.contains_cone(c):
                raise FanError(
                    f"cone with sample {sample} straddles the fan cone {candidate.rays}")
            return candidate
    raise FanError(f"no fan cone contains the point {sample}")


def owner_face_scan(cell, sample):
    """The proper face of cell whose relative interior holds the sample,
    None for the cell itself."""
    if cell.relint_contains(sample):
        return None
    for f in cell.faces():
        if f != cell and f.relint_contains(sample):
            return f
    raise ReductionError("a subdivision cell escapes its chart cell")


def target_piece_scan(pieces, pt):
    """The piece whose relative interior holds pt; StopIteration if none."""
    return next(p for p in pieces if p.relint_contains(pt))


def check_face_agreement(cx, pieces, subs):
    """The subdivision and sublattices computed inside a cell must restrict,
    on every glued face but the identity self-gluings, to the ones computed
    in the face's own chart; raises ReductionError where they do not."""
    for g in cx.gluings:
        if g.chart == g.cell and g.face == cx.cells[g.cell]:
            continue
        inside = [p for p in pieces[g.cell] if g.face.contains_cone(p)]
        moved = {_key(image_cone(_retraction(g), p)): p for p in inside}
        chart_keys = {_key(p) for p in pieces[g.chart]}
        if set(moved) != chart_keys:
            raise ReductionError(
                f"subdivisions disagree on the face pair "
                f"({g.cell}, {g.face.rays}) / chart {g.chart}")
        for key, p in moved.items():
            lifted = image_lattice(g.embedding, subs[g.chart][key])
            if lifted.basis != subs[g.cell][_key(p)].basis:
                raise ReductionError(
                    f"sublattices disagree on the face pair "
                    f"({g.cell}, {g.face.rays}) / chart {g.chart}")


def arrivals(m, t, pt):
    """The gluing g of the owner face of the point pt of target cell t, and
    for each source cell s whose image holds pt in its relative interior,
    the gluing h of s's assigned cell through which pt arrives there: pt
    moves by g's retraction into g's chart c, and from there into each copy
    h of c inside the assigned cell."""
    cell = m.target.cells[t]
    f = _owner_face(cell, pt)
    g = m.target.gluing_for(t, cell if f is None else f)
    u = _retraction(g)(pt)
    found = {}
    for s, img in enumerate(m.images):
        for h in m.target.gluings_of(m.assignment[s], g.chart):
            if img.relint_contains(h.embedding(u)):
                found[s] = h
                break
    return g, found


def pulled_back_functionals(m, t):
    """Every facet and span equation of every image, pulled back into
    target cell t through every pair (g, h) of gluings that share a chart,
    g of t and h of the image's assigned cell, with the span equations of
    the faces of t; a functional psi of the far cell moves to psi after E_h
    after L_g, which agrees with psi after E_h on g's face span."""
    hyps = set()
    for g in m.target.gluings:
        if g.cell != t:
            continue
        for s, img in enumerate(m.images):
            for h in m.target.gluings_of(m.assignment[s], g.chart):
                pull = transpose(matmul(h.embedding.matrix, _retraction(g).matrix))
                moved = [matvec(pull, psi) for psi in img.facets + img.span_equations]
                hyps |= {primitive(v) for v in moved + list(g.face.span_equations)
                         if not is_zero_vec(v)}
    return sorted(hyps)


def arrivals_sublattice(m, t, piece):
    """The span of a piece of target cell t intersected with the image
    lattice of each source cell arriving at its sample, carried back by the
    retraction of the arrival gluing h and the embedding of g."""
    cell = m.target.cells[t]
    if piece.dim == 0:
        return zero_sublattice(cell.lattice)
    g, found = arrivals(m, t, piece.interior_sample())
    result = span_sublattice(piece)
    for s, h in found.items():
        x = matmul(_retraction(h).matrix,
                   matmul(m.cell_maps[s].matrix, span_sublattice(m.source.cells[s]).basis))
        result = intersect_sublattices(
            result, Sublattice(cell.lattice, matmul(g.embedding.matrix, x)))
    return result


def target_cell_by_transport(m, t):
    """The target-cell step of `reduce_complex` by moving points: the cell
    cut by the pulled-back functionals, each point labelled by its
    arrivals, each piece's sublattice from the arrivals at its sample."""
    def label_at(pt):
        label = frozenset(arrivals(m, t, pt)[1])
        if not label:
            raise ReductionError(
                f"target cell {t} is not covered by the source images near {pt}")
        return label

    pieces = [piece for piece, _ in refine_cell(m.target.cells[t], pulled_back_functionals(m, t),
                                                label_at, f"target cell {t}")]
    return _CellRun(tuple(pieces), {_key(p): arrivals_sublattice(m, t, p) for p in pieces})
