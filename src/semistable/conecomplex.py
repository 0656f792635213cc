"""Cone complexes: cones living in individual chart lattices, glued along
faces, together with morphisms of complexes and the chart-local version of
the reduction pipeline.

A complex stores no ambient lattice.  Every crossing of a gluing, for
cones inside a face, sublattices and map columns, is a product with the
gluing's embedding or with its retraction (the left inverse, looked up
on each read from one Hermite form per distinct embedding matrix), so the
fan case (all charts equal to one ambient lattice, identity embeddings) is
recovered exactly.  Each target cell is cut and labelled by the source
images moved into its lattice, once each, by the per-cell step of the fan
pipeline (`refine_by_images`; see `_moved_images`), which also gives each
piece its sublattice and checks that the pieces cover the cell, so no point
crosses a gluing there; only the walk that glues the target pieces and the
cut of a maximal source cell ask for the owner face of a point, the face
whose relative interior holds it.  `validate_complex` checks that
composites of gluings agree on the faces of codimension 0 and 1 of each
glued face, which proves them on every face (the lemma in its docstring);
only a failure reruns the check on every face, to name each violation.

Every check of `reduce_complex` runs on every input and does its work once,
where the invariant it checks is made.  A gluing maps its chart onto its
face when its embedding moves the chart's rays onto the face's, so
`validate_complex` and the gluing walk build no image cone.
`complex_weak_semistability` runs the lattice certificate on the maximal
cells, and a face cell inherits a True certificate when its sublattices
are the restrictions of its cell's; every other cell is checked itself.
It is also the weak semistability check of fan morphisms
(`fan.is_weakly_semistable`).  Coverage is checked once per target cell,
by the kernel, which proves it for every source cell.

The maximal cells do the work on the source side: only they are cut
(`_source_runs`), and every other source cell takes the parts of a maximal
cell that lie in the face it is glued as, with their sublattices and owner
faces, moved by the retraction of that gluing.  The glued base and total
complexes are not validated again: the validated inputs and the walk that
glued them prove that they pass validate_complex (the lemma of
`_assemble_complex`).  Each docstring holds its proof.
"""
from __future__ import annotations

import functools
from typing import Optional, Sequence

from .cone import Cone, image_cone, relint_owner, span_sublattice
from .fan import (
    Fan,
    FanError,
    FanMorphism,
    ValidationReport,
    WeakSemistabilityReport,
    cut_by_preimages,
)
from .lattice import (
    Lattice,
    LatticeMap,
    Record,
    Sublattice,
    dot,
    full_sublattice,
    image_lattice,
    intersect_sublattices,
    left_inverse,
    matmul,
    matvec,
    preimage_sublattice,
    saturate,
)
from .monoid import MonoidError, _lattice_certificate, image_monoid_equals_cone_monoid
from . import reduction


# one reduction crosses at most 2 distinct embeddings, the test suite 5
RETRACTION_MEMO_SIZE = 64


class ComplexError(ValueError):
    pass


def _key(c: Cone):
    return (c.rays, c.lines)


# ---------------------------------------------------------------------------
# complexes

class Gluing(Record):
    """One face occurrence: `face` of cell `cell` is the image of the chart
    cell under `embedding` (chart lattice into the cell's lattice)."""

    cell: int
    face: Cone
    chart: int
    embedding: LatticeMap

    @property
    def retraction(self) -> Optional[LatticeMap]:
        """Left inverse of the embedding, None unless it is injective with a
        saturated image; looked up on each read, never when a complex is
        built."""
        return _left_inverse_map(self.embedding.matrix, self.embedding.domain.rank)


@functools.lru_cache(maxsize=RETRACTION_MEMO_SIZE)
def _left_inverse_map(matrix, rank: int) -> Optional[LatticeMap]:
    """One left inverse per distinct embedding matrix from a lattice of rank
    `rank`: the complexes a reduction assembles glue new cells by the
    embeddings of the old ones.  Keyed on the matrix, a tuple that hashes
    without a Python call, and kept in no gluing.  A matrix without rows
    has a left inverse only from the lattice of rank 0."""
    inv = left_inverse(matrix) if matrix or not rank else None
    return None if inv is None else LatticeMap(Lattice(len(matrix)), Lattice(rank), inv)


class ConeComplex(Record):
    cells: tuple[Cone, ...]
    gluings: tuple[Gluing, ...]

    # both indexes are built on first use, once per complex; the first gluing
    # of a repeated (cell, face) wins, and each chart's gluings keep their order
    @functools.cached_property
    def _by_face(self) -> dict:
        index = {}
        for g in self.gluings:
            index.setdefault((g.cell, g.face), g)
        return index

    @functools.cached_property
    def _by_chart(self) -> dict:
        index = {}
        for g in self.gluings:
            index.setdefault((g.cell, g.chart), []).append(g)
        return index

    def gluing_for(self, cell: int, face: Cone) -> Optional[Gluing]:
        return self._by_face.get((cell, face))

    def gluings_of(self, cell: int, chart: int) -> list[Gluing]:
        """The gluings of cell `cell` from chart `chart`: every face of the
        cell that is a copy of the chart cell."""
        return list(self._by_chart.get((cell, chart), ()))


def fan_as_complex(f: Fan) -> ConeComplex:
    """Every cone becomes a cell in the ambient lattice; faces are glued to
    their own cells by the identity.  A face that is no cone of f raises
    FanError: the fan must be closed under faces."""
    cells = f.cones
    index = {c: i for i, c in enumerate(cells)}
    ident = LatticeMap.identity_map(f.lattice)
    gluings = []
    for i, c in enumerate(cells):
        for face in c.faces():
            j = index.get(face)
            if j is None:
                raise FanError(f"face {face.rays} of {c.rays} missing from the fan")
            gluings.append(Gluing(i, face, j, ident))
    return ConeComplex(cells, tuple(gluings))


def _moved_rays(matrix, c: Cone) -> tuple:
    """The key of the strictly convex cone c carried by a map that is
    injective with a saturated image on its span, such as the retraction of
    a gluing on a cone inside the glued face.  If E v = k w with v primitive
    then v = L E v = k L w for a left inverse L, so E keeps rays primitive,
    and it keeps them extremal as it is linear and injective: the moved
    rays are the rays of the image cone, which need not be built."""
    return (tuple(sorted([matvec(matrix, r) for r in c.rays])), ())


def validate_complex(cx: ConeComplex) -> ValidationReport:
    """Every cell is strictly convex; every gluing names a face of its cell,
    once, by an injective embedding with a saturated image that maps its
    chart onto that face; every face of every cell is glued; and composites
    agree.  For a gluing g of the face F of cell i from chart c, write E_g
    for its embedding, and for a face h of F call the face of c that E_g
    maps onto h the copy of h in c.  Composites agree at (g, h) when the
    gluing of h in cell i and the gluing s of the copy of h in c come from
    the same chart and E_g E_s is the direct embedding.

    An embedding with a left inverse maps the chart onto the face exactly
    when it moves the chart's rays onto the face's (see `_moved_rays`);
    then the copy of h has the chart rays that E_g moves onto the rays of
    h, read back from that one move.  Only an embedding without a left
    inverse, which is reported already, is checked on its image cone.  Each
    distinct product E_g E_s is formed once per call, and one left inverse
    per distinct embedding matrix (`Gluing.retraction`).

    Lemma: composites agree at every (g, h) once they agree wherever h has
    codimension 0 or 1 in F.  (Codimension 0 asks that the self-gluing of
    every chart of a gluing be the identity of that chart.)  By induction
    on the codimension j of h, over all gluings at once: let j >= 2, take a
    facet F' of F that contains h, and let g' glue F' in cell i from chart
    c'.  The case j = 1 at (g, F') glues the copy of F' in c by some k from
    c', with E_g E_k = E_g'.  As E_g is injective, E_k carries the copy of
    h in c' onto the copy of h in c.  h has codimension j - 1 in F', so the
    case j - 1 at (g', h) and at (k, copy of h in c) says: the gluing d of h
    in cell i, the gluing s of the copy of h in c and the gluing s' of the
    copy of h in c' come from one chart, with E_g' E_s' = E_d and
    E_k E_s' = E_s.  Then E_g E_s = E_g E_k E_s' = E_g' E_s' = E_d.
    """
    bad: list[str] = []
    for i, c in enumerate(cx.cells):
        if not c.is_strictly_convex:
            bad.append(f"cell {i} is not strictly convex")
    if bad:
        return ValidationReport(tuple(bad))

    faces = [c.faces() for c in cx.cells]
    face_sets = [set(f) for f in faces]
    by_occurrence: dict = {}
    back: dict = {}
    for k, g in enumerate(cx.gluings):
        c = cx.cells[g.cell]
        if g.face not in face_sets[g.cell]:
            bad.append(f"gluing on cell {g.cell} names {g.face.rays}, "
                       "which is not a face of the cell")
            continue
        occ = (g.cell, _key(g.face))
        if occ in by_occurrence:
            bad.append(f"face {g.face.rays} of cell {g.cell} is glued twice")
        by_occurrence[occ] = g

        e, chart = g.embedding, cx.cells[g.chart]
        if e.domain != chart.lattice or e.codomain != c.lattice:
            bad.append(f"embedding for face {g.face.rays} of cell {g.cell} "
                       "connects the wrong lattices")
            continue
        if g.retraction is None:
            image = image_lattice(e)
            if image.rank != e.domain.rank:
                bad.append(f"embedding into cell {g.cell} is not injective")
            if saturate(image).basis != image.basis:
                bad.append(f"embedding into cell {g.cell} has a non-saturated image")
            onto = image_cone(e, chart) == g.face
        else:
            # the chart ray of each ray of the face, as in _moved_rays
            back[k] = {matvec(e.matrix, r): r for r in chart.rays}
            onto = tuple(sorted(back[k])) == g.face.rays
        if not onto:
            bad.append(f"chart {g.chart} does not map onto face "
                       f"{g.face.rays} of cell {g.cell}")

    for i, c in enumerate(cx.cells):
        for face in faces[i]:
            if (i, _key(face)) not in by_occurrence:
                bad.append(f"face {face.rays} of cell {i} is not glued")
    if bad:
        return ValidationReport(tuple(bad))

    # composites agree: going to a face of a face directly or through the
    # intermediate chart must give the same embedding.  By the lemma the
    # faces of codimension 0 and 1 suffice; any failure falls back to every
    # face, which names each violation in a fixed order
    product = functools.cache(matmul)
    for every_face in (False, True):
        bad = []
        for k, g in enumerate(cx.gluings):
            e, lower = g.embedding.matrix, g.face.dim - 1
            for h in g.face.faces():
                if h.dim < lower and not every_face:
                    continue
                direct = by_occurrence[(g.cell, _key(h))]
                h_chart = tuple(sorted([back[k][r] for r in h.rays]))
                step = by_occurrence[(g.chart, (h_chart, ()))]
                if step.chart != direct.chart:
                    bad.append(f"cell {g.cell}, face {h.rays}: gluing through chart "
                               f"{g.chart} reaches cell {step.chart}, "
                               f"directly it reaches {direct.chart}")
                    continue
                if product(e, step.embedding.matrix) != direct.embedding.matrix:
                    bad.append(f"cell {g.cell}, face {h.rays}: composite gluing "
                               "disagrees with the direct one")
        if not bad:
            break
    return ValidationReport(tuple(bad))


# ---------------------------------------------------------------------------
# morphisms

class ComplexMorphism(Record):
    """Per-cell lattice maps into the assigned target cells; the image of each
    source cell (`images`, aligned with `source.cells`) is computed here."""

    source: ConeComplex
    target: ConeComplex
    cell_maps: tuple[LatticeMap, ...]
    assignment: tuple[int, ...]

    def __post_init__(self):
        if len(self.cell_maps) != len(self.source.cells) or \
                len(self.assignment) != len(self.source.cells):
            raise ComplexError("one lattice map and one target cell per source cell")
        images = []
        for i, sigma in enumerate(self.source.cells):
            m = self.cell_maps[i]
            kappa = self.target.cells[self.assignment[i]]
            if m.domain != sigma.lattice or m.codomain != kappa.lattice:
                raise ComplexError(f"map of cell {i} connects the wrong lattices")
            images.append(image_cone(m, sigma))
            if not kappa.contains_cone(images[-1]):
                raise ComplexError(f"cell {i} does not map into its assigned cell")
        object.__setattr__(self, "images", tuple(images))


def validate_complex_morphism(m: ComplexMorphism) -> ValidationReport:
    """Gluing compatibility: on every glued face the per-cell maps agree
    through some gluing of the assigned target cells.  For a gluing E of
    chart j into cell i they agree through T when M_i E and T M_j agree on
    the span of chart j, compared on its basis; each distinct product is
    formed once per call."""
    product = functools.cache(matmul)
    bad: list[str] = []
    for g in m.source.gluings:
        i, j = g.cell, g.chart
        span = span_sublattice(m.source.cells[j]).basis
        through_face = product(product(m.cell_maps[i].matrix, g.embedding.matrix), span)
        if not any(product(product(tg.embedding.matrix, m.cell_maps[j].matrix), span)
                   == through_face
                   for tg in m.target.gluings_of(m.assignment[i], m.assignment[j])):
            bad.append(f"maps of cells {i} and {j} disagree on the face "
                       f"{g.face.rays}")
    return ValidationReport(tuple(bad))


def fan_morphism_as_complex(p: FanMorphism) -> ComplexMorphism:
    src = fan_as_complex(p.source)
    tgt = fan_as_complex(p.target)
    tgt_index = {c: i for i, c in enumerate(tgt.cells)}
    assign = tuple(tgt_index[kappa] for _, kappa in p.assignment)
    return ComplexMorphism(src, tgt, (p.lattice_map,) * len(src.cells), assign)


# ---------------------------------------------------------------------------
# transport between charts

def _retraction(g: Gluing) -> LatticeMap:
    if g.retraction is None:
        raise ComplexError(f"embedding into cell {g.cell} is not injective "
                           "with a saturated image")
    return g.retraction


def _descend(g: Gluing, f: LatticeMap) -> Optional[LatticeMap]:
    """The map X with E X = f for the embedding E of g, or None when the
    image of f is not in the image of E."""
    x = _retraction(g).compose(f)
    return x if g.embedding.compose(x) == f else None


def _owner_face(cell: Cone, sample) -> Optional[Cone]:
    """Smallest face whose relative interior holds the sample; None for the
    cell itself.  In a strictly convex cell that is the intersection of the
    facets tight at the sample, the face spanned by the rays tight on each
    of them, which is looked up among the cell's faces by its rays."""
    if not cell.contains(sample):
        raise reduction.ReductionError("a subdivision cell escapes its chart cell")
    tight = [u for u in cell.facets if not dot(u, sample)]
    rays = tuple(r for r in cell.rays if not any(dot(u, r) for u in tight))
    return None if rays == cell.rays else next(f for f in cell.faces() if f.rays == rays)


def _moved_images(m: ComplexMorphism, t: int) -> list[tuple[int, Cone, Sublattice]]:
    """Each source cell s with its image and image lattice moved into target
    cell t, once per distinct moved cone, by s, whose index serves
    `complex_N0`.  On a valid complex every gluing has a left inverse.

    A route is a gluing g of t from a chart c and a gluing h from c into the
    cell s is assigned to, whose face holds s's image; it moves the image
    and its lattice by one composite, E_g after h's retraction L_h.  On
    complexes that pass validate_complex, as reduce_complex checks first, a
    point pt of t lies in the relative interior of a moved image of s
    exactly when it arrives there through the gluing g0 of its owner face f,
    from a chart c0: u = L_g0 pt lies in the relative interior of c0, and
    for some gluing h0 of the assigned cell from c0, E_h0 u lies in the
    relative interior of the image.  Then the face of h0 holds the image and
    the route (g0, h0) carries it onto a cone whose relative interior holds
    pt.  Conversely, let a route (g, h) do so.  The face of g holds pt, so f
    is a face of it; composites agree, so the copy of f in c is glued by
    some k from c0 with E_g E_k = E_g0, and its copy under E_h by some h0
    from c0 with E_h E_k = E_h0.  So E_h0 u = E_h L_g pt lies in the
    relative interior of the image.  Both routes carry the image lattice
    onto one lattice, as E_g L_h = E_g0 L_h0 on the span of the face of h0,
    and h0 is the one gluing of the smallest face of the cell that holds the
    image.  A route whose face of h misses the image adds nothing.
    """
    into = [g for g in m.target.gluings if g.cell == t]
    moved: dict = {}
    for s, img in enumerate(m.images):
        lattice = None
        for g in into:
            for h in m.target.gluings_of(m.assignment[s], g.chart):
                if not h.face.contains_cone(img):
                    continue
                # E_g L_h is the identity on the face of h when E_g = E_h
                same = g.embedding.matrix == h.embedding.matrix
                route = None if same else g.embedding.compose(_retraction(h))
                key = (s, img if same else image_cone(route, img))
                if key not in moved:
                    lattice = lattice or image_lattice(m.cell_maps[s],
                                                       span_sublattice(m.source.cells[s]))
                    moved[key] = lattice if same else image_lattice(route, lattice)
    return [(s, img, lattice) for (s, img), lattice in moved.items()]


def complex_N0(m: ComplexMorphism, kappa: int, w: Sequence) -> frozenset[int]:
    """Source cells whose image, moved into target cell kappa, holds the
    point w of the cell in its relative interior.  The target complex must
    be valid (validate_complex).

    No code of the package calls it; it stays as the one public way to ask
    for the source cells of the images in the label `reduce_complex` gives
    each piece, at a chosen point."""
    if not m.target.cells[kappa].contains(w):
        raise ComplexError("the sample point lies outside the target cell")
    return frozenset(s for s, img, _ in _moved_images(m, kappa) if img.relint_contains(w))


# ---------------------------------------------------------------------------
# chart-local reduction

class StackyComplex(Record):
    complex: ConeComplex
    sublattices: tuple[Sublattice, ...]


class ComplexReductionResult(Record):
    base: StackyComplex
    total: StackyComplex
    morphism: ComplexMorphism
    base_owners: tuple[int, ...]
    total_owners: tuple[int, ...]
    positive_dimensional_lifts: tuple[int, ...]


class _CellRun(Record):
    """Everything the local reduction computed inside one cell: its pieces,
    their sublattices and, where they are known when the pieces are made,
    their owner faces (as `_owner_face` gives them), all by piece key."""

    pieces: tuple[Cone, ...]
    sublattices: dict
    owners: Optional[dict] = None


def _run_target_cell(m: ComplexMorphism, t: int) -> _CellRun:
    """Target cell t cut and labelled by the source images moved into it,
    each piece with its sublattice, by the per-cell step of the fan
    pipeline (`refine_by_images`), which checks that the pieces cover t.  A
    source cell that reaches t by two routes onto different cones comes as
    two images, each with its own lattice, and labels them apart."""
    out = reduction.refine_by_images(
        m.target.cells[t], [(img, lattice) for _, img, lattice in _moved_images(m, t)],
        f"target cell {t}")
    return _CellRun(tuple(piece for piece, _ in out),
                    {_key(piece): sub for piece, sub in out})


def _cut_source_cell(sigma: Cone, pmap: LatticeMap, image: Cone,
                     top: Sequence[Cone]) -> tuple[Cone, ...]:
    """The subdivision of sigma by the preimages of the target pieces, from
    the maximal pieces `top` alone: a piece P <= P' pulls back to a face of
    the preimage of P' in sigma, and Fan.from_cones closes under faces.  A
    piece containing the image of sigma leaves sigma uncut; otherwise the
    cuts are those of `minimal_modification` (`cut_by_preimages`)."""
    if any(piece.contains_cone(image) for piece in top):
        return Fan.from_cones(sigma.lattice, [sigma]).cones
    return Fan.from_cones(sigma.lattice, cut_by_preimages(sigma, pmap, top)).cones


def _source_runs(m: ComplexMorphism, runs: dict, tops: dict) -> dict:
    """Each source cell cut by the preimages of the pieces of its target
    cell, with each part's sublattice and owner face.  Only the maximal
    cells, those no gluing of a proper face names as its chart, are cut
    (`_cut_source_cell`, from the maximal pieces `tops`); every other cell s
    takes the parts of a maximal cell c that lie in the face F it is glued
    as, moved by the retraction L of that gluing E, with their sublattices
    and owner faces moved by L.

    Every cell glued as a proper face is glued as a proper face of a
    maximal cell, on complexes that pass validate_complex: if F <= c is
    glued from s and c is glued as the face F' of c', composites glue the
    face E_F' F of c' from s, and dimensions rise along such a chain.

    Lemma: the parts of s are those of c inside F, moved by L.  The parts of
    c are the faces of the cones c ∩ p_c^-1(P), P a maximal piece of the
    target cell lambda of c.  F is cut from c by a supporting hyperplane,
    which supports any cone X inside c too, so F ∩ X is a face of X: the
    preimage of a piece meets a face in a face of its intersection with the
    cell, and the parts inside F are the faces of the cones F ∩ p_c^-1(P).
    The morphism passed validate_complex_morphism, so a gluing T of lambda
    from the target cell mu of s has p_c E = T p_s on Span s, and L carries
    F onto s: L(F ∩ p_c^-1(P)) = s ∩ p_s^-1(T^-1(P ∩ T mu)).  The walk over
    the base, which ran first, asserts that T carries the pieces of mu onto
    those of lambda inside T mu, with their sublattices.  So the cones
    T^-1(P ∩ T mu) are pieces of mu, every maximal piece among them, and a
    piece Q <= Q' pulls back to a face of s ∩ p_s^-1(Q'): their faces are
    the parts of s.  A part R inside F lands in the piece T Q, Q the piece
    of mu whose relative interior holds p_s of the sample of L R; as
    p_s x lies in q_Q exactly when p_c E x lies in T q_Q = q_TQ, and E
    carries N_s ∩ Span L R onto N_c ∩ Span R, the sublattice of L R is the
    one L carries from R.  And L carries the smallest face of c holding R,
    a face of F, onto the smallest face of s holding L R.

    When F lies in several maximal cells the parts come from the first
    gluing that names s; the walk over the total compares every other cell
    holding F with them, as it compared each with the parts of s cut alone.
    """
    cells = m.source.cells
    as_face = {g.chart for g in m.source.gluings if g.face != cells[g.cell]}
    out: dict = {}
    for s in (s for s in range(len(cells)) if s not in as_face):
        lam, pmap = m.assignment[s], m.cell_maps[s]
        parts = _cut_source_cell(cells[s], pmap, m.images[s], tops[lam])
        out[s] = _CellRun(parts, {_key(part): intersect_sublattices(
            preimage_sublattice(pmap, runs[lam].sublattices[_landing(m, runs, s, part)]),
            span_sublattice(part)) for part in parts},
            {_key(part): _owner_face(cells[s], part.interior_sample()) for part in parts})
    for g in m.source.gluings:
        if g.chart in out or g.cell in as_face or g.face == cells[g.cell]:
            continue
        # the parts of g's cell owned by a face of g's face, moved into the
        # chart cell
        back, run, chart = _retraction(g), out[g.cell], cells[g.chart]
        faces = {f.rays: f for f in chart.faces()} | {chart.rays: None}
        inside = set(g.face.faces())
        parts, subs, owners = [], {}, {}
        for part in (p for p in run.pieces if run.owners[_key(p)] in inside):
            key = _moved_rays(back.matrix, part)
            parts.append(Cone.from_generators(chart.lattice, key[0]))
            subs[key] = image_lattice(back, run.sublattices[_key(part)])
            owners[key] = faces[_moved_rays(back.matrix, run.owners[_key(part)])[0]]
        out[g.chart] = _CellRun(tuple(sorted(parts)), subs, owners)
    return out


def _landing(m: ComplexMorphism, runs: dict, s: int, part: Cone) -> tuple:
    """The key of the piece of the target cell of source cell s whose
    relative interior holds the image of the part's sample."""
    lam = m.assignment[s]
    piece = relint_owner(runs[lam].pieces, m.cell_maps[s](part.interior_sample()))
    if piece is None:
        raise reduction.ReductionError(
            f"a part of source cell {s} maps into no piece of target cell {lam}")
    return _key(piece)


def _assemble_complex(cx: ConeComplex, runs: dict) -> tuple:
    """New complex from the per-cell subdivisions, glued through the old
    gluings where neighbouring charts agree on each glued face, in pieces
    and sublattices.  Returns the complex, the old cell of each new cell,
    and for each (cell, piece key) the gluing of the piece's owner face
    (None when the cell owns it) and the new cell it is a copy of.  The
    pieces of a cell must cover it and be closed under faces.

    One walk finds each piece's owner face.  An owned piece becomes a cell;
    every other piece, and every piece of a cell glued whole from another
    chart, moves through the gluing g of its owner face.  It must land on a
    piece owned by g's chart whose sublattice E_g carries onto its own, and
    the pieces landing through g must be all the pieces that chart owns.

    That suffices on complexes that pass validate_complex.  Let g glue the
    face F of cell t from chart c, h a piece inside F, and g' glue h's
    owner face F' from c'.  By composites the copy of F' in c is glued by
    some s from c' with E_g E_s = E_g'.  h lands through g' on a piece h'
    of c', and the pieces of c landing through s are all those c' owns, so
    E_s h', whose image under E_g is h, is a piece of c, with the sublattice
    E_g carries onto h's.  Conversely a piece of c that c owns lands on t
    through g; one owned by a proper face K of c lands on the chart that
    also glues E_g K, and E_g carries it onto a piece of t as above.

    Lemma: once the walk has passed, the new complex passes validate_complex,
    so reduce_complex does not run that check on it.  Its cells are pieces
    of strictly convex cells.  Each face h of a new cell n, a piece of the
    old cell t, is glued once, by an embedding of the old complex, which has
    a left inverse, or by an identity.  A face h owned by the face K of t
    with gluing g from chart c is glued onto the piece of c whose rays L_g
    moves h's onto, so E_g maps that cell onto h.  Composites: let h' be a
    face of h, owned by K' <= K with gluing g' from c'.  L_g carries h' into
    the relative interior of the copy of K' in c, so that copy owns it, and
    composites of the old complex glue it by some s from c' with
    E_g E_s = E_g'.  So the gluing of L_g h' in the new cell of L_g h comes
    from the new cell of c' whose rays L_s L_g h' = L_g' h' are those of the
    direct gluing of h' in n, by the product E_g E_s = E_g'.  When t owns h,
    h is glued by the identity onto its own new cell, whose face h' is
    glued as in n.
    """
    cells: list = []
    owners: list = []
    owned: dict = {}  # chart: {piece key: new cell}
    glued: dict = {}
    landing: dict = {}  # (cell, owner face): its gluing, the pieces moved through it
    for t, cell in enumerate(cx.cells):
        recorded = runs[t].owners
        for piece in runs[t].pieces:
            f = recorded[_key(piece)] if recorded else _owner_face(cell, piece.interior_sample())
            g = cx.gluing_for(t, cell if f is None else f)
            if f is None:
                glued[(t, _key(piece))] = (None, len(cells))
                owned.setdefault(t, {})[_key(piece)] = len(cells)
                cells.append(piece)
                owners.append(t)
                if g.chart == t:
                    continue
            # the piece lies in g's face, so the retraction moves its rays
            moved = landing.setdefault((t, g.face), (g, {}))[1]
            moved[_moved_rays(_retraction(g).matrix, piece)] = piece

    for (t, face), (g, moved) in landing.items():
        chart = owned.get(g.chart, {})
        if moved.keys() != chart.keys():
            raise reduction.ReductionError(
                f"subdivisions disagree on the face pair "
                f"({t}, {face.rays}) / chart {g.chart}")
        for key, piece in moved.items():
            lifted = image_lattice(g.embedding, runs[g.chart].sublattices[key])
            if lifted.basis != runs[t].sublattices[_key(piece)].basis:
                raise reduction.ReductionError(
                    f"sublattices disagree on the face pair "
                    f"({t}, {face.rays}) / chart {g.chart}")
            if face != cx.cells[t]:
                glued[(t, _key(piece))] = (g, chart[key])

    gl = []
    for new_idx, (piece, t) in enumerate(zip(cells, owners)):
        ident = LatticeMap.identity_map(cx.cells[t].lattice)
        for h in piece.faces():
            g, j = glued[(t, _key(h))]
            gl.append(Gluing(new_idx, h, j, ident if g is None else g.embedding))
    return ConeComplex(tuple(cells), tuple(gl)), tuple(owners), glued


def _require(report: ValidationReport, error: type, what: str) -> None:
    if not report:
        raise error(f"{what}: " + "; ".join(report.violations))


def reduce_complex(m: ComplexMorphism) -> ComplexReductionResult:
    """Run the reduction chart-locally over every target cell and glue the
    results; face agreement between neighbouring charts is asserted, never
    assumed.

    Coverage is checked once per target cell lambda, where its pieces are
    made: the kernel (`refine_by_images`) checks that they cover it.  Then
    the parts of every source cell sigma assigned to lambda cover sigma.
    They are the cones sigma ∩ p^-1(P) for the maximal pieces P (or sigma
    itself), and p(sigma) ⊂ lambda, which ComplexMorphism asserts, so their
    union is sigma ∩ p^-1(∪ P) = sigma ∩ p^-1(lambda) = sigma."""
    _require(validate_complex(m.source), ComplexError, "source complex invalid")
    _require(validate_complex(m.target), ComplexError, "target complex invalid")
    _require(validate_complex_morphism(m), ComplexError,
             "morphism incompatible with gluings")

    runs = {t: _run_target_cell(m, t) for t in range(len(m.target.cells))}
    base_cx, base_owners, base_glued = _assemble_complex(m.target, runs)
    base_subs = tuple(runs[t].sublattices[_key(piece)]
                      for piece, t in zip(base_cx.cells, base_owners))

    # subdivide every source cell by the preimages of the maximal pieces of
    # its target subdivision
    tops = {t: Fan(m.target.cells[t].lattice, run.pieces).maximal_cones()
            for t, run in runs.items()}
    src_runs = _source_runs(m, runs, tops)
    total_cx, total_owners, _ = _assemble_complex(m.source, src_runs)
    total_subs = tuple(src_runs[s].sublattices[_key(piece)]
                       for piece, s in zip(total_cx.cells, total_owners))

    maps, assign = [], []
    for piece, s in zip(total_cx.cells, total_owners):
        lam, pmap = m.assignment[s], m.cell_maps[s]
        orig, j = base_glued[(lam, _landing(m, runs, s, piece))]
        descended = pmap if orig is None else _descend(orig, pmap)
        if descended is None:
            # the map does not descend to the face chart: fall back to the
            # smallest cell of lam's own subdivision containing the image
            img = image_cone(pmap, piece)
            candidates = [(p.dim, p.rays, p.lines, i)
                          for i, (p, t) in enumerate(zip(base_cx.cells, base_owners))
                          if t == lam and p.contains_cone(img)]
            if not candidates:
                raise reduction.ReductionError(
                    f"no target cell of the refined base receives total cell {s}")
            descended, j = pmap, min(candidates)[3]
        maps.append(descended)
        assign.append(j)

    morph = ComplexMorphism(total_cx, base_cx, tuple(maps), tuple(assign))
    _require(validate_complex_morphism(morph), reduction.ReductionError,
             "reduced morphism incompatible with gluings")
    ws = complex_weak_semistability(morph, total_subs, base_subs)
    if not ws:
        raise reduction.ReductionError(
            "reduced complex morphism is not weakly semistable: "
            + "; ".join(msg for _, _, msg in ws.failures))
    return ComplexReductionResult(StackyComplex(base_cx, base_subs),
                                  StackyComplex(total_cx, total_subs),
                                  morph, base_owners, total_owners,
                                  tuple(s for s, (sigma, img) in
                                        enumerate(zip(m.source.cells, m.images))
                                        if sigma.dim > img.dim))


# ---------------------------------------------------------------------------
# weak semistability, cell by cell

def complex_weak_semistability(m: ComplexMorphism,
                               source_sublattices: Optional[Sequence[Sublattice]] = None,
                               target_sublattices: Optional[Sequence[Sublattice]] = None,
                               *, monoid_errors_fail: bool = True
                               ) -> WeakSemistabilityReport:
    """Per-cell form of the two conditions: the image of every cell is a
    face of its assigned cell, and lattice points surject onto the lattice
    points of the image.  Both complexes must be valid (validate_complex).

    The first condition is checked on every cell.  The second is certified
    on each maximal cell, one that no gluing of a proper face names as its
    chart, by `_lattice_certificate` (the Abramovich-Karu argument in its
    docstring).  A cell glued as a proper face F of a cell whose
    certificate returned True inherits True when the sublattices restrict.
    Write E for the gluing's embedding, p and p_F for the maps of the cell
    and of the chart cell sigma_F, T for a gluing of their target cells
    with p E = T p_F, N and N_F for their source sublattices, and Q and Q_F
    for the target sublattices at their images.  The sublattices restrict
    when E(N_F ∩ Span sigma_F) = N ∩ Span F and
    T(Q_F ∩ Span p_F(sigma_F)) = Q ∩ Span p(F).  Every other cell is
    checked itself.

    Proof of the inheritance.  The certificate reads N only through
    M = N ∩ Span, and Q only inside the span of the image.  E and T are
    injective and E carries sigma_F onto F, so E carries M_F onto
    M ∩ Span F.  M has full rank in the cell, so M ∩ Span F has rank
    dim F: the face has the same lattice, of full rank.  p E = T p_F sends
    M_F into Q ∩ Span p(F), the image under T of Q_F ∩ Span p_F(sigma_F),
    so p_F sends M_F into Q_F.  A face tau of sigma_F on which p_F is
    injective goes by E onto a face of F, hence of the cell, on which p is
    injective, and E and T carry M_F ∩ Span tau and Q_F ∩ Span p_F(tau)
    onto the cell's lattices for that face: its injective faces are
    injective faces of the cell, with equal lattices.  There the inclusion
    holds, and T is injective, so it holds for tau.  So every test of the
    certificate passes on sigma_F, and it would return True.

    Only a True certificate is inherited: a cell that passes by Hilbert
    bases proves nothing about its faces.  So every cell is certified,
    inherits or is checked itself, each an exact answer, and the failures,
    listed in cell order, are those that a check of every cell gives.

    A MonoidError of a cell checked itself, raised when its sublattice
    meets its span in a lattice of lower rank, is a failure of condition 2,
    or, with `monoid_errors_fail=False`, propagates.
    """
    if source_sublattices is None:
        source_sublattices = [full_sublattice(c.lattice) for c in m.source.cells]
    if target_sublattices is None:
        target_sublattices = [full_sublattice(c.lattice) for c in m.target.cells]
    cells, images = m.source.cells, m.images
    carried_lattices: dict = {}

    def carried(e: LatticeMap, sub: Sublattice) -> Sublattice:
        # one image lattice per distinct (map, sublattice) in a call
        key = (e.matrix, sub.basis)
        if key not in carried_lattices:
            carried_lattices[key] = image_lattice(e, sub)
        return carried_lattices[key]

    # on a valid target complex exactly the faces of a cell are glued in it
    q_subs: dict = {}
    for s, img in enumerate(images):
        t, gl = m.assignment[s], m.target.gluing_for(m.assignment[s], img)
        if img == m.target.cells[t]:
            q_subs[s] = target_sublattices[t]
        elif gl is not None:
            q_subs[s] = carried(gl.embedding, target_sublattices[gl.chart])

    as_face: dict = {}  # chart: the gluings of it as a proper face
    for g in m.source.gluings:
        if g.face != cells[g.cell]:
            as_face.setdefault(g.chart, []).append(g)

    def within(sub: Sublattice, c: Cone) -> Sublattice:
        # sub ∩ Span c; sub itself where the span equations vanish on it, as
        # on the sublattices reduce_complex attaches
        if not any(dot(u, v) for u in c.span_equations for v in sub.vectors()):
            return sub
        return intersect_sublattices(sub, span_sublattice(c))

    def restricts(g: Gluing) -> bool:
        # the two equalities of the proof for g, which glues the face F
        s, c = g.chart, g.cell
        if g.retraction is None or carried(g.embedding, within(source_sublattices[s], cells[s])) \
                != within(source_sublattices[c], g.face):
            return False
        through = matmul(m.cell_maps[c].matrix, g.embedding.matrix)
        for tg in m.target.gluings_of(m.assignment[c], m.assignment[s]):
            if tg.retraction is not None and \
                    matmul(tg.embedding.matrix, m.cell_maps[s].matrix) == through:
                return carried(tg.embedding, within(q_subs[s], images[s])) == intersect_sublattices(
                    q_subs[c], carried(tg.embedding, span_sublattice(images[s])))
        return False

    failures = []
    proved: set = set()
    # the maximal cells first, so that their faces may inherit
    for s in sorted(range(len(cells)), key=lambda s: s in as_face):
        sigma = cells[s]
        if s not in q_subs:
            failures.append((s, sigma, 1, f"image of cell {s} is not a face of its target cell"))
            continue
        if s not in as_face and _lattice_certificate(
                m.cell_maps[s], sigma, source_sublattices[s], q_subs[s]) is True:
            proved.add(s)
            continue
        if any(g.cell in proved and restricts(g) for g in as_face.get(s, ())):
            continue
        try:
            ok = image_monoid_equals_cone_monoid(m.cell_maps[s], sigma, images[s],
                                                 source_sublattices[s], q_subs[s])
        except MonoidError as exc:
            if not monoid_errors_fail:
                raise
            failures.append((s, sigma, 2, f"cell {s}: {exc}"))
            continue
        if not ok:
            failures.append((s, sigma, 2, f"lattice points of cell {s} do not cover the "
                             "lattice points of its image"))
    return WeakSemistabilityReport(tuple(f[1:] for f in sorted(failures, key=lambda f: f[0])))
