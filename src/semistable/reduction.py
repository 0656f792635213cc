"""The main pipeline: refine the base fan by image cones, each cell with
its sublattice, refine the total fan, and package the resulting stacky
morphism together with its universal property (factorization of compatible
alteration squares through it).

The per-cell step is shared with `reduce_complex`: `refine_by_images` cuts
a cell by the (image, image lattice) pairs that lie in it, labels each
point by the images whose relative interior holds it, gives each piece its
sublattice, the span lattice of the piece met with the lattice of every
image of its label, and checks that the pieces cover the cell, the one
coverage check of both pipelines.  The fan pipeline calls it on the cones
of the target, the complex pipeline on the target cells, each with the
images moved into it.

`reduce` checks each invariant once, where it is made: that its source and
target are fans; that the refined base is a fan covering the target (each
cone by the kernel), with sublattices that agree on faces; that the reduced
morphism is weakly semistable, through the one certificate of the maximal
cones (`is_weakly_semistable`), and representable.  What follows from those
it proves instead, each proof in a docstring: the refined total is a fan
(`minimal_modification`), its sublattices have finite index and agree on
faces (`total_refinement`), and it covers the source (`reduce`).
"""
from __future__ import annotations

from typing import Callable, Hashable, Sequence

from .cone import Cone, preimage_cone, span_sublattice
from .fan import (
    Fan,
    FanError,
    FanMorphism,
    StackyFan,
    StackyMorphism,
    ValidationReport,
    covers,
    decompose_by_hyperplanes,
    is_alteration,
    is_modification,
    is_proper,
    is_representable,
    is_weakly_semistable,
    minimal_containing_cone,
    minimal_modification,
    require_fans,
    toric_fiber_product,
    validate_fan,
    validate_stacky_fan,
)
from .lattice import (
    LatticeMap,
    Record,
    Sublattice,
    Vector,
    det,
    fiber_product_lattice,
    image_lattice,
    intersect_sublattices,
    kernel_lattice,
    left_inverse,
    matmul,
    preimage_sublattice,
    saturate,
    vec_add,
)


class ReductionError(ValueError):
    pass


class NoFactorization(ReductionError):
    """The family does not factor over the given alteration: the square
    built over it fails only by its projection, or its cones do not land
    in the reduced cones and sublattices."""


# ---------------------------------------------------------------------------
# image refinement

def refine_cell(cell: Cone, functionals: Sequence[Vector],
                label_at: Callable[[Vector], Hashable],
                where: str) -> list[tuple[Cone, Hashable]]:
    """Coarsest subdivision of `cell` on whose pieces `label_at` is constant.

    The cell is cut by the functionals and every piece is labelled at an
    interior sample, then again one ray further in, so a label that changes
    inside a piece is caught.  The pieces of each label merge into their
    hull, which must be convex and be a union of pieces with that label; it
    lies in the cell, which is convex and holds every piece.  Returns the face closure of the hulls, each
    face with its label, verified the same way.
    """
    def label(c: Cone) -> Hashable:
        s1 = c.interior_sample()
        lab = label_at(s1)
        if c.rays and label_at(vec_add(s1, c.rays[0])) != lab:
            raise ReductionError(f"membership set is not constant on a cell of {where}")
        return lab

    pieces = [(piece, label(piece))
              for piece in decompose_by_hyperplanes(cell, functionals)]
    samples = [(piece.interior_sample(), lab) for piece, lab in pieces]

    def mixed(c: Cone, lab: Hashable) -> bool:
        return any(c.relint_contains(s) and other != lab for s, other in samples)

    by_label: dict = {}
    for piece, lab in pieces:
        by_label.setdefault(lab, []).extend(piece.generators())
    hulls = []
    for lab, gens in by_label.items():
        hull = Cone.from_generators(cell.lattice, gens)
        if not hull.is_strictly_convex:
            raise ReductionError(f"a label region of {where} is not convex")
        if mixed(hull, lab):
            raise ReductionError(f"a label region of {where} is not a union of cells")
        hulls.append(hull)

    out = []
    for face in Fan.from_cones(cell.lattice, hulls).cones:
        lab = label(face)
        if mixed(face, lab):
            raise ReductionError(
                f"a cell of {where} merges regions with different membership sets")
        out.append((face, lab))
    return out


def refine_by_images(cell: Cone, images: Sequence[tuple[Cone, Sublattice]],
                     where: str) -> list[tuple[Cone, Sublattice]]:
    """The per-cell step of both pipelines: `refine_cell` on `cell`, cut by
    the facets and span equations of the (image, image lattice) pairs,
    whose images lie in the cell, and each piece with its sublattice.

    A point's label is the pairs whose image holds it in its relative
    interior, in the order of `images`; those functionals fix every such
    membership, so the label is constant on each piece of the cut.  An
    empty label raises, and so do pieces that miss part of the cell: this
    is the one coverage check of both pipelines.  A piece's sublattice is
    its span lattice met with the lattice of every pair of its label.  A
    lattice equal to the whole lattice of its image's span cuts nothing and
    is skipped: a piece whose sample the image holds lies in the image, so
    its span lattice lies in that one."""
    hyps = sorted({psi for img, _ in images for psi in img.facets + img.span_equations})

    def label_at(pt):
        label = tuple(pair for pair in images if pair[0].relint_contains(pt))
        if not label:
            raise ReductionError(f"{where} is not covered by the source images near {pt}")
        return label

    out = []
    for piece, label in refine_cell(cell, hyps, label_at, where):
        sub = span_sublattice(piece)
        for img, lattice in label:
            if lattice != span_sublattice(img):
                sub = intersect_sublattices(sub, lattice)
        out.append((piece, sub))
    if not covers(cell, [piece for piece, _ in out]):
        raise ReductionError(f"subdivision of {where} misses part of the cell")
    return out


def image_refinement(p: FanMorphism) -> StackyFan:
    """Coarsest subdivision of the target fan on whose cells the set of
    source cones mapping onto a neighborhood is constant, each cell with
    Q_kappa, the intersection of the image lattices p(N ∩ Span sigma) of
    those source cones with its span lattice.  Each image lattice is
    computed once per source cone.  The refined base is checked to be a
    fan, with sublattices that agree on faces.  It covers the target: the
    kernel checks that the pieces of each target cone cover that cone
    (`refine_by_images`)."""
    if not is_proper(p):
        raise ReductionError("the morphism is not proper onto the target support")
    images = [(img, image_lattice(p.lattice_map, span_sublattice(sigma)))
              for sigma, img in zip(p.source.cones, p.images)]
    sub: dict = {}
    for kappa in p.target.cones:
        # on a fan, an image whose relative interior meets kappa lies in its
        # assigned cone, which meets kappa in a common face: so in kappa
        inside = [pair for pair in images if kappa.contains_cone(pair[0])]
        sub.update(refine_by_images(kappa, inside, f"the base cone {kappa.rays}"))
    refined = Fan.from_cones(p.target.lattice, sub)
    report = validate_fan(refined)
    if not report:
        raise ReductionError("refined base is not a fan: " + "; ".join(report.violations))
    stacky = StackyFan.from_dict(refined, sub)
    report = validate_stacky_fan(stacky)
    if not report:
        raise ReductionError("base sublattices violate face compatibility: "
                             + "; ".join(report.violations))
    return stacky


# ---------------------------------------------------------------------------
# total lattices

def total_refinement(p: FanMorphism, base: StackyFan) -> tuple[StackyFan, StackyMorphism]:
    """Refine the source fan over the refined base and attach the preimage
    sublattices N_sigma = p^-1(Q_kappa) ∩ Span sigma, for kappa the base
    cone assigned to sigma.

    The total is a stacky fan by construction, given that the base passed
    `validate_stacky_fan`, so it is not validated.  Each N_sigma has finite
    index in N ∩ Span sigma: Q_kappa has finite index in Q ∩ Span kappa and
    p(Span sigma) ⊆ Span kappa.  Let tau <= sigma.  Then kappa(tau) <=
    kappa(sigma), p(Span tau) ⊆ Span kappa(tau), and the base agrees on
    faces, Q_kappa(tau) = Q_kappa(sigma) ∩ Span kappa(tau).  So
    N_sigma ∩ Span tau = p^-1(Q_kappa(sigma) ∩ Span kappa(tau)) ∩ Span tau
    = N_tau: the total agrees on faces.  Weak semistability and
    representability are checked."""
    refined_f, morph = minimal_modification(p.lattice_map, p.source, base.fan)
    sub = {}
    for sigma, kappa in morph.assignment:
        q_k = base.sublattice(kappa)
        sub[sigma] = intersect_sublattices(
            preimage_sublattice(p.lattice_map, q_k), span_sublattice(sigma))
    total = StackyFan.from_dict(refined_f, sub)
    sm = StackyMorphism(morph, total, base)
    ws = is_weakly_semistable(sm)
    if not ws:
        raise ReductionError(
            "constructed stacky morphism is not weakly semistable; failing cones: "
            + ", ".join(str(c.rays) for c in ws.failing_cones()))
    if not is_representable(sm):
        raise ReductionError("constructed stacky morphism is not representable")
    return total, sm


class ReductionResult(Record):
    base: StackyFan
    total: StackyFan
    stacky_map: StackyMorphism
    total_to_original: FanMorphism
    base_to_original: FanMorphism


def reduce(p: FanMorphism) -> ReductionResult:
    """The universal weakly semistable reduction of p.  Its source and
    target must be fans: FanError names the first that is not.

    Both maps to the original fans are modifications.  The refined base
    covers the target, as the kernel checked cone by cone in
    image_refinement, and lies in it.  The total covers the
    source: its cones are the cuts sigma ∩ p^-1(kappa) of the maximal
    cones, and the maximal cones kappa of the refined base cover the
    target support, which holds p(sigma), so the cuts of sigma cover
    sigma ∩ p^-1(∪ kappa) = sigma."""
    require_fans(p.source, p.target)
    base = image_refinement(p)
    total, sm = total_refinement(p, base)
    base_to_orig = FanMorphism(base.fan, p.target,
                               LatticeMap.identity_map(p.target.lattice))
    total_to_orig = FanMorphism(total.fan, p.source,
                                LatticeMap.identity_map(p.source.lattice))
    return ReductionResult(base, total, sm, total_to_orig, base_to_orig)


# ---------------------------------------------------------------------------
# the category of compatible alteration squares

class CategoryCObject(Record):
    """Commutative square: an alteration of the base, the fiber-product
    total space, a modification of the pulled-back source fan, and a weakly
    semistable projection."""

    alteration: FanMorphism   # (Gamma, Q') -> (G, Q)
    total: FanMorphism        # (Phi, N') -> (F, N)
    projection: FanMorphism   # (Phi, N') -> (Gamma, Q')


def _fiber_identification(p: LatticeMap, i: LatticeMap,
                          j: LatticeMap, pi: LatticeMap):
    """Matrix of the induced map N' -> N x_Q Q', or None when it is not an
    isomorphism."""
    fib, pr_n, pr_q = fiber_product_lattice(p, i)
    if fib.rank != j.domain.rank:
        return None
    # the fiber lattice is a kernel, so its inclusion has a saturated image
    emb = pr_n.matrix + pr_q.matrix  # stacked: (n + q') x fib_rank
    maps = j.matrix + pi.matrix
    matrix = matmul(left_inverse(emb), maps)
    if matmul(emb, matrix) != maps or abs(det(matrix)) != 1:
        return None
    return matrix


def validate_category_object(obj: CategoryCObject, p: FanMorphism,
                             kernel_variant: bool = False) -> ValidationReport:
    bad: list[str] = []
    i, j, pi = obj.alteration, obj.total, obj.projection
    if i.target != p.target:
        bad.append("alteration target is not the base fan of the family")
    if j.target != p.source:
        bad.append("total map target is not the source fan of the family")
    if pi.source != j.source or pi.target != i.source:
        bad.append("projection does not connect the total space to the altered base")
        return ValidationReport(tuple(bad))

    if not is_alteration(i):
        bad.append("the base map is not an alteration")

    left = matmul(p.lattice_map.matrix, j.lattice_map.matrix)
    right = matmul(i.lattice_map.matrix, pi.lattice_map.matrix)
    if left != right:
        bad.append("the square of lattice maps does not commute")

    if kernel_variant:
        ker_pi = kernel_lattice(pi.lattice_map)
        ker_p = kernel_lattice(p.lattice_map)
        if saturate(image_lattice(j.lattice_map, ker_pi)).basis != ker_p.basis:
            bad.append("kernels of the vertical maps do not coincide")
    else:
        if _fiber_identification(p.lattice_map, i.lattice_map,
                                 j.lattice_map, pi.lattice_map) is None:
            bad.append("the total lattice is not the fiber product of the base change")

    # the total fan must be a modification of the pulled-back source fan
    try:
        pulled = Fan.from_cones(j.source.lattice,
                                [preimage_cone(j.lattice_map, sigma)
                                 for sigma in p.source.cones])
        modified = is_modification(FanMorphism(
            j.source, pulled, LatticeMap.identity_map(j.source.lattice)))
    except ValueError:
        modified = False
    if not modified:
        bad.append("the total fan is not a modification of the pulled-back fan")

    ws = is_weakly_semistable(pi)
    if not ws:
        bad.append("the projection is not weakly semistable; failing cones: "
                   + ", ".join(str(c.rays) for c in ws.failing_cones()))
    return ValidationReport(tuple(bad))


class FactorCertificate(Record):
    """Forced cone assignments realizing the factorization through the
    reduced datum; forced because the lattice maps are fixed."""

    base_assignments: tuple[tuple[Cone, Cone], ...]
    total_assignments: tuple[tuple[Cone, Cone], ...]


def _forced_pairs(f: FanMorphism, reduced: StackyFan, name: str,
                  landing_hint: str, lattice_hint: str) -> tuple:
    """Each source cone of `f` with the reduced cone it is forced to map
    into, checking that its lattice points land in that cone's sublattice."""
    pairs = []
    for c, img in zip(f.source.cones, f.images):
        try:
            target = minimal_containing_cone(reduced.fan, img)
        except FanError:
            raise NoFactorization(
                f"{name} cone {c.rays} does not land in a single refined cone; "
                + landing_hint)
        moved = image_lattice(f.lattice_map, span_sublattice(c))
        if not reduced.sublattice(target).contains_sublattice(moved):
            raise NoFactorization(
                f"{name} cone {c.rays} carries lattice points outside the "
                f"reduced {name} sublattice; " + lattice_hint)
        pairs.append((c, target))
    return tuple(pairs)


def factor_through(obj: CategoryCObject, red: ReductionResult) -> FactorCertificate:
    return FactorCertificate(
        _forced_pairs(obj.alteration, red.base, "base",
                      "re-check that the base map is an alteration compatible "
                      "with the family", "re-check the fiber-product condition"),
        _forced_pairs(obj.total, red.total, "total",
                      "re-check that the total fan refines the pulled-back fan",
                      "re-check weak semistability of the projection"))


def universal_minimal_modification(red: ReductionResult,
                                   i: FanMorphism) -> CategoryCObject:
    """Smallest compatible square over a given base alteration: the fiber
    of the reduced total fan with the (refined) altered base."""
    p = red.stacky_map.underlying
    if i.target != red.base_to_original.target:
        raise ReductionError("the alteration must target the original base fan")
    if not is_alteration(i):
        raise ReductionError("the base map is not an alteration")
    gamma_refined, i_refined = minimal_modification(i.lattice_map, i.source,
                                                    red.base.fan)
    p_orig = FanMorphism(red.total_to_original.target, red.base_to_original.target,
                         p.lattice_map)
    phi_fan, to_total, pi = toric_fiber_product(p, i_refined)
    j = FanMorphism(phi_fan, red.total_to_original.target, to_total.lattice_map)
    # the projection targets the refined altered base, so the returned
    # square carries the refinement of the given alteration
    i_refined_to_g = FanMorphism(gamma_refined, i.target, i.lattice_map)
    obj = CategoryCObject(i_refined_to_g, j, pi)
    report = validate_category_object(obj, p_orig)
    if not report:
        error = ReductionError("constructed square is invalid: "
                               + "; ".join(report.violations))
        if len(report.violations) == 1 and not is_weakly_semistable(pi):
            # i is an alteration, and the one violation is the projection's
            error = NoFactorization("the family does not factor over the alteration: "
                                    + report.violations[0])
        raise error
    return obj
