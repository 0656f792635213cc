"""The cone-by-cone support predicates against a whole-space oracle, and
the checks made on maximal cones against every-pair oracles.

The whole-space oracle cuts all of R^n by every facet and span equation of
the cones involved and compares supports at one interior sample per cell,
the way the library did before the checks were made cone by cone.
"""
import functools
import glob
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from semistable.cli import DocumentError, load_document
from semistable.cone import Cone, image_cone, intersect, preimage_cone
from semistable.conecomplex import (
    _cut_source_cell,
    _run_target_cell,
    fan_morphism_as_complex,
)
from semistable.fan import (
    Fan,
    FanError,
    FanMorphism,
    _every_pair,
    covers,
    decompose_by_hyperplanes,
    is_alteration,
    is_modification,
    is_proper,
    minimal_modification,
    toric_fiber_product,
    validate_fan,
)
from semistable.lattice import Lattice, LatticeMap, det, identity
from semistable.reduction import ReductionError, image_refinement


# ---------------------------------------------------------------------------
# the whole-space oracle

def _functionals(cones):
    return {h for c in cones for h in c.facets + c.span_equations}


@functools.lru_cache(maxsize=None)
def _whole_space_samples(rank, functionals):
    """One interior sample per cell of R^rank cut by the functionals."""
    gens = [tuple(s if j == i else 0 for j in range(rank))
            for i in range(rank) for s in (1, -1)]
    space = Cone.from_generators(rank, gens)
    return [cell.interior_sample()
            for cell in decompose_by_hyperplanes(space, functionals)]


def _samples(rank, functionals):
    return _whole_space_samples(rank, tuple(sorted(functionals)))


def _in(cones, v):
    return any(c.contains(v) for c in cones)


def oracle_covers(cell, cones, samples=None):
    """`samples` may come from any arrangement refining the one cut by the
    cell and the cones."""
    inside = [c for c in cones if cell.contains_cone(c)]
    if samples is None:
        samples = _samples(cell.lattice.rank, _functionals([cell] + inside))
    return all(_in(inside, s) or not cell.contains(s) for s in samples)


def _target_samples(m, images):
    return _samples(m.target.lattice.rank,
                    _functionals(list(m.target.cones) + images))


def oracle_proper(m, images):
    return all(_in(images, s) or not _in(m.target.cones, s)
               for s in _target_samples(m, images))


def _supports_agree(m):
    """s in |source| iff p(s) in |target|, over cells cut by the source
    functionals and the target functionals pulled back along p."""
    p = m.lattice_map
    pulled = set()
    for u in _functionals(m.target.cones):
        v = tuple(sum(u[i] * p.matrix[i][j] for i in range(len(u)))
                  for j in range(p.domain.rank))
        if any(v):
            pulled.add(v)
    return all(_in(m.source.cones, s) == _in(m.target.cones, p(s))
               for s in _samples(p.domain.rank,
                                 _functionals(m.source.cones) | pulled))


def assert_agrees(m):
    p = m.lattice_map
    images = [image_cone(p, sigma) for sigma in m.source.cones]
    assert is_proper(m) == oracle_proper(m, images)
    square = p.domain.rank == p.codomain.rank and det(p.matrix) != 0
    agree = square and _supports_agree(m)
    assert is_alteration(m) == agree
    assert is_modification(m) == (
        agree and p == LatticeMap.identity_map(m.source.lattice))
    samples = _target_samples(m, images)
    for kappa in m.target.cones:
        assert covers(kappa, images) == oracle_covers(kappa, images, samples)


# ---------------------------------------------------------------------------
# fans from stellar subdivisions of the positive orthant

def orthant(rank):
    return Cone.from_generators(rank, identity(rank))


def stellar(rank, points, drop=None):
    """Subdivide the orthant stellarly at each point in turn: every maximal
    cone containing the point is replaced by the joins of the point with
    its facets that miss it.  `drop` removes one maximal cone."""
    maximal = [orthant(rank)]
    for v in points:
        nxt = []
        for sigma in maximal:
            if not sigma.contains(v):
                nxt.append(sigma)
                continue
            for face in sigma.faces():
                if face.dim == sigma.dim - 1 and not face.contains(v):
                    nxt.append(Cone.from_generators(rank, face.rays + (v,)))
        maximal = nxt
    if drop is not None:
        del maximal[drop % len(maximal)]
    return Fan.from_cones(rank, maximal)


def morphism(source, target, rows):
    return FanMorphism(source, target,
                       LatticeMap(source.lattice, target.lattice, rows))


# the whole-space oracle grows fast in rank 3: one small point at most
MOST_POINTS = {1: 2, 2: 2, 3: 1}
LARGEST = {1: 3, 2: 3, 3: 2}


def points(rank, most=None):
    most = MOST_POINTS[rank] if most is None else most
    return st.lists(st.tuples(*[st.integers(1, LARGEST[rank])] * rank),
                    max_size=most)


drops = st.none() | st.integers(0, 7)


@st.composite
def refinements(draw):
    """A subdivision over a coarser one of the same orthant, by the
    identity or a diagonal matrix."""
    rank = draw(st.integers(1, 3))
    coarse = draw(points(rank))
    fine = coarse + draw(points(rank, MOST_POINTS[rank] - len(coarse)))
    diagonal = draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank))
    rows = tuple(tuple(d if i == j else 0 for j in range(rank))
                 for i, d in enumerate(diagonal))
    return (stellar(rank, fine, draw(drops)),
            stellar(rank, coarse, draw(drops)), rows)


@st.composite
def projections(draw):
    """A subdivided orthant mapped by a small nonnegative matrix onto a
    subdivided orthant of rank at most 3."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    rows = tuple(tuple(draw(st.integers(0, 2)) for _ in range(n))
                 for _ in range(k))
    return (stellar(n, draw(points(n)), draw(drops)),
            stellar(k, draw(points(k)), draw(drops)), rows)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(refinements(), projections()))
def test_predicates_agree_with_whole_space_oracle(case):
    source, target, rows = case
    try:
        m = morphism(source, target, rows)
    except FanError:
        assume(False)
    assert_agrees(m)


# ---------------------------------------------------------------------------
# fixed cases with both outcomes

C = (1, 1, 1)
S_CONES = [((1, 0, 0), (0, 1, 0), C), ((0, 1, 0), (0, 0, 1), C),
           ((1, 0, 0), (0, 0, 1), C)]
QUAD_ROWS = ((1, 1, 0), (0, 1, 2))


def s_fan(keep=(0, 1, 2)):
    return Fan.from_cones(3, [Cone.from_generators(3, S_CONES[i]) for i in keep])


def quadrant():
    return Fan.from_cones(2, [orthant(2)])


def octant():
    return Fan.from_cones(3, [orthant(3)])


@pytest.mark.parametrize("keep,proper", [
    ((0, 1, 2), True),
    # dropping one cone keeps S -> quadrant proper: the image of {e1,e3,c}
    # is the whole quadrant, and those of {e1,e2,c} (0..56 degrees) and
    # {e2,e3,c} (45..90 degrees) overlap
    ((0, 1), True),
    ((1, 2), True),
    ((0,), False),
    ((1,), False),
])
def test_s_to_quadrant(keep, proper):
    m = morphism(s_fan(keep), quadrant(), QUAD_ROWS)
    assert is_proper(m) is proper
    assert_agrees(m)


@pytest.mark.parametrize("keep,modification", [
    ((0, 1, 2), True),
    ((0, 1), False),
])
def test_s_to_octant(keep, modification):
    m = morphism(s_fan(keep), octant(), identity(3))
    assert is_modification(m) is modification
    assert is_alteration(m) is modification
    assert_agrees(m)


@pytest.mark.parametrize("drop,alteration", [(None, True), (0, False)])
def test_scaled_blowup_is_alteration_not_modification(drop, alteration):
    m = morphism(stellar(2, [(1, 1)], drop), quadrant(), ((2, 0), (0, 1)))
    assert is_alteration(m) is alteration
    assert not is_modification(m)
    assert_agrees(m)


def test_singular_map_onto_a_ray_is_proper_not_alteration():
    ray = Fan.from_cones(2, [Cone.from_generators(2, [(1, 0)])])
    m = morphism(quadrant(), ray, ((1, 1), (0, 0)))
    assert is_proper(m)
    assert not is_alteration(m) and not is_modification(m)
    assert_agrees(m)


def test_covers_skips_lower_dimensional_cones():
    quad = orthant(2)
    halves = [Cone.from_generators(2, [(1, 0), (1, 1)]),
              Cone.from_generators(2, [(1, 1), (0, 1)])]
    assert covers(quad, halves)
    ray = Cone.from_generators(2, [(1, 1)])
    assert not covers(quad, halves[:1] + [ray])
    assert not oracle_covers(quad, halves[:1] + [ray])
    # a cone outside the cell does not count towards covering it
    assert not covers(quad, [Cone.from_generators(2, [(1, 0), (-1, 1)])])
    assert covers(Cone.zero(Lattice(2)), [Cone.zero(Lattice(2))])


# ---------------------------------------------------------------------------
# validate_fan decides on maximal cones: the every-pair enumeration agrees

@st.composite
def corrupted_fans(draw):
    """A stellar fan, left valid or broken one way: a cone sticking out of
    the orthant from its interior (with its faces), a cone removed, a cone
    listed twice, or a ray inside a maximal cone that is not a face of it."""
    rank = draw(st.integers(1, 3))
    fan = stellar(rank, draw(points(rank)), draw(drops))
    cones = list(fan.cones)
    kind = draw(st.sampled_from(["valid", "overlap", "missing", "duplicate", "inner"]))
    i = draw(st.integers(0, len(cones) - 1))
    if kind == "overlap":
        assume(rank >= 2)
        inside = draw(st.tuples(*[st.integers(1, 2)] * rank))
        outside = (-1,) + draw(st.tuples(*[st.integers(0, 2)] * (rank - 1)))
        extra = Cone.from_generators(rank, [inside, outside])
        cones = sorted(set(cones) | set(extra.faces()))
    elif kind == "missing":
        del cones[i]
    elif kind == "duplicate":
        cones.insert(i, cones[i])
    elif kind == "inner":
        big = [c for c in fan.maximal_cones() if c.dim >= 2]
        assume(big)
        inner = Cone.from_generators(rank, [big[i % len(big)].interior_sample()])
        cones = sorted(set(cones) | {inner})
    return Fan(Lattice(rank), tuple(cones))


def test_validate_fan_agrees_with_every_pair():
    outcomes = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(corrupted_fans())
    def check(fan):
        report = validate_fan(fan)
        assert report == _every_pair(fan)
        outcomes.add(bool(report))

    check()
    assert outcomes == {True, False}


def _faces(*cones):
    return {f for c in cones for f in c.faces()}


QUAD = orthant(2)
RAY_11 = Cone.from_generators(2, [(1, 1)])
LOW, HIGH = (Cone.from_generators(2, [(1, 0), (1, 1)]),
             Cone.from_generators(2, [(1, 1), (0, 1)]))
OVER = Cone.from_generators(2, [(1, 2), (1, 0)])


@pytest.mark.parametrize("cones,valid", [
    (sorted(_faces(LOW, HIGH)), True),
    # one maximal cone with all of its faces present, and one more ray
    (sorted(_faces(QUAD) | {RAY_11}), False),
    (sorted(_faces(OVER, HIGH)), False),
    (sorted(_faces(QUAD) - {Cone.from_generators(2, [(1, 0)])}), False),
    (sorted(_faces(QUAD)) + [QUAD], False),
], ids=["blowup", "inner-ray", "overlap", "missing-face", "duplicate"])
def test_validate_fan_on_fixed_fans(cones, valid):
    fan = Fan(Lattice(2), tuple(cones))
    assert bool(validate_fan(fan)) is valid
    assert validate_fan(fan) == _every_pair(fan)


def test_inner_ray_leaves_one_maximal_cone():
    fan = Fan(Lattice(2), tuple(sorted(_faces(QUAD) | {RAY_11})))
    assert fan.maximal_cones() == [QUAD]


# ---------------------------------------------------------------------------
# minimal_modification intersects maximal cones: every pair agrees

def oracle_minimal_modification(p_map, f, g):
    """Intersect every target preimage with every source cone."""
    pieces = [intersect(preimage_cone(p_map, kappa), sigma)
              for kappa in g.cones for sigma in f.cones]
    return Fan.from_cones(f.lattice, [c for c in pieces if c.is_strictly_convex])


def assert_same_modification(p_map, f, g):
    assert minimal_modification(p_map, f, g)[0] == oracle_minimal_modification(p_map, f, g)


ROOT = os.path.join(os.path.dirname(__file__), "..")
DOCUMENTS = sorted(glob.glob(os.path.join(ROOT, "tests", "data", "*.json"))
                   + glob.glob(os.path.join(ROOT, "perfbench", "inputs", "*.json")))


def _fan_morphism(path):
    with open(path) as fh:
        try:
            _, p = load_document(fh.read(), ("fan_morphism",))
        except DocumentError:
            return None
    if validate_fan(p.source) and validate_fan(p.target):
        return p
    return None


FAN_MORPHISMS = [(os.path.relpath(path, ROOT), p)
                 for path in DOCUMENTS if (p := _fan_morphism(path)) is not None]


def test_stored_fan_morphisms_are_found():
    # 25 when written: every stored fan morphism but the two overlapping ones
    assert len(FAN_MORPHISMS) >= 25


@pytest.mark.parametrize("p", [p for _, p in FAN_MORPHISMS],
                         ids=[name for name, _ in FAN_MORPHISMS])
def test_minimal_modification_agrees_with_every_pair_on_documents(p):
    # over the target itself, and over the refined base of a reduction
    assert_same_modification(p.lattice_map, p.source, p.target)
    try:
        base, _ = image_refinement(p)
    except ReductionError:
        return
    assert_same_modification(p.lattice_map, p.source, base)


@pytest.mark.parametrize("p", [p for _, p in FAN_MORPHISMS],
                         ids=[name for name, _ in FAN_MORPHISMS])
def test_source_cells_cut_by_maximal_pieces_agree_with_every_piece(p):
    m = fan_morphism_as_complex(p)
    try:
        runs = [_run_target_cell(m, t) for t in range(len(m.target.cells))]
    except ReductionError:
        return
    for s, sigma in enumerate(m.source.cells):
        run = runs[m.assignment[s]]
        top = Fan(p.target.lattice, run.pieces).maximal_cones()
        assert (_cut_source_cell(sigma, m.cell_maps[s], m.images[s], top)
                == oracles.cut_by_all_pieces(sigma, m.cell_maps[s], run.pieces))


# each distinct morphism once (the benchmark inputs repeat test documents);
# the every-pair oracle takes a minute on S^4 -> quad with itself, so the
# pairs stop at source rank 3
DISTINCT = [(name, p) for i, (name, p) in enumerate(FAN_MORPHISMS)
            if p not in [q for _, q in FAN_MORPHISMS[:i]] and p.source.lattice.rank <= 3]
SHARED_TARGETS = [(f"{a}|{b}", p, q) for a, p in DISTINCT for b, q in DISTINCT
                  if p.target == q.target]


def test_stored_fan_morphism_pairs_with_a_shared_target_are_found():
    # 126 when written, 110 of them of two different morphisms
    assert len(SHARED_TARGETS) >= 126
    assert sum(p != q for _, p, q in SHARED_TARGETS) >= 110


@pytest.mark.parametrize("p,q", [(p, q) for _, p, q in SHARED_TARGETS],
                         ids=[name for name, _, _ in SHARED_TARGETS])
def test_fiber_product_from_maximal_pairs_agrees_with_every_pair(p, q):
    assert toric_fiber_product(p, q)[0] == oracles.every_pair_fiber_product(p, q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(refinements(), projections()))
def test_minimal_modification_agrees_with_every_pair(case):
    source, target, rows = case
    assert_same_modification(LatticeMap(source.lattice, target.lattice, rows),
                             source, target)
