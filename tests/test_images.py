"""What a morphism computes once, when it is built, against the per-call
derivations it replaced (kept in `tests/oracles.py`): the image of every
source cone or cell, `image_of` against a scan of the assignment, and the
one relative-interior lookup, `relint_owner`, against the three scans it
replaced, each with a hit and a miss.  The morphisms are every stored
fan and complex morphism, each fan morphism also as a complex, and random
projections of rank 1 to 3."""
import os

import pytest
from hypothesis import HealthCheck, assume, given, settings

import oracles
from semistable.cli import DocumentError, load_document
from semistable.cone import Cone, relint_owner
from semistable.conecomplex import _owner_face, fan_morphism_as_complex
from semistable.fan import FanError, minimal_containing_cone
from semistable.lattice import vec_neg
from semistable.reduction import ReductionError
from test_conecomplex import ray_collapsed_over_halfline, two_copies_morphism
from test_support import DOCUMENTS, ROOT, morphism, projections


def _stored(kind):
    found = []
    for path in DOCUMENTS:
        with open(path) as fh:
            try:
                _, m = load_document(fh.read(), (kind,))
            except DocumentError:
                continue
        found.append((os.path.relpath(path, ROOT), m))
    return found


FAN_MORPHISMS = _stored("fan_morphism")
COMPLEX_MORPHISMS = (_stored("complex_morphism")
                     + [(f"{name} as a complex", fan_morphism_as_complex(p))
                        for name, p in FAN_MORPHISMS]
                     + [("two copies over the half line", two_copies_morphism()),
                        ("ray collapsed over the half line", ray_collapsed_over_halfline())])


def assert_lookups_match_scans(cells):
    """Every face sample of every cell hits its face, and the negated
    sample of a nonzero strictly convex cell misses every face."""
    for cell in cells:
        faces = cell.faces()
        for f in faces:
            sample = f.interior_sample()
            assert relint_owner(faces, sample) == oracles.target_piece_scan(faces, sample) == f
            assert (_owner_face(cell, sample) == oracles.owner_face_scan(cell, sample)
                    == (None if f == cell else f))
        if cell.dim == 0:
            continue
        outside = vec_neg(cell.interior_sample())
        assert relint_owner(faces, outside) is None
        with pytest.raises(StopIteration):
            oracles.target_piece_scan(faces, outside)
        for lookup in (_owner_face, oracles.owner_face_scan):
            with pytest.raises(ReductionError,
                               match="^a subdivision cell escapes its chart cell$"):
                lookup(cell, outside)


def assert_fan_morphism_matches_scans(p):
    assert p.images == oracles.images_mapped_again(p)
    assert [s for s, _ in p.assignment] == list(p.source.cones)
    for (sigma, kappa), img in zip(p.assignment, p.images):
        assert p.image_of(sigma) == oracles.image_of_scan(p, sigma) == kappa
        assert (minimal_containing_cone(p.target, img)
                == oracles.minimal_containing_cone_scan(p.target, img) == kappa)
        sample = img.interior_sample()
        assert (relint_owner(p.target.cones, sample)
                == oracles.target_piece_scan(p.target.cones, sample) == kappa)
    # a cone of another lattice is in no source fan
    stranger = Cone.zero(p.source.lattice.rank + 1)
    for lookup in (p.image_of, lambda c: oracles.image_of_scan(p, c)):
        with pytest.raises(FanError, match=r"^cone \(\) is not in the source fan$"):
            lookup(stranger)
    assert_lookups_match_scans(p.target.maximal_cones())
    assert fan_morphism_as_complex(p).images == p.images


def test_stored_morphisms_are_found():
    # 26 fan and 2 complex morphism documents when written
    assert len(FAN_MORPHISMS) >= 26
    assert len(COMPLEX_MORPHISMS) >= len(FAN_MORPHISMS) + 4


@pytest.mark.parametrize("p", [p for _, p in FAN_MORPHISMS],
                         ids=[name for name, _ in FAN_MORPHISMS])
def test_stored_fan_morphisms_match_the_scans(p):
    assert_fan_morphism_matches_scans(p)


@pytest.mark.parametrize("m", [m for _, m in COMPLEX_MORPHISMS],
                         ids=[name for name, _ in COMPLEX_MORPHISMS])
def test_stored_complex_morphisms_match_the_scans(m):
    assert m.images == oracles.images_mapped_again(m)
    assert_lookups_match_scans(m.target.cells)


def test_random_projections_match_the_scans():
    ranks = set()

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(projections())
    def check(case):
        source, target, rows = case
        try:
            p = morphism(source, target, rows)
        except FanError:
            assume(False)
        assert_fan_morphism_matches_scans(p)
        ranks.add(source.lattice.rank)

    check()
    assert ranks == {1, 2, 3}
