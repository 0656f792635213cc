"""The argument checks of the constructors and entry points of `lattice`,
`cone`, `fan` and `monoid`, each reached by a direct call with mismatched
arguments, and the early answers of predicates on degenerate input: the
empty generating set, the zero lattice, a cone with a line, a
non-injective map.  Each names what it checks in its message, asserted in
full."""
import re

import pytest

from semistable.cone import Cone, ConeError, intersect
from semistable.fan import (
    Fan,
    FanError,
    FanMorphism,
    StackyFan,
    StackyMorphism,
    base_change_along_alteration,
    cartesian_check,
    is_smooth_fan,
    minimal_modification,
    toric_fiber_product,
    validate_fan,
    validate_stacky_fan,
)
from semistable.lattice import (
    Lattice,
    LatticeMap,
    Sublattice,
    det,
    fiber_product_lattice,
    full_sublattice,
    kernel_basis,
    lattice_index,
    pushout_lattice,
    sublattice_from_vectors,
    zero_sublattice,
)
from semistable.monoid import (
    AffineMonoid,
    MonoidError,
    MonoidMap,
    _lattice_certificate,
    hilbert_basis,
    integral_by_flatness,
    monoid_membership,
)


def cone(rank, *gens):
    return Cone.from_generators(rank, gens)


def lmap(rows, domain=None):
    return LatticeMap(Lattice(domain if domain is not None else len(rows[0])),
                      Lattice(len(rows)), rows)


def ident(n):
    return LatticeMap.identity_map(Lattice(n))


def quadrant_fan():
    return Fan.from_cones(2, [cone(2, (1, 0), (0, 1))])


def halfline_fan():
    return Fan.from_cones(1, [cone(1, (1,))])


def projection():
    """The quadrant onto the half line by the first coordinate."""
    return FanMorphism(quadrant_fan(), halfline_fan(), lmap(((1, 0),)))


def doubling():
    return FanMorphism(halfline_fan(), halfline_fan(), lmap(((2,),)))


def stacky(f):
    return StackyFan.from_dict(f, {})


# (module, the call, the error it raises, its message)
ARGUMENT_CHECKS = [
    ("lattice", lambda: Lattice(-1), ValueError, "rank must be nonnegative"),
    ("lattice", lambda: det(((1, 2),)), ValueError,
     "determinant of a matrix that is not square"),
    ("lattice", lambda: LatticeMap(Lattice(2), Lattice(1), ((1, 0, 0),)), ValueError,
     "matrix column count does not match domain rank"),
    ("lattice", lambda: ident(2).compose(ident(3)), ValueError, "maps are not composable"),
    ("lattice", lambda: Sublattice(Lattice(2), ((1,),)), ValueError,
     "basis row count does not match ambient rank"),
    ("lattice", lambda: lattice_index(full_sublattice(Lattice(1)), full_sublattice(Lattice(2))),
     ValueError, "sublattices have different ambient lattices"),
    ("lattice", lambda: fiber_product_lattice(ident(1), ident(2)), ValueError,
     "maps do not share a codomain"),
    ("lattice", lambda: pushout_lattice(ident(1), ident(2)), ValueError,
     "maps do not share a domain"),
    ("cone", lambda: intersect(cone(1, (1,)), cone(2, (1, 0))), ConeError,
     "cones live in different lattices"),
    ("fan", lambda: Fan.from_cones(2, [cone(1, (1,))]), FanError,
     "cone lattice does not match the fan lattice"),
    ("fan", lambda: stacky(halfline_fan()).sublattice(cone(1, (-1,))), FanError,
     "cone ((-1,),) is not in the stacky fan"),
    ("fan", lambda: StackyMorphism(projection(), stacky(halfline_fan()),
                                   stacky(halfline_fan())), FanError,
     "underlying morphism does not match the stacky fans"),
    ("fan", lambda: StackyMorphism(doubling(), stacky(halfline_fan()), StackyFan.from_dict(
        halfline_fan(), {cone(1, (1,)): sublattice_from_vectors(Lattice(1), [(4,)])})),
     FanError, "image of the sublattice of ((1,),) escapes the base sublattice"),
    ("fan", lambda: minimal_modification(ident(1), quadrant_fan(), quadrant_fan()), FanError,
     "lattice map does not match the fans"),
    ("fan", lambda: toric_fiber_product(projection(), FanMorphism(
        quadrant_fan(), quadrant_fan(), ident(2))), FanError,
     "fiber product requires a shared target"),
    ("fan", lambda: cartesian_check(projection(), FanMorphism(
        quadrant_fan(), quadrant_fan(), ident(2))), FanError,
     "cartesian check requires a shared target"),
    ("fan", lambda: base_change_along_alteration(projection(), ident(2)), FanError,
     "inclusion codomain must be the base lattice"),
    ("monoid", lambda: AffineMonoid(Lattice(1), ((-1,),), saturation_cone=cone(1, (1,))),
     MonoidError, "generator (-1,) outside the saturation cone"),
    ("monoid", lambda: MonoidMap(AffineMonoid(Lattice(1), ((1,),)),
                                 AffineMonoid(Lattice(2), ((1, 0),)), ident(1)),
     MonoidError, "lattice map does not match monoid lattices"),
]


@pytest.mark.parametrize("module,call,error,message", ARGUMENT_CHECKS,
                         ids=[m for m, *_ in ARGUMENT_CHECKS])
def test_argument_check_raises(module, call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


# a half plane: a cone with the line x = 0 in it
HALF_PLANE = cone(2, (0, 1), (0, -1), (1, 0))
SQUARE = cone(3, (1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1))

# (module, the call, its answer)
EARLY_ANSWERS = [
    ("lattice", lambda: kernel_basis(((),)), []),
    ("lattice", lambda: full_sublattice(Lattice(1)) <= zero_sublattice(Lattice(1)), False),
    ("fan", lambda: validate_fan(Fan(Lattice(2), (HALF_PLANE,))).violations[0],
     "cone ((1, 0),) is not strictly convex"),
    # the quadrant alone, without its faces, has no face to compare
    ("fan", lambda: bool(validate_stacky_fan(StackyFan(
        Fan(Lattice(2), (cone(2, (1, 0), (0, 1)),)),
        ((cone(2, (1, 0), (0, 1)), full_sublattice(Lattice(2))),)))), True),
    ("fan", lambda: is_smooth_fan(Fan.from_cones(3, [SQUARE])), False),
    ("monoid", lambda: hilbert_basis(cone(1, (1,)), zero_sublattice(Lattice(1))), []),
    ("monoid", lambda: monoid_membership((1,), AffineMonoid(Lattice(1), ())), (False, None)),
    ("monoid", lambda: AffineMonoid(Lattice(1), ()).contains((1,)), False),
    ("monoid", lambda: _lattice_certificate(ident(2), HALF_PLANE, full_sublattice(Lattice(2)),
                                            full_sublattice(Lattice(2))), None),
    ("monoid", lambda: integral_by_flatness(MonoidMap(
        AffineMonoid(Lattice(2), ((1, 0),)), AffineMonoid(Lattice(1), ((1,),)),
        lmap(((1, 0),)))), False),
]


@pytest.mark.parametrize("module,call,answer", EARLY_ANSWERS,
                         ids=[m for m, *_ in EARLY_ANSWERS])
def test_early_answer(module, call, answer):
    assert call() == answer
