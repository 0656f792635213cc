"""`Record`, the base of the package's value classes, against the frozen
dataclass with the same fields (`oracles.frozen_dataclass_twin`): the
constructor's signature, equality, hashing, repr, immutability, defaults,
`__post_init__` and cached properties, on sample instances of every record
class of the package."""
import inspect
import itertools

import pytest

import oracles
from semistable import conecomplex, fan
from semistable.cone import Cone
from semistable.conecomplex import (
    ComplexMorphism,
    ComplexReductionResult,
    ConeComplex,
    Gluing,
    StackyComplex,
    fan_as_complex,
    fan_morphism_as_complex,
    reduce_complex,
)
from semistable.fan import (
    CartesianReport,
    Fan,
    FanMorphism,
    StackyFan,
    StackyMorphism,
    ValidationReport,
    WeakSemistabilityReport,
    cartesian_check,
    is_weakly_semistable,
)
from semistable.lattice import (
    FrozenInstanceError,
    Lattice,
    LatticeMap,
    LatticePushout,
    Record,
    SNFDecomposition,
    Sublattice,
    identity,
    mat,
    pushout_lattice,
    smith_normal_form,
    sublattice_from_vectors,
)
from semistable.monoid import AffineMonoid, MonoidMap, dual_monoid
from semistable.reduction import (
    CategoryCObject,
    FactorCertificate,
    ReductionResult,
    factor_through,
    reduce,
    universal_minimal_modification,
)


def lmap(rows):
    rows = mat(rows)
    return LatticeMap(Lattice(len(rows[0])), Lattice(len(rows)), rows)


def cone(rank, *gens):
    return Cone.from_generators(rank, gens)


def _samples():
    """Two unequal instances of every record class, each built afresh."""
    z2 = Lattice(2)
    quadrant = cone(2, (1, 0), (0, 1))
    quad = Fan.from_cones(2, [quadrant])
    blowup = Fan.from_cones(2, [cone(2, (1, 0), (1, 1)), cone(2, (1, 1), (0, 1))])
    half = Fan.from_cones(1, [cone(1, (1,))])
    semi = FanMorphism(blowup, half, lmap([[1, 1]]))
    proj = FanMorphism(quad, half, lmap([[1, 0]]))
    double = FanMorphism(half, half, lmap([[2]]))
    red, red_proj = reduce(semi), reduce(proj)
    square = universal_minimal_modification(red, double)
    complex_red = reduce_complex(fan_morphism_as_complex(semi))
    complex_proj = reduce_complex(fan_morphism_as_complex(proj))
    blowup_cx = fan_as_complex(blowup)
    saturated = dual_monoid(quadrant)
    index_two = AffineMonoid(z2, ((1, 0), (1, 2)))
    two = lmap([[2]])
    return {
        SNFDecomposition: [smith_normal_form(((2, 0), (0, 3))), smith_normal_form(((1,),))],
        Lattice: [Lattice(1), z2],
        LatticeMap: [lmap([[1, 1]]), two],
        Sublattice: [sublattice_from_vectors(z2, [(1, 1)]),
                     Sublattice(z2, ((2, 0), (0, 1)))],
        LatticePushout: [pushout_lattice(two, lmap([[3]])), pushout_lattice(two, two)],
        Cone: [quadrant, cone(2, (1, 0))],
        Fan: [quad, half],
        ValidationReport: [ValidationReport(()), ValidationReport(("bad",))],
        StackyFan: [red.base, red.total],
        FanMorphism: [semi, proj],
        StackyMorphism: [red.stacky_map, red_proj.stacky_map],
        WeakSemistabilityReport: [is_weakly_semistable(semi), is_weakly_semistable(proj)],
        CartesianReport: [cartesian_check(proj, proj), cartesian_check(double, double)],
        fan._Fiber: [fan._Fiber(two, two, two, two, pushout_lattice(two, two), (), ()),
                     fan._Fiber(two, two, two, two, pushout_lattice(two, two), ((2,),), ())],
        Gluing: [blowup_cx.gluings[0], blowup_cx.gluings[1]],
        ConeComplex: [fan_as_complex(quad), blowup_cx],
        ComplexMorphism: [fan_morphism_as_complex(semi), fan_morphism_as_complex(proj)],
        StackyComplex: [complex_red.base, complex_red.total],
        ComplexReductionResult: [complex_red, complex_proj],
        conecomplex._CellRun: [conecomplex._CellRun((), {}),
                               conecomplex._CellRun((quadrant,), {0: 1})],
        AffineMonoid: [saturated, index_two],
        MonoidMap: [MonoidMap(index_two, saturated, LatticeMap.identity_map(z2)),
                    MonoidMap(index_two, index_two, LatticeMap(z2, z2, identity(2)))],
        ReductionResult: [red, red_proj],
        CategoryCObject: [square, CategoryCObject(double, semi, semi)],
        FactorCertificate: [factor_through(square, red), FactorCertificate((), ())],
    }


SAMPLES = _samples()
# both sets built afresh, so equal records are mostly distinct objects
PAIRS = {cls: first + second for (cls, first), second
         in zip(SAMPLES.items(), _samples().values())}
CLASSES = sorted(SAMPLES, key=lambda c: c.__qualname__)


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def _twin(record):
    return oracles.frozen_dataclass_twin(type(record))(*_values(record))


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def test_every_record_class_has_samples():
    package = {c for c in Record.__subclasses__() if c.__module__.startswith("semistable.")}
    assert package == set(SAMPLES)
    for cls, (a, b) in SAMPLES.items():
        assert type(a) is cls and type(b) is cls and a != b


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_signature_matches_the_dataclass(cls):
    params = inspect.signature(cls).parameters
    twin = inspect.signature(oracles.frozen_dataclass_twin(cls)).parameters
    assert [(p.name, p.default, p.kind) for p in params.values()] \
        == [(p.name, p.default, p.kind) for p in twin.values()]


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not Cone],
                         ids=lambda c: c.__qualname__)
def test_equality_hash_and_repr_match_the_dataclass(cls):
    records = PAIRS[cls]
    twins = [_twin(r) for r in records]
    for (x, tx), (y, ty) in itertools.product(zip(records, twins), repeat=2):
        assert (x == y) is (tx == ty)
        assert (x != y) is (tx != ty)
    for x, tx in zip(records, twins):
        assert _hash(x) == _hash(tx)
        assert repr(x) == repr(tx)
        assert x != _values(x) and x.__eq__(_values(x)) is NotImplemented
        assert x != tx
        # the fields rebuild an equal record through __init__
        assert cls(*_values(x)) == x


def test_a_one_field_record_is_not_its_value():
    assert Lattice(2) != (2,) and (2,) != Lattice(2)
    assert Lattice(2) != 2
    assert hash(Lattice(3)) == hash((3,))
    assert hash(ValidationReport(("bad",))) == hash((("bad",),))
    assert {Lattice(3): 1}.get((3,)) is None


def test_cone_keeps_its_own_comparisons():
    # the body's __eq__, __hash__ and __lt__, on (lattice, rays, lines)
    for name in ("__eq__", "__hash__", "__lt__"):
        assert getattr(Cone, name).__code__.co_filename.endswith("cone.py")
    a, b = PAIRS[Cone][0], PAIRS[Cone][1]
    assert hash(a) == hash((a.lattice, a.rays, a.lines))
    assert a == Cone(a.lattice, a.rays, a.lines, (), (), None)
    assert a != b and b < a
    assert repr(a) == repr(_twin(a))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_generated_methods_fill_only_what_the_body_leaves_out(cls):
    for name in ("__init__", "__eq__", "__hash__"):
        method = vars(cls)[name]
        assert method.__qualname__ == f"{cls.__qualname__}.{name}"
        generated = method.__code__.co_filename == "<string>"
        assert generated is not (cls is Cone and name != "__init__")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_fields_are_frozen(cls):
    x = SAMPLES[cls][0]
    before = _values(x)
    for name in (*cls._fields, "unknown"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
    assert _values(x) == before


def test_frozen_instance_error_is_the_package_s_attribute_error():
    # the package's own class, so that importing it loads no `dataclasses`;
    # code that catches AttributeError, as for a frozen dataclass, still does
    assert issubclass(FrozenInstanceError, AttributeError)
    assert FrozenInstanceError.__module__ == "semistable.lattice"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_constructor_rejects_missing_unknown_and_repeated_fields(cls):
    values = _values(SAMPLES[cls][0])
    with pytest.raises(TypeError, match="missing"):
        cls()
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls(*values, unknown=None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{cls._fields[0]: values[0]})


@pytest.mark.parametrize("cls", [c for c in CLASSES if hasattr(c, "__post_init__")],
                         ids=lambda c: c.__qualname__)
def test_post_init_runs_exactly_once(cls, monkeypatch):
    seen = []
    original = cls.__post_init__

    def counted(self):
        # every field is set before __post_init__ runs
        seen.append(tuple(getattr(self, name) for name in cls._fields))
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    x = SAMPLES[cls][0]
    assert cls(*_values(x)) == x
    assert seen == [_values(x)]


def test_class_body_values_are_defaults():
    z2 = Lattice(2)
    m = AffineMonoid(z2, ((1, 0),))
    assert m.saturation_cone is None and AffineMonoid.saturation_cone is None
    assert inspect.signature(AffineMonoid).parameters["saturation_cone"].default is None
    quadrant = cone(2, (1, 0), (0, 1))
    assert AffineMonoid(z2, ((1, 0),), quadrant).saturation_cone is quadrant
    assert AffineMonoid(z2, ((1, 0),), saturation_cone=None) == m


def test_a_record_defined_outside_the_package():
    calls = []

    class Point(Record):
        x: int
        y: int = 0

        def __post_init__(self):
            calls.append((self.x, self.y))

    assert Point(1) == Point(1, 0) == Point(x=1) and Point(1) != Point(1, 2)
    assert calls == [(1, 0), (1, 0), (1, 0), (1, 0), (1, 2)]
    # named by its qualified name, as a dataclass is
    assert repr(Point(1, 2)) == f"{Point.__qualname__}(x=1, y=2)"
    assert hash(Point(1, 2)) == hash((1, 2))

    class Keyed(Record):
        key: int
        note: str

        def __eq__(self, other):
            return isinstance(other, Keyed) and self.key == other.key

        def __hash__(self):
            return hash(self.key)

    class EqualOnly(Record):
        key: int

        def __eq__(self, other):
            return True

    assert Keyed(1, "a") == Keyed(1, "b") and hash(Keyed(1, "a")) == hash(1)
    # as in a frozen dataclass, a body with __eq__ alone gets the field hash
    assert EqualOnly(1) == EqualOnly(2) and hash(EqualOnly(1)) == hash((1,))


def test_cached_properties_store_into_the_instance():
    quadrant = cone(2, (1, 0), (0, 1))
    faces = quadrant.faces()
    assert len(faces) == 4 and quadrant.faces() == faces
    assert vars(quadrant)["_faces"] == tuple(faces)

    f = Fan.from_cones(2, [cone(2, (1, 0), (1, 1)), cone(2, (1, 1), (0, 1))])
    assert "_maximal" not in vars(f)
    maximal = f.maximal_cones()
    assert vars(f)["_maximal"] == tuple(maximal) and f.maximal_cones() == maximal
    assert f == Fan(f.lattice, f.cones)

    cx = fan_as_complex(f)
    g = cx.gluings[0]
    assert cx.gluing_for(g.cell, g.face) is g
    assert cx.gluings_of(g.cell, g.chart) == [h for h in cx.gluings
                                              if (h.cell, h.chart) == (g.cell, g.chart)]
    assert {"_by_face", "_by_chart"} <= set(vars(cx))
    # a gluing keeps no retraction: one left inverse per distinct embedding
    # matrix serves every gluing with it, including new ones
    assert g.retraction is g.retraction and "retraction" not in vars(g)
    assert Gluing(g.cell, g.face, g.chart, g.embedding).retraction is g.retraction


def test_fan_morphism_assignment_is_computed_not_a_field():
    f = Fan.from_cones(1, [cone(1, (1,))])
    m = FanMorphism(f, f, lmap([[2]]))
    assert FanMorphism._fields == ("source", "target", "lattice_map")
    assert m.assignment == tuple((c, c) for c in f.cones)
    with pytest.raises(TypeError):
        FanMorphism(f, f, lmap([[2]]), assignment=())
    with pytest.raises(TypeError):
        FanMorphism(f, f, lmap([[2]]), ())
    assert hash(m) == hash((m.source, m.target, m.lattice_map))
    assert m == FanMorphism(f, f, lmap([[2]]))
    with pytest.raises(FrozenInstanceError):
        m.assignment = ()
