"""The integer boundary of the library (README, "Library overview").

Every public entry point that takes integer vectors or matrices from its
caller rejects a float, a Fraction or a string entry with `IntegerError`,
which names the argument; `Cone.contains` and `Cone.relint_contains` take
rational points and reject floats and strings.  The kernels behind them
convert nothing.  `lattice.mat` used to truncate every entry with `int()`,
so an integral float, Fraction or string gave the answer of the integer it
equals: such input now raises, and integer input, as tuples or as lists,
still gives that answer."""
import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from semistable import lattice
from semistable.cone import Cone, split_by_hyperplane
from semistable.fan import Fan, FanMorphism
from semistable.lattice import (
    IntegerError,
    Lattice,
    LatticeMap,
    Sublattice,
    det,
    full_sublattice,
    identity,
    kernel_basis,
    left_inverse,
    lift,
    rank,
    row_hermite_form,
    smith_normal_form,
    solve_integer,
    span_basis,
    sublattice_from_vectors,
)
from semistable.monoid import AffineMonoid, MonoidMap, kato_integral, monoid_membership


def _orthant_monoid(n):
    return AffineMonoid(Lattice(n), identity(n),
                        saturation_cone=Cone.from_generators(n, identity(n)))


def _ident(n):
    return LatticeMap.identity_map(Lattice(n))


# (entry point, the argument it names, a call with an n x n matrix m in that
# argument, or its first row where the argument is a vector)
MATRIX_ARGUMENTS = [
    ("det", "a", lambda m, n: det(m)),
    ("rank", "a", lambda m, n: rank(m)),
    ("smith_normal_form", "a", lambda m, n: smith_normal_form(m)),
    ("row_hermite_form", "a", lambda m, n: row_hermite_form(m)),
    ("kernel_basis", "a", lambda m, n: kernel_basis(m)),
    ("span_basis", "vectors", lambda m, n: span_basis(m, n)),
    ("lift", "a", lambda m, n: lift(m, identity(n))),
    ("lift", "targets", lambda m, n: lift(identity(n), m)),
    ("left_inverse", "a", lambda m, n: left_inverse(m)),
    ("LatticeMap", "matrix", lambda m, n: LatticeMap(Lattice(n), Lattice(n), m)),
    ("Sublattice", "basis", lambda m, n: Sublattice(Lattice(n), m)),
    ("sublattice_from_vectors", "vecs", lambda m, n: sublattice_from_vectors(Lattice(n), m)),
    ("Cone.from_generators", "gens", lambda m, n: Cone.from_generators(n, m)),
    ("Cone.from_halfspaces", "inequalities", lambda m, n: Cone.from_halfspaces(n, m)),
    ("Cone.from_halfspaces", "equations", lambda m, n: Cone.from_halfspaces(n, [], m)),
    ("AffineMonoid", "generators", lambda m, n: AffineMonoid(Lattice(n), m)),
]
VECTOR_ARGUMENTS = [
    ("solve_integer", "b", lambda v, n: solve_integer(identity(n), v)),
    ("LatticeMap.__call__", "v", lambda v, n: _ident(n)(v)),
    ("FanMorphism.__call__", "v", lambda v, n: FanMorphism(
        Fan.from_cones(n, []), Fan.from_cones(n, []), _ident(n))(v)),
    ("Sublattice.coordinates", "v", lambda v, n: full_sublattice(Lattice(n)).coordinates(v)),
    ("Sublattice.contains", "v", lambda v, n: full_sublattice(Lattice(n)).contains(v)),
    ("split_by_hyperplane", "functional", lambda v, n: split_by_hyperplane(
        Cone.from_generators(n, identity(n)), v)),
    ("AffineMonoid.contains", "w", lambda v, n: _orthant_monoid(n).contains(v)),
    ("monoid_membership", "w", lambda v, n: monoid_membership(v, AffineMonoid(
        Lattice(n), identity(n)))),
]
# rational points: a Fraction is a valid entry here
POINT_ARGUMENTS = [
    ("Cone.contains", "v", lambda v, n: Cone.from_generators(n, identity(n)).contains(v)),
    ("Cone.relint_contains", "v",
     lambda v, n: Cone.from_generators(n, identity(n)).relint_contains(v)),
]

ENTRY_POINTS = [e[0] for e in MATRIX_ARGUMENTS + VECTOR_ARGUMENTS + POINT_ARGUMENTS]


@st.composite
def poisoned(draw):
    """An n x n integer matrix, a position in it and an entry that is not
    an int: an integral float, Fraction or string (which `int()` used to
    turn into the entry it replaces) or a non-integral one."""
    n = draw(st.integers(1, 3))
    m = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)) for _ in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    x = m[i][j]
    bad = draw(st.sampled_from([float(x), Fraction(x), str(x), x + 0.5,
                                Fraction(2 * x + 1, 2), "x"]))
    return n, m, i, j, bad


def _with(m, i, j, bad):
    return [row[:j] + [bad] + row[j + 1:] if k == i else row for k, row in enumerate(m)]


def _names(name, bad):
    return "^" + re.escape(f"{name} has the entry {bad!r} of type {type(bad).__name__}")


def _answer(call, *args):
    """The answer of a call on integer input, or the type of the error it
    raises (a singular or unreachable input may have none)."""
    try:
        return call(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


@pytest.mark.parametrize("entry, name, call", MATRIX_ARGUMENTS,
                         ids=[f"{e}({a})" for e, a, _ in MATRIX_ARGUMENTS])
@given(case=poisoned())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_matrix_arguments_take_only_integers(entry, name, call, case):
    n, m, i, j, bad = case
    want = _answer(call, tuple(map(tuple, m)), n)
    assert _answer(call, m, n) == want
    with pytest.raises(IntegerError, match=_names(name, bad)):
        call(_with(m, i, j, bad), n)


@pytest.mark.parametrize("entry, name, call", VECTOR_ARGUMENTS + POINT_ARGUMENTS,
                         ids=[f"{e}({a})" for e, a, _ in VECTOR_ARGUMENTS + POINT_ARGUMENTS])
@given(case=poisoned())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_vector_arguments_take_only_integers(entry, name, call, case):
    n, m, _, j, bad = case
    v = m[0]
    want = _answer(call, tuple(v), n)
    assert _answer(call, list(v), n) == want
    poisoned_v = v[:j] + [bad] + v[j + 1:]
    if (entry, name, call) in POINT_ARGUMENTS and isinstance(bad, Fraction):
        # a rational point: its answer is the one its value gives
        assert call(poisoned_v, n) == call(tuple(Fraction(x) for x in poisoned_v), n)
        return
    with pytest.raises(IntegerError, match=_names(name, bad)):
        call(poisoned_v, n)


@pytest.mark.parametrize("bad", [2.0, Fraction(2), "2", 2.5])
def test_a_lattice_rank_is_an_integer(bad):
    for make in (Lattice, lambda r: Cone.from_generators(r, []),
                 lambda r: Fan.from_cones(r, [])):
        with pytest.raises(IntegerError, match=_names("rank", bad)):
            make(bad)
    assert Lattice(True) == Lattice(1)


@pytest.mark.parametrize("bad", [8.0, Fraction(8), "8", 7.5])
def test_a_height_bound_is_an_integer(bad):
    n = Lattice(1)
    ident = MonoidMap(AffineMonoid(n, ((1,),)), AffineMonoid(n, ((1,),)),
                      LatticeMap.identity_map(n))
    assert kato_integral(ident, 8) == (True, None)
    with pytest.raises(IntegerError, match=_names("height_bound", bad)):
        kato_integral(ident, bad)


def test_the_baseline_examples_raise():
    # both used to truncate: the first returned ((1, 1), (0, 2)), the
    # second had the basis (1, 0)
    with pytest.raises(IntegerError, match=r"^a has the entry 4\.9 of type float"):
        row_hermite_form([[1, 1], [2, 4.9]])
    with pytest.raises(IntegerError, match=r"^vecs has the entry 1\.5 of type float"):
        sublattice_from_vectors(Lattice(2), [[1.5, 0]])
    assert row_hermite_form([[1, 1], [2, 4]]) == ((1, 1), (0, 2))
    assert row_hermite_form([[1, 1], [2, 5]]) == ((1, 1), (0, 3))
    assert sublattice_from_vectors(Lattice(2), [[1, 0]]).basis == ((1,), (0,))
    assert sublattice_from_vectors(Lattice(2), [[3, 0]]).basis == ((3,), (0,))
    # callers that catch TypeError for a wrong argument type still do
    assert issubclass(IntegerError, TypeError)


def _plain(rows):
    return all(type(x) is int for row in rows for x in row)


def test_a_bool_is_an_integer_and_no_memo_keeps_it():
    # bool is a subclass of int, and the library takes it as 0 or 1; the
    # cone and Hermite memos answer later integer callers with what they
    # built, so what they keep is plain ints
    Cone._build.cache_clear()
    lattice._column_hermite.cache_clear()
    assert row_hermite_form([[True, False], [False, 2]]) == ((1, 0), (0, 2))
    assert Cone.from_generators(2, identity(2)).contains((True, 0))
    lat = Lattice(True + 2)
    assert type(lat.rank) is int and lat == Lattice(3)
    gens = [(True, False, True), (False, True, True)]
    c = Cone.from_generators(lat, gens)
    assert c == Cone.from_generators(3, [(1, 0, 1), (0, 1, 1)])
    assert _plain(c.rays) and _plain(c.facets) and _plain(c.span.basis)
    s = sublattice_from_vectors(lat, [(True, True, False)])
    assert s == sublattice_from_vectors(Lattice(3), [(1, 1, 0)])
    assert _plain(s.basis)


def test_every_entry_point_is_named_in_the_readme():
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        overview = fh.read().split("## Library overview", 1)[1].split("\n## ", 1)[0]
    missing = [e for e in ENTRY_POINTS if f"`{e}`" not in overview]
    assert not missing, f"entry points the README does not name: {missing}"
