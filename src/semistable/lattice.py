"""Exact integer linear algebra over free abelian groups.

Everything here is arbitrary-precision integer arithmetic; no floats.
Matrices are tuples of row tuples.  A map between lattices of ranks
(m out, n in) is an m x n integer matrix acting on column vectors.

Integers are checked once, where they enter: the public functions and
constructors that take vectors or matrices from a caller (`det`, `rank`,
the normal forms, `kernel_basis`, `span_basis`, `lift`, `Lattice`,
`LatticeMap` and its application, `Sublattice` and its membership) pass
them through `integer_rows` or `integer_vector`, which raise IntegerError
naming the argument on a float, Fraction or string entry; a value built by
them holds integers for good.  One `math.gcd` per row is the whole check,
and it lets a bool through as 0 or 1; `plain_ints` turns it into that int
where a memo would share it with other callers.

The kernels below them take tuples of int by contract and convert
nothing, so they run in builtins: `mat` is `tuple(map(tuple, rows))`,
`dot`, `matvec` and `matmul` sum `map(operator.mul, ...)`, `vec_add`,
`vec_sub` and `vec_neg` map `operator.add`, `sub` and `neg`, `is_zero_vec`
is `not any(v)`, `primitive` takes one `math.gcd` of all entries, and
`identity` answers from a memo of IDENTITY_MEMO_SIZE sizes.  The entries
stay Python integers, so each result is exactly the one of an
entry-by-entry loop.

Each question gets one elimination of the kind it needs:
- `det` and `rank`: fraction-free Bareiss elimination;
- sublattice bases: column Hermite form, so membership and coordinates
  (`Sublattice.coordinates`, `lattice_index`) are one substitution down
  the stored basis;
- spans: `span_basis`, one Smith form of the generators, gives the
  saturated basis, coordinates in it and the span's equations (`saturate`,
  cone spans and lineality quotients);
- `intersect_sublattices` and `preimage_sublattice`: one row Hermite form
  of a stacked matrix (the Zassenhaus construction);
- integer preimages: `lift`, one row Hermite form of the same stacked rows
  for any number of targets; `left_inverse` lifts the unit vectors through
  the transpose, once per embedding, which is then crossed by matrix
  products alone;
- `kernel_basis` and `pushout_lattice`: the Smith form, kept where a
  printed basis or the torsion of a quotient is needed.

The checks of a reduction restrict the same sublattices to the same spans
again and again, so the Hermite forms behind a sublattice's basis, an
intersection and a preimage are each memoized on their normalized input,
up to LATTICE_MEMO_SIZE entries, in private helpers behind the public
functions, which check their arguments on every call.

As the bottom module it also holds `Record`, the base of every value class
of the package: immutable, compared and hashed by its fields, with the
methods of each class compiled once when the class is defined.
"""
from __future__ import annotations

import functools
from itertools import chain
from math import gcd
from operator import add, index, mul, neg, sub
from typing import Iterable, Sequence

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

# lattice_index of a sublattice of smaller rank
INFINITE = None

# entries of each Hermite-form memo: one operation asks at most 385
# distinct questions of one memo (the intersections of an S^4 -> quad
# reduce), one benchmark operation 153 and one benchmark pass 203
LATTICE_MEMO_SIZE = 1024

# identity matrices kept, one per size: a benchmark pass asks for at most 5
# sizes (0 to 5 over the four workloads), and the whole test suite for 24
# distinct sizes up to 32
IDENTITY_MEMO_SIZE = 32


# ---------------------------------------------------------------------------
# errors and the integer boundary

class FrozenInstanceError(AttributeError):
    """Assigning or deleting an attribute of a `Record`."""


class IntegerError(TypeError):
    """An entry that is not an integer reached a public entry point."""


def integer_rows(name: str, rows: Iterable[Iterable[int]]) -> Matrix:
    """The rows of a caller's matrix or vectors as a Matrix, after checking
    that every entry is an integer; IntegerError names the argument `name`
    otherwise.

    One `math.gcd` of each row is the check: it raises TypeError on a
    float, a Fraction or a string and takes any `int`, `bool` included,
    without a Python step per entry."""
    m = tuple(map(tuple, rows))
    try:
        for row in m:
            gcd(*row)
    except TypeError:
        raise _not_integer(name, chain.from_iterable(m)) from None
    return m


def integer_vector(name: str, v: Iterable[int]) -> Vector:
    """One vector of a caller, checked as `integer_rows` checks a matrix."""
    v = tuple(v)
    try:
        gcd(*v)
    except TypeError:
        raise _not_integer(name, v) from None
    return v


def plain_ints(rows: Iterable[Iterable[int]]) -> Matrix:
    """The rows with each entry an exact int: a bool passes the checks as the
    int it equals, and this keeps it out of the values that a memo shares
    with every caller of an equal key.  Run on memo misses only."""
    return tuple(tuple(map(index, row)) for row in rows)


def _not_integer(name: str, entries: Iterable) -> IntegerError:
    bad = next((x for x in entries if not isinstance(x, int)), None)
    return IntegerError(f"{name} has the entry {bad!r} of type {type(bad).__name__};"
                        " expected integers")


# ---------------------------------------------------------------------------
# value classes

class Record:
    """Base of the immutable value classes of the package.

    The annotations of a subclass body are its fields, in order, and a value
    in the body is that field's default.  One `exec` per subclass compiles
    the `__init__`, `__eq__` and `__hash__` a frozen dataclass generates,
    each only where the body does not define it: `__init__` sets the fields
    and then calls `__post_init__` if the class has one, two records are
    equal when they are of one class and their field tuples are equal, and
    a record hashes as its field tuple.  Assigning or deleting an attribute
    raises FrozenInstanceError; `functools.cached_property` still stores
    into the instance dict.  The dataclass decorator compiles six functions
    per class, and those compilations were most of the package's import time.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        cls._fields = fields = tuple(own.get("__annotations__", ()))
        env = {"__name__": cls.__module__, "_set": object.__setattr__}
        params = ["self"]
        for name in fields:
            if name in own:
                env[f"_default_{name}"] = own[name]
                params.append(f"{name}=_default_{name}")
            else:
                params.append(name)
        sets = [f"    _set(self, {name!r}, {name})\n" for name in fields]
        if hasattr(cls, "__post_init__"):
            sets.append("    self.__post_init__()\n")

        def values(of):
            return "(" + "".join(f"{of}.{name}, " for name in fields) + ")"

        methods = {
            "__init__": f"def __init__({', '.join(params)}):\n" + "".join(sets),
            "__eq__": ("def __eq__(self, other):\n"
                       "    if other.__class__ is self.__class__:\n"
                       f"        return {values('self')} == {values('other')}\n"
                       "    return NotImplemented\n"),
            "__hash__": f"def __hash__(self):\n    return hash({values('self')})\n",
        }
        # a body that defines __eq__ alone has __hash__ set to None
        missing = [m for m in methods if own.get(m) is None]
        exec("".join(methods[m] for m in missing), env)
        for m in missing:
            env[m].__qualname__ = f"{cls.__qualname__}.{m}"
            setattr(cls, m, env[m])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"


# ---------------------------------------------------------------------------
# matrix helpers

def mat(rows: Iterable[Iterable[int]]) -> Matrix:
    return tuple(map(tuple, rows))


def identity(n: int) -> Matrix:
    return _identity(n)


@functools.lru_cache(maxsize=IDENTITY_MEMO_SIZE, typed=True)
def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    if not a:
        return ()
    return tuple(zip(*a))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple([tuple([sum(map(mul, row, col)) for col in bt]) for row in a])


def matvec(a: Matrix, v: Sequence[int]) -> Vector:
    return tuple([sum(map(mul, row, v)) for row in a])


def vec_add(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(map(add, u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> Vector:
    return tuple(map(sub, u, v))


def vec_neg(v: Sequence[int]) -> Vector:
    return tuple(map(neg, v))


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def is_zero_vec(v: Sequence) -> bool:
    return not any(v)


def primitive(v: Sequence[int]) -> Vector:
    """Divide out the gcd of the entries; the zero vector is returned as is."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple([x // g for x in v])


def columns(a: Matrix) -> list[Vector]:
    return list(transpose(a))


def from_columns(cols: Sequence[Sequence[int]], nrows: int) -> Matrix:
    if not cols:
        return tuple(() for _ in range(nrows))
    return transpose(mat(cols))


def hstack(a: Matrix, b: Matrix) -> Matrix:
    return tuple(ra + rb for ra, rb in zip(a, b))


def det(a: Matrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    a = integer_rows("a", a)
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a matrix that is not square")
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free Bareiss elimination."""
    m = [list(row) for row in integer_rows("a", a)]
    ncols = len(m[0]) if m else 0
    r = 0
    prev = 1
    for col in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][col]
        for i in range(r + 1, len(m)):
            m[i] = [(x * piv - m[i][col] * y) // prev for x, y in zip(m[i], m[r])]
        prev = piv
        r += 1
    return r


# ---------------------------------------------------------------------------
# normal forms

class SNFDecomposition(Record):
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def rank(self) -> int:
        return sum(1 for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
                   if self.D[i][i] != 0)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k) if self.D[i][i] != 0)


def smith_normal_form(a: Matrix) -> SNFDecomposition:
    """Smith normal form with transformation matrices."""
    a = integer_rows("a", a)
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while True:
        # locate the smallest nonzero entry of the trailing block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // d[t][t]))
            if any(d[i][t] != 0 for i in range(t + 1, m)):
                # a remainder became the new, smaller pivot
                i = min((i for i in range(t + 1, m) if d[i][t] != 0),
                        key=lambda i: abs(d[i][t]))
                swap_rows(t, i)
                continue
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // d[t][t]))
            if any(d[t][j] != 0 for j in range(t + 1, n)):
                j = min((j for j in range(t + 1, n) if d[t][j] != 0),
                        key=lambda j: abs(d[t][j]))
                swap_cols(t, j)
                continue
            break
        # enforce divisibility of the rest of the block by the pivot
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    bad = (i, j)
                    break
            if bad:
                break
        if bad:
            add_row(bad[0], t, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return SNFDecomposition(mat(u), mat(d), mat(v))


def row_hermite_form(a: Matrix) -> Matrix:
    """Canonical basis (as rows) of the row space of an integer matrix.

    Row-style Hermite normal form: pivots positive, strictly increasing pivot
    columns, entries above a pivot reduced into [0, pivot).  Zero rows dropped.
    """
    rows = [list(r) for r in integer_rows("a", a) if not is_zero_vec(r)]
    if not rows:
        return ()
    n = len(rows[0])
    result: list[list[int]] = []
    for col in range(n):
        pivots = [r for r in rows if r[col] != 0]
        if not pivots:
            continue
        # combine rows until a single one has a nonzero in this column
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            base = pivots[0]
            for r in pivots[1:]:
                q = r[col] // base[col]
                for k in range(n):
                    r[k] -= q * base[k]
            pivots = [r for r in pivots if r[col] != 0]
        piv = pivots[0]
        # the loop above reduced the other rows in place, so piv is the only
        # row left with a nonzero in this column
        rows = [r for r in rows if r is not piv and not is_zero_vec(r)]
        if piv[col] < 0:
            piv = [-x for x in piv]
        result.append(piv)
    # reduce entries above each pivot, left to right so earlier reductions
    # cannot reintroduce unreduced entries in later columns
    for i in range(len(result)):
        piv = result[i]
        col = next(k for k in range(n) if piv[k] != 0)
        for j in range(i):
            q = result[j][col] // piv[col]
            if q:
                result[j] = [x - q * y for x, y in zip(result[j], piv)]
    return mat(result)


@functools.lru_cache(maxsize=LATTICE_MEMO_SIZE)
def _column_hermite(a: Matrix) -> Matrix:
    # one elimination per distinct basis: sublattices are rebuilt from the
    # same vectors by every check that restricts them to a span
    return transpose(row_hermite_form(plain_ints(transpose(a))))


def reduce_mod_rows(v: Sequence[int], hnf_rows: Matrix) -> Vector:
    """Deterministic representative of v modulo the row lattice of rows
    already in row Hermite form."""
    out = tuple(v)
    for row in hnf_rows:
        col = next(k for k, x in enumerate(row) if x != 0)
        q = out[col] // row[col]
        if q:
            out = tuple(x - q * y for x, y in zip(out, row))
    return out


def lift(a: Matrix, targets: Iterable[Sequence[int]]) -> list[Vector | None]:
    """An integer x with A x = b for each b of `targets`, None where there
    is none, from one row Hermite form of the rows (A e_i, e_i).

    Those rows span {(A x, x)}.  Reducing (b, 0) modulo the Hermite rows
    with their pivot in the first block clears that block exactly when b is
    in the image of A, and then leaves (0, -x) with A x = b."""
    a = integer_rows("a", a)
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [tuple(row[i] for row in a) + e for i, e in enumerate(identity(n))]
    image_rows = tuple(r for r in row_hermite_form(rows) if not is_zero_vec(r[:m]))
    out = []
    for b in integer_rows("targets", targets):
        if len(b) != m:
            raise ValueError(f"vector of length {len(b)} for a matrix with {m} rows")
        r = reduce_mod_rows(tuple(b) + (0,) * n, image_rows)
        out.append(None if any(r[:m]) else vec_neg(r[m:]))
    return out


def solve_integer(a: Matrix, b: Sequence[int]) -> Vector | None:
    """One integer solution x of A x = b, or None: `lift` of one target,
    for callers outside the package that solve a single system."""
    return lift(a, [integer_vector("b", b)])[0]


def left_inverse(a: Matrix) -> Matrix | None:
    """L with L A = 1, row i a lift of e_i through the transpose of A.
    Every e_i lifts exactly when A is injective with a saturated image;
    None for any other A."""
    k = len(a[0]) if a else 0
    rows = lift(transpose(a), identity(k))
    return None if None in rows else tuple(rows)


def kernel_basis(a: Matrix) -> list[Vector]:
    """Basis (saturated) of the integer kernel of A, as vectors."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    snf = smith_normal_form(a)
    r = snf.rank
    return [tuple(snf.V[i][j] for i in range(n)) for j in range(r, n)]


def span_basis(vectors: Sequence[Sequence[int]], n: int) -> tuple[list[Vector], Matrix, Matrix]:
    """(basis, coordinates, equations) of the span of vectors in Z^n.

    One Smith form U G V = D of the generators G (as columns): column j of
    G V is d_j times column j of U^-1, so dividing gives a basis of the
    saturated span; the rows U[:r] take a vector of the span to its
    coordinates in that basis, and the rows U[r:] are equations of the
    span that map Z^n onto the quotient by the saturated span.
    """
    vectors = integer_rows("vectors", vectors)
    if not vectors:
        return [], (), identity(n)
    g = from_columns(vectors, n)
    snf = smith_normal_form(g)
    gv = matmul(g, snf.V)
    basis = [tuple(row[j] // d for row in gv)
             for j, d in enumerate(snf.invariant_factors)]
    return basis, snf.U[:len(basis)], snf.U[len(basis):]


# ---------------------------------------------------------------------------
# lattices and maps

class Lattice(Record):
    rank: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "rank", index(self.rank))
        except TypeError:
            raise _not_integer("rank", (self.rank,)) from None
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")


class LatticeMap(Record):
    domain: Lattice
    codomain: Lattice
    matrix: Matrix

    def __post_init__(self):
        m = integer_rows("matrix", self.matrix)
        object.__setattr__(self, "matrix", m)
        if len(m) != self.codomain.rank:
            raise ValueError("matrix row count does not match codomain rank")
        if any(len(row) != self.domain.rank for row in m):
            raise ValueError("matrix column count does not match domain rank")

    def __call__(self, v: Sequence[int]) -> Vector:
        # `integer_vector` without its copy: the pipelines apply maps to
        # thousands of vectors
        try:
            gcd(*v)
        except TypeError:
            raise _not_integer("v", v) from None
        return matvec(self.matrix, v)

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("maps are not composable")
        if not other.matrix:
            # through the zero lattice: no row of `other` carries its width
            return LatticeMap(other.domain, self.codomain,
                              ((0,) * other.domain.rank,) * self.codomain.rank)
        return LatticeMap(other.domain, self.codomain, matmul(self.matrix, other.matrix))

    @staticmethod
    def identity_map(lat: Lattice) -> "LatticeMap":
        return LatticeMap(lat, lat, identity(lat.rank))


class Sublattice(Record):
    """Sublattice of Z^n given by an independent column basis, stored in HNF."""

    ambient: Lattice
    basis: Matrix  # n x k, columns generate

    def __post_init__(self):
        b = integer_rows("basis", self.basis)
        if len(b) != self.ambient.rank:
            b = tuple(() for _ in range(self.ambient.rank)) if not b else b
        if len(b) != self.ambient.rank:
            raise ValueError("basis row count does not match ambient rank")
        h = _column_hermite(b)
        if not h:
            h = tuple(() for _ in range(self.ambient.rank))
        # columns of an HNF are independent by construction
        object.__setattr__(self, "basis", h)

    @property
    def rank(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    def vectors(self) -> list[Vector]:
        return columns(self.basis)

    def coordinates(self, v: Sequence[int]) -> Vector | None:
        """x with basis @ x = v, or None when v is not in the sublattice.

        The Hermite basis is echelon: column j is zero above its pivot row,
        and later columns are zero on that row, so one pass down the pivots
        determines x."""
        v = integer_vector("v", v)
        if len(v) != self.ambient.rank:
            raise ValueError(f"vector of length {len(v)} in a lattice of rank "
                             f"{self.ambient.rank}")
        rest = list(v)
        x = []
        for col in columns(self.basis):
            p = next(i for i, c in enumerate(col) if c != 0)
            q, r = divmod(rest[p], col[p])
            if r:
                return None
            x.append(q)
            if q:
                rest = [y - q * c for y, c in zip(rest, col)]
        return tuple(x) if not any(rest) else None

    def contains(self, v: Sequence[int]) -> bool:
        return self.coordinates(v) is not None

    def contains_sublattice(self, other: "Sublattice") -> bool:
        return all(self.contains(c) for c in other.vectors())

    def __le__(self, other: "Sublattice") -> bool:
        return other.contains_sublattice(self)


def full_sublattice(lat: Lattice) -> Sublattice:
    return Sublattice(lat, identity(lat.rank))


def zero_sublattice(lat: Lattice) -> Sublattice:
    return Sublattice(lat, tuple(() for _ in range(lat.rank)))


def sublattice_from_vectors(lat: Lattice, vecs: Iterable[Sequence[int]]) -> Sublattice:
    return Sublattice(lat, from_columns(integer_rows("vecs", vecs), lat.rank))


# ---------------------------------------------------------------------------
# operations

def kernel_lattice(f: LatticeMap) -> Sublattice:
    """The saturated sublattice {v in domain : f(v) = 0}."""
    return preimage_sublattice(f, zero_sublattice(f.codomain))


def image_lattice(f: LatticeMap, s: Sublattice | None = None) -> Sublattice:
    """f(s) in the codomain; the whole image when s is None."""
    if s is None:
        return Sublattice(f.codomain, f.matrix)
    return sublattice_from_vectors(f.codomain, [f(v) for v in s.vectors()])


def saturate(s: Sublattice) -> Sublattice:
    """(Q-span of s) intersected with the ambient lattice."""
    if s.rank == 0:
        return s
    return sublattice_from_vectors(s.ambient, span_basis(s.vectors(), s.ambient.rank)[0])


def lattice_index(inner: Sublattice, outer: Sublattice) -> int | None:
    """|outer / inner| when finite, INFINITE (None) on a rank drop.

    Raises ValueError when inner is not contained in outer.
    """
    if inner.ambient != outer.ambient:
        raise ValueError("sublattices have different ambient lattices")
    coords = []
    for c in inner.vectors():
        x = outer.coordinates(c)
        if x is None:
            raise ValueError("inner sublattice is not contained in the outer one")
        coords.append(x)
    if inner.rank < outer.rank:
        return INFINITE
    x_mat = from_columns(coords, outer.rank)
    return abs(det(x_mat))


def fiber_product_lattice(p: LatticeMap, i: LatticeMap) -> tuple[Lattice, LatticeMap, LatticeMap]:
    """{(n, l) : p(n) = i(l)} with its two projections.

    The basis is taken from the kernel computation (SNF order), with each
    column sign-normalized so its first nonzero entry is positive.
    """
    if p.codomain != i.codomain:
        raise ValueError("maps do not share a codomain")
    stacked = hstack(p.matrix, tuple(tuple(-x for x in row) for row in i.matrix))
    basis = []
    for v in kernel_basis(stacked):
        lead = next((x for x in v if x != 0), 1)
        basis.append(vec_neg(v) if lead < 0 else v)
    k = len(basis)
    fiber = Lattice(k)
    nr = p.domain.rank
    proj_n = LatticeMap(fiber, p.domain, from_columns([v[:nr] for v in basis], nr))
    proj_l = LatticeMap(fiber, i.domain, from_columns([v[nr:] for v in basis], i.domain.rank))
    return fiber, proj_n, proj_l


class LatticePushout(Record):
    lattice: Lattice
    inc_left: LatticeMap   # from the codomain of u
    inc_right: LatticeMap  # from the codomain of v
    torsion_order: int


def pushout_lattice(u: LatticeMap, v: LatticeMap) -> LatticePushout:
    """(M + L) / <(u(p), -v(p))>, modulo torsion.

    The torsion killed in the quotient is reported via torsion_order.
    """
    if u.domain != v.domain:
        raise ValueError("maps do not share a domain")
    m, l = u.codomain.rank, v.codomain.rank
    rel = tuple(tuple(u.matrix[i][j] for j in range(u.domain.rank)) for i in range(m)) \
        + tuple(tuple(-v.matrix[i][j] for j in range(v.domain.rank)) for i in range(l))
    snf = smith_normal_form(rel)
    r = snf.rank
    torsion = 1
    for d in snf.invariant_factors:
        torsion *= d
    quot_rows = snf.U[r:]
    lat = Lattice(m + l - r)
    inc_left = LatticeMap(u.codomain, lat, tuple(row[:m] for row in quot_rows))
    inc_right = LatticeMap(v.codomain, lat, tuple(row[m:] for row in quot_rows))
    return LatticePushout(lat, inc_left, inc_right, torsion)


def dual_map(f: LatticeMap) -> LatticeMap:
    return LatticeMap(Lattice(f.codomain.rank), Lattice(f.domain.rank), transpose(f.matrix))


def _zero_on_first_block(rows: Sequence[Sequence[int]], lat: Lattice, k: int) -> Sublattice:
    """Zassenhaus: the rows of the row Hermite form that vanish on the first
    k coordinates are a basis of the row lattice's part there; return the
    sublattice their remaining coordinates span."""
    hnf = row_hermite_form(mat(rows))
    return sublattice_from_vectors(lat, [r[k:] for r in hnf if is_zero_vec(r[:k])])


def intersect_sublattices(a: Sublattice, b: Sublattice) -> Sublattice:
    """a ∩ b: the rows (v, v) for v in a and (w, 0) for w in b combine to
    zero on the first block exactly in (0, v) with v = -w in both."""
    if a.ambient != b.ambient:
        raise ValueError("sublattices have different ambient lattices")
    return _intersect(a.ambient, a.basis, b.basis)


@functools.lru_cache(maxsize=LATTICE_MEMO_SIZE)
def _intersect(lat: Lattice, a: Matrix, b: Matrix) -> Sublattice:
    zero = (0,) * lat.rank
    rows = [v + v for v in columns(a)] + [w + zero for w in columns(b)]
    return _zero_on_first_block(rows, lat, lat.rank)


def preimage_sublattice(f: LatticeMap, s: Sublattice) -> Sublattice:
    """{v in domain : f(v) in s}: the rows (f(e_i), e_i) and (w, 0) for w
    in s combine to zero on the first block exactly in (0, v) with f(v)
    in s."""
    if s.ambient != f.codomain:
        raise ValueError("sublattice does not live in the codomain")
    return _preimage(f.domain, f.matrix, s.basis)


@functools.lru_cache(maxsize=LATTICE_MEMO_SIZE)
def _preimage(lat: Lattice, a: Matrix, s: Matrix) -> Sublattice:
    zero = (0,) * lat.rank
    rows = [tuple(row[i] for row in a) + e for i, e in enumerate(identity(lat.rank))]
    rows += [w + zero for w in columns(s)]
    return _zero_on_first_block(rows, lat, len(a))
