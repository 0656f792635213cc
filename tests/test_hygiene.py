"""Source hygiene without a lint tool: every import sits at module level,
every module-level import is used, no float or true division enters the
exact code and no module imports `fractions`, no assert stands in for an error, the Smith form
is called only where its invariant factors or transforms are needed, every
integer preimage is a `lift`, every dot product outside the lattice module
is a call of its kernel and so is every entrywise vector sum, an integer
is converted only at the boundary, the cartesian check's pushout search runs only
where no proof of integrality stands in for it, only the gluing walk of
`reduce_complex` looks up the owner face of a point, one memoized function
builds the command line parser, and every value class is a `Record`.  The README's command line section names
the subcommands and `check` flags the CLI has."""
import ast
import glob
import os
import re

import pytest

from semistable.cli import COMMANDS, PREDICATES, VALIDITY

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "semistable")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def _tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _imported_names(node):
    """Names an import statement binds, with the line it sits on."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_imports_inside_functions(path):
    nested = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested += [f"{fn.name} (line {n.lineno})" for n in ast.walk(fn)
                       if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside functions: {', '.join(nested)}"


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    imported = [pair for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for pair in _imported_names(node)]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported
              if name not in used]
    assert not unused, f"unused imports: {', '.join(unused)}"


# the one place floats may appear: SVG coordinates are printed as decimals
FLOAT_ALLOWED = {("cli.py", "_svg_point")}


def _true_division(n):
    """`a / b` or `a /= b`: on two integers it silently yields a float."""
    return isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)


def _float_uses(tree, module):
    allowed = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and (module, fn.name) in FLOAT_ALLOWED:
            allowed |= {id(n) for n in ast.walk(fn)}
    found = []
    for n in ast.walk(tree):
        if id(n) in allowed:
            continue
        if isinstance(n, ast.Name) and n.id == "float":
            found.append(f"float (line {n.lineno})")
        elif isinstance(n, ast.Constant) and isinstance(n.value, (float, complex)):
            found.append(f"{n.value!r} (line {n.lineno})")
        elif (isinstance(n, ast.Attribute) and n.attr in ("inf", "nan")
              and isinstance(n.value, ast.Name) and n.value.id == "math"):
            found.append(f"math.{n.attr} (line {n.lineno})")
        elif _true_division(n):
            found.append(f"/ (line {n.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_floats(path):
    found = _float_uses(_tree(path), os.path.basename(path))
    assert not found, f"floats in exact code: {', '.join(found)}"


def test_float_rule_sees_an_inline_division():
    tree = ast.parse("def f(a, b):\n    return a / b\n"
                     "def g(a, b):\n    a /= b\n    return a // b\n"
                     "def _svg_point(v):\n    return v[0] / v[1]\n")
    assert sorted(_float_uses(tree, "sample.py")) == ["/ (line 2)", "/ (line 4)", "/ (line 7)"]
    # the SVG coordinates are the one place a division may stand
    assert sorted(_float_uses(tree, "cli.py")) == ["/ (line 2)", "/ (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_asserts(path):
    # asserts vanish under python -O; a failed check must raise a typed error
    found = [f"line {n.lineno}" for n in ast.walk(_tree(path))
             if isinstance(n, ast.Assert)]
    assert not found, f"assert statements: {', '.join(found)}"


# the questions that need invariant factors, a printed basis or a unimodular
# transform; everything else uses Bareiss or Hermite elimination
SMITH_FORM_CALLERS = {"span_basis", "kernel_basis", "pushout_lattice"}


def _calls(node, names):
    """The calls of one of `names` under `node`."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and names & {getattr(n.func, "id", None), getattr(n.func, "attr", None)}]


def _callers(names):
    """(module, function) pairs whose bodies call one of `names`."""
    callers = set()
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and _calls(fn, names):
                callers.add((os.path.basename(path), fn.name))
    return callers


def test_smith_normal_form_is_called_only_where_needed():
    assert {fn for _, fn in _callers({"smith_normal_form"})} == SMITH_FORM_CALLERS


# every integer preimage is a `lift`: a gluing's left inverse, the rays of
# a cone with lines and the generators of a monoid with units
LIFT_CALLERS = {("lattice.py", "left_inverse"), ("lattice.py", "solve_integer"),
                ("cone.py", "_build"), ("monoid.py", "monoid_generators_of_cone")}


def test_integer_preimages_are_lifts():
    assert _callers({"lift"}) == LIFT_CALLERS
    # solve_integer stays, as `lift` of one target, for scripts that import
    # it; no module of the package calls it, and no other solver is left
    solvers = {fn.name for fn in _tree(os.path.join(SRC, "lattice.py")).body
               if isinstance(fn, ast.FunctionDef) and fn.name.startswith("solve_")}
    assert solvers == {"solve_integer"}
    assert not _callers({"solve_integer", "solve_rational"})


def _inline_products(tree):
    """Lines of `sum(x * y for x, y in zip(...))` and `sum(map(mul, ...))`."""
    found = []
    for n in ast.walk(tree):
        if not (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "sum"
                and n.args):
            continue
        arg = n.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            zipped = any(isinstance(c.iter, ast.Call)
                         and getattr(c.iter.func, "id", None) == "zip"
                         for c in arg.generators)
            if zipped and any(isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mult)
                              for b in ast.walk(arg.elt)):
                found.append(f"line {n.lineno}")
        elif (isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "map"
              and arg.args and getattr(arg.args[0], "id", None) == "mul"):
            found.append(f"line {n.lineno}")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if os.path.basename(p) != "lattice.py"],
                         ids=os.path.basename)
def test_dot_products_are_kernel_calls(path):
    # one integer kernel: `dot`, `matvec` and `matmul` in lattice.py are the
    # only sums of entrywise products, so a faster kernel reaches every caller
    found = _inline_products(_tree(path))
    assert not found, f"inline dot products: {', '.join(found)}"


def _inline_sums(tree):
    """Lines of `tuple(x + y for x, y in zip(...))`, a difference alike, and
    `map(add, ...)` or `map(sub, ...)`."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.GeneratorExp, ast.ListComp)):
            zipped = any(isinstance(c.iter, ast.Call)
                         and getattr(c.iter.func, "id", None) == "zip"
                         for c in n.generators)
            if zipped and isinstance(n.elt, ast.BinOp) \
                    and isinstance(n.elt.op, (ast.Add, ast.Sub)):
                found.append(f"line {n.lineno}")
        elif (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "map"
              and n.args and getattr(n.args[0], "id", None) in ("add", "sub")):
            found.append(f"line {n.lineno}")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if os.path.basename(p) != "lattice.py"],
                         ids=os.path.basename)
def test_vector_sums_are_kernel_calls(path):
    # `vec_add` and `vec_sub` in lattice.py are the only entrywise sums and
    # differences of two vectors, as `dot` is the only dot product
    found = _inline_sums(_tree(path))
    assert not found, f"inline vector sums: {', '.join(found)}"


def test_vector_sum_rule_sees_an_inline_sum():
    tree = ast.parse("def f(u, v):\n    return tuple(x - y for x, y in zip(u, v))\n"
                     "def g(u, v):\n    return tuple(map(add, u, v))\n")
    assert _inline_sums(tree) == ["line 2", "line 4"]


# where an integer may be converted: the CLI's reader of JSON integers and
# decimal strings, and the library's validator of integer arguments
INT_ALLOWED = {("cli.py", "_read_int"), ("lattice.py", "integer_rows"),
               ("lattice.py", "integer_vector")}


def _int_conversions(path):
    """(module, function) of every `int(...)` and `map(int, ...)`; module
    level counts as the function "<module>"."""
    module = os.path.basename(path)
    tree = _tree(path)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for n in ast.walk(fn):
                owner.setdefault(id(n), fn.name)
    found = set()
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "id", None)
        if name == "int" or (name == "map" and n.args
                             and getattr(n.args[0], "id", None) == "int"):
            found.add((module, owner.get(id(n), "<module>")))
    return found


def test_integers_are_converted_only_at_the_boundary():
    # kernels take tuples of int by contract and never coerce: an int()
    # inside one would truncate a float into a wrong answer and cost a
    # Python step per entry
    found = set().union(*map(_int_conversions, MODULES))
    assert found <= INT_ALLOWED, f"int conversions: {sorted(found - INT_ALLOWED)}"
    assert ("cli.py", "_read_int") in found


def test_no_module_imports_fractions():
    # exact arithmetic is integral, and SVG coordinates divide integers:
    # importing fractions (and with it decimal) would only slow every start
    importers = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "fractions" in names:
                importers.add(os.path.basename(path))
    assert not importers, f"fractions imported by: {sorted(importers)}"


def test_pushout_search_runs_only_for_entries_without_an_integral_leg():
    # the search is evidence up to a word length; _cartesian_triple runs it
    # only where integral_by_flatness proves neither leg integral
    assert _callers({"_pushout_injective_bounded"}) == {("fan.py", "_cartesian_triple")}


def test_owner_faces_are_found_only_where_the_pieces_are_glued():
    # a target cell is cut and labelled by the source images moved into its
    # lattice, so no point crosses a gluing there; only the walk that glues
    # the pieces asks which face holds a point in its relative interior, and
    # the source side asks it once per part of a maximal cell, where the
    # parts are made
    assert _callers({"_owner_face"}) == {("conecomplex.py", "_assemble_complex"),
                                         ("conecomplex.py", "_source_runs")}


def test_coverage_is_checked_only_in_the_kernel():
    # the per-cell kernel checks that its pieces cover the cell, for both
    # pipelines; is_proper asks it of a morphism's images
    assert _callers({"covers"}) == {("reduction.py", "refine_by_images"),
                                    ("fan.py", "is_proper")}


def _memo_decorators():
    """(module, function, decorator) for every functools memo in src/."""
    found = []
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in fn.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = getattr(target, "attr", getattr(target, "id", None))
                    if name in ("lru_cache", "cache"):
                        found.append((os.path.basename(path), fn.name, dec))
    return found


def _module_int_constants(path):
    return {t.id for node in _tree(path).body if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant) and type(node.value.value) is int
            for t in node.targets if isinstance(t, ast.Name) and t.id.isupper()}


def test_every_memo_is_bounded_by_a_named_constant_on_a_private_name():
    # a long-lived process must not grow a memo without bound, and the
    # benchmark tracer wraps only public functions, so a memo on a public
    # name would hide its calls from the per-layer counts
    memos = _memo_decorators()
    assert {(module, fn) for module, fn, _ in memos} >= {
        ("cone.py", "_build"), ("cone.py", "_cut_out"),
        ("cli.py", "_parser"), ("conecomplex.py", "_left_inverse_map"),
        ("lattice.py", "_column_hermite"), ("lattice.py", "_intersect"),
        ("lattice.py", "_preimage"), ("monoid.py", "_dual_monoid")}
    bad = []
    for module, fn, dec in memos:
        sizes = [k.value for k in getattr(dec, "keywords", ()) if k.arg == "maxsize"]
        constants = _module_int_constants(os.path.join(SRC, module))
        if not (fn.startswith("_") and len(sizes) == 1
                and isinstance(sizes[0], ast.Name) and sizes[0].id in constants):
            bad.append(f"{module}:{fn} (line {dec.lineno})")
    assert not bad, f"unbounded or public memos: {', '.join(bad)}"


def test_only_the_memoized_parser_builds_an_argument_parser():
    # building the parser costs more than most subcommands; `_parser` builds
    # the one every `main` call reuses, no subcommand builds its own, and no
    # module builds one at import
    makers = {"ArgumentParser", "add_subparsers", "add_parser"}
    assert _callers(makers) == {("cli.py", "_parser")}
    (parser,) = [fn for fn in ast.walk(_tree(os.path.join(SRC, "cli.py")))
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_parser"]
    assert sum(len(_calls(_tree(path), makers)) for path in MODULES) \
        == len(_calls(parser, makers))


def test_value_classes_are_records_and_one_exec_compiles_them():
    # the dataclass decorator compiles about six functions per class at
    # import; Record.__init_subclass__ compiles a class's methods in one exec
    decorated, imports = [], []
    for path in MODULES:
        module = os.path.basename(path)
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef):
                decorated += [f"{module}:{node.name}" for dec in node.decorator_list
                              if "dataclass" in ast.dump(dec)]
            elif isinstance(node, ast.Import):
                imports += [(module, a.name) for a in node.names if a.name == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                imports += [(module, a.name) for a in node.names]
    assert not decorated, f"dataclasses: {', '.join(decorated)}"
    # importing dataclasses loads inspect, several ms of every command's
    # start; Record raises the package's own FrozenInstanceError
    assert not imports, f"dataclasses imports: {imports}"
    (record,) = [c for c in _tree(os.path.join(SRC, "lattice.py")).body
                 if isinstance(c, ast.ClassDef) and c.name == "Record"]
    (hook,) = [fn for fn in record.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "__init_subclass__"]
    assert len(_calls(hook, {"exec"})) == 1
    runners = [n for path in MODULES for n in ast.walk(_tree(path)) if isinstance(n, ast.Call)
               and getattr(n.func, "id", None) in {"exec", "eval", "compile"}]
    assert len(runners) == 1


README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_readme_command_line_matches_the_cli_tables():
    # the usage lines, the check flags and their document kinds are written
    # out by hand in the README; the CLI states each of them once, in a table
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    usage = re.findall(r"^- `semistable (\S+)(.*)`", section, re.M)
    assert sorted(name for name, _ in usage) == sorted(COMMANDS)
    check = dict(usage)["check"]
    flags = re.fullmatch(r" --input FILE \[(.*)\]", check).group(1).split("|")
    assert flags == ["--valid"] + [f"--{name}" for name in PREDICATES]
    rows = {flag: re.findall(r"`(\w+)`", kinds)
            for flag, kinds in re.findall(r"^\| `(--[\w-]+)` \| (.*) \|$", section, re.M)}
    assert rows == {"--valid": list(VALIDITY),
                    **{f"--{name}": list(kinds) for name, (kinds, _, _) in PREDICATES.items()}}
