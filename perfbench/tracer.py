"""Outside-in tracing of the `semistable` layers.

The tracer wraps the public functions of every module, and the public
methods of the classes they define, without touching `src/`.  It also
rebinds the name in every module that imported a function, so calls made
inside the library are seen too.  Each call records a span (name, start,
end, parent) in flat arrays; `metrics()` turns the spans of one pass into
call counts, inclusive seconds and per-module self seconds.

Cheap helpers that run millions of times per pass are left unwrapped (see
`UNWRAPPED`); their time counts as self time of the nearest wrapped caller.
Private functions (leading underscore) are not wrapped either.
"""
from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("lattice", "cone", "monoid", "fan", "reduction", "conecomplex", "cli")

UNWRAPPED = {
    "lattice": {"mat", "identity", "zeros", "transpose", "matmul", "matvec",
                "vec_add", "vec_sub", "vec_neg", "vec_scale", "dot",
                "is_zero_vec", "primitive", "columns", "from_columns", "hstack",
                "SNFDecomposition.rank", "SNFDecomposition.invariant_factors",
                "Sublattice.rank", "Sublattice.vectors"},
    "cone": {"Cone.generators", "Cone.contains", "Cone.relint_contains",
             "Cone.interior_sample", "Cone.contains_cone", "contains",
             "relint_contains", "interior_sample"},
    "fan": {"support_contains", "StackyFan.sublattice", "FanMorphism.image_of"},
}


def _public_callables(mod):
    """(qualified name, owner, attribute, raw attribute) for every public
    function and method defined in `mod`."""
    out = []
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out.append((name, mod, name, obj))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, raw in vars(obj).items():
                # properties and data stay as they are
                if attr.startswith("_") or not (
                        inspect.isfunction(raw)
                        or isinstance(raw, (staticmethod, classmethod))):
                    continue
                out.append((f"{name}.{attr}", obj, attr, raw))
    return out


class Tracer:
    """Span recorder for one worker process."""

    def __init__(self):
        self.fn_names: list[str] = []     # function id -> "layer.qualname"
        self.span_kinds: list[tuple[int, str]] = []  # name id -> (fn id, site)
        self.reset()

    def reset(self):
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_outer = array("b")   # 1 unless an enclosing span has the same function
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack: list[int] = []
        self.active = [0] * len(self.fn_names)
        self.cells = 0
        self.seen_inputs: set = set()
        self.repeats = 0

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, fn_id: int, site: str, qualname: str):
        name_id = len(self.span_kinds)
        self.span_kinds.append((fn_id, site))
        perf = time.perf_counter
        tracer = self

        def wrapped(*args, **kwargs):
            idx = len(tracer.sp_name)
            stack = tracer.stack
            active = tracer.active
            tracer.sp_name.append(name_id)
            tracer.sp_parent.append(stack[-1] if stack else -1)
            tracer.sp_outer.append(active[fn_id] == 0)
            tracer.sp_end.append(0.0)
            stack.append(idx)
            active[fn_id] += 1
            tracer.sp_start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.sp_end[idx] = perf()
                active[fn_id] -= 1
                stack.pop()

        if qualname == "cone.Cone.from_generators":
            def from_generators(lattice, gens):
                gens = [tuple(g) for g in gens]
                key = (lattice if isinstance(lattice, int) else lattice.rank,
                       tuple(sorted(set(gens))))
                if key in tracer.seen_inputs:
                    tracer.repeats += 1
                else:
                    tracer.seen_inputs.add(key)
                return wrapped(lattice, gens)
            return from_generators
        if qualname == "fan.decompose_by_hyperplanes":
            def decompose_by_hyperplanes(*args, **kwargs):
                cells = wrapped(*args, **kwargs)
                tracer.cells += len(cells)
                return cells
            return decompose_by_hyperplanes
        return wrapped

    def install(self):
        """Wrap every public function of every layer, and rebind each name
        in every layer module that refers to the original."""
        mods = {layer: importlib.import_module(f"semistable.{layer}")
                for layer in LAYERS}
        originals = {}  # id(function) -> (fn id, qualname, function)
        for layer, mod in mods.items():
            skip = UNWRAPPED.get(layer, set())
            for qual, owner, attr, raw in _public_callables(mod):
                if qual in skip:
                    continue
                qualname = f"{layer}.{qual}"
                fn_id = len(self.fn_names)
                self.fn_names.append(qualname)
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                w = self._wrapper(fn, fn_id, layer, qualname)
                if isinstance(raw, staticmethod):
                    w = staticmethod(w)
                elif isinstance(raw, classmethod):
                    w = classmethod(w)
                setattr(owner, attr, w)
                if owner is mod:
                    originals[id(fn)] = (fn_id, qualname, fn)
        # names imported into other layer modules get their own wrapper, so
        # calls can be attributed to the importing module as well
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj)) if inspect.isfunction(obj) else None
                if hit is None or obj.__module__ == mod.__name__:
                    continue
                fn_id, qualname, fn = hit
                setattr(mod, name, self._wrapper(fn, fn_id, layer, qualname))
        self.reset()

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Counts and seconds from the spans recorded since the last reset."""
        n = len(self.sp_name)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.sp_start, self.sp_end, self.sp_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        kinds, fn_names = self.span_kinds, self.fn_names
        for i in range(n):
            fn_id, site = kinds[self.sp_name[i]]
            qual = fn_names[fn_id]
            home = qual.split(".", 1)[0]
            dur = ends[i] - starts[i]
            calls[qual] += 1
            self_s[home] += dur - child[i]
            if self.sp_outer[i]:
                incl[qual] += dur
                if site != home:
                    incl[f"{site}.{qual.split('.', 1)[1]}"] += dur
        out = {}
        for qual in fn_names:
            out[f"{qual}.calls"] = calls.get(qual, 0)
            out[f"{qual}.s"] = incl.get(qual, 0.0)
        for key, value in incl.items():
            out.setdefault(f"{key}.s", value)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out["fan.decompose_by_hyperplanes.cells"] = self.cells
        out["cone.Cone.from_generators.repeats"] = self.repeats
        out["spans"] = n
        return out
