"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

`run.py` starts one worker per pass, one at a time, with `src/` on the path.
The worker times its set-up (importing `semistable`, reading the inputs,
building the library objects), runs every operation once in the order the
seed gives, and prints one JSON line: the timings, the peak RSS, the output
of each operation and, when tracing, the per-layer metrics.
"""
from __future__ import annotations

import argparse
import gc
import contextlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def _read(name):
    with open(os.path.join(INPUTS, f"{name}.json"), encoding="utf-8") as fh:
        return fh.read()


def setup(workload):
    """Import the library and build each operation as a zero-argument
    callable, with a function that turns its result into JSON."""
    # operations call through the module, so the tracer's wrappers see them
    from semistable import cli, conecomplex, fan, monoid
    from semistable.cone import Cone
    from semistable.lattice import Lattice, LatticeMap

    def cli_op(args):
        argv = [os.path.join(INPUTS, a[1:] + ".json") if a.startswith("@") else a
                for a in args]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv, out=out)
            if code == 2:
                raise RuntimeError(err.getvalue().strip())
            return {"code": code, "out": out.getvalue()}
        return run, lambda r: r

    def load(name, kind):
        return cli.load_document(_read(name), (kind,))[1]

    def subs(s):
        return [list(v) for v in s.vectors()]

    def complex_json(res, m):
        base = [{"rank": c.lattice.rank, "rays": [list(r) for r in c.rays],
                 "sub": subs(s)}
                for c, s in zip(res.base.complex.cells, res.base.sublattices)]
        total = [{"rank": c.lattice.rank, "rays": [list(r) for r in c.rays],
                  "sub": subs(s), "owner": o, "map": [list(r) for r in f.matrix],
                  "assign": a}
                 for c, s, o, f, a in zip(res.total.complex.cells,
                                          res.total.sublattices, res.total_owners,
                                          res.morphism.cell_maps,
                                          res.morphism.assignment)]
        source = [{"rank": c.lattice.rank, "rays": [list(r) for r in c.rays]}
                  for c in m.source.cells]
        return {"base": base, "total": total, "source": source}

    maps = None
    halfline = None
    ops = []
    for spec in wl.WORKLOADS[workload]:
        kind = spec["op"]
        if kind == "cli":
            ops.append(cli_op(spec["args"]))
        elif kind == "reduce_complex":
            if "family" in spec:
                m = conecomplex.fan_morphism_as_complex(
                    load(spec["family"], "fan_morphism"))
            else:
                m = load(spec["complex"], "complex_morphism")
            ops.append((lambda m=m: conecomplex.reduce_complex(m),
                        lambda r, m=m: complex_json(r, m)))
        elif kind == "kato":
            if maps is None:
                maps = json.loads(_read("monoid_maps"))
            e = maps[spec["map"]]
            src = monoid.AffineMonoid(Lattice(e["source"]["rank"]),
                                      tuple(map(tuple, e["source"]["generators"])))
            tgt = monoid.AffineMonoid(Lattice(e["target"]["rank"]),
                                      tuple(map(tuple, e["target"]["generators"])))
            u = monoid.MonoidMap(src, tgt, LatticeMap(
                src.lattice, tgt.lattice, tuple(map(tuple, e["matrix"]))))
            ops.append((lambda u=u, h=spec["height"]: monoid.kato_integral(u, h),
                        lambda r: [r[0], None if r[1] is None
                                   else [list(v) for v in r[1]]]))
        elif kind == "cartesian":
            p = load(spec["p"], "fan_morphism")
            if "q" in spec:
                q = load(spec["q"], "fan_morphism")
            else:
                if halfline is None:
                    halfline = fan.Fan.from_cones(
                        1, [Cone.from_generators(1, [(1,)])])
                q = fan.FanMorphism(halfline, halfline, LatticeMap(
                    Lattice(1), Lattice(1), ((spec["k"],),)))
            ops.append((lambda p=p, q=q: fan.cartesian_check(p, q),
                        lambda r: {"ok": bool(r)}))
        elif kind == "hilbert":
            c = Cone.from_generators(spec["rank"], spec["rays"])
            ops.append((lambda c=c: monoid.hilbert_basis(c),
                        lambda r: [list(v) for v in r]))
        else:
            raise ValueError(f"unknown operation kind {kind}")
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    ops = setup(args.workload)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    # Each operation starts from a collected heap and its result is turned
    # into JSON and dropped before the next one, outside the timed region:
    # a CLI user runs one operation per process, so garbage left by earlier
    # operations of the pass must not slow later ones.
    outputs = [None] * len(ops)
    op_s = [0.0] * len(ops)
    errors = {}
    for i in order:
        gc.collect()
        t = time.perf_counter()
        try:
            result = ops[i][0]()
        except Exception as exc:  # an operation that fails is counted, not fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
            result = None
        op_s[i] = time.perf_counter() - t
        if i not in errors:
            outputs[i] = ops[i][1](result)
        del result
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.metrics() if tracer is not None else None

    out = {"setup_s": setup_s, "pass_s": sum(op_s), "op_s": op_s,
           "peak_rss_mb": peak_rss_mb,
           "errors": {str(i): e for i, e in errors.items()},
           "outputs": outputs}
    if layers is not None:
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
