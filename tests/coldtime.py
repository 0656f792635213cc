"""Cold timing of one operation, a fresh interpreter per run.

    python tests/coldtime.py OP (DOC | --star N) [--runs N] [--against ROOT]

OP is `reduce` on a `fan_morphism` document, `reduce_complex` on a
`complex_morphism` document or on a `fan_morphism` taken as a complex
(`fan_morphism_as_complex`), or `weakly_semistable`, which reduces a
`fan_morphism` document untimed and times `is_weakly_semistable` of its
stacky morphism.  Each run starts a new Python process that
imports `semistable` from the `src/` of a checkout, reads DOC and times the
operation alone: not the start-up, the import or the reading.  A command
line user pays cold caches on every call, so only a fresh process shows
that cost.  The script prints the median and the range of the runs, in
seconds, for this checkout.

`--star N` builds S^N -> quad in memory instead of reading DOC: the star
subdivision of the positive N-orthant at (1, ..., 1), mapped onto the
quadrant by the sum of the first ceil(N/2) coordinates and the sum of the
rest.  `--star 5` is the morphism of `tests/data/s5_quad.json`.

With `--against ROOT` every run of this checkout is paired with a run of
the checkout at ROOT, which goes first in every other pair, so that a drift
of the machine's speed falls on both sides alike; the script then prints
both checkouts, the ratio of their medians and the number of pairs in which
this checkout was faster.  The file is not collected as a test.
"""
import argparse
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
import sys, time
from semistable import conecomplex, fan, reduction
from semistable.cli import load_document
from semistable.cone import Cone
from semistable.fan import Fan, FanMorphism
from semistable.lattice import Lattice, LatticeMap
op, path = sys.argv[1:]
kinds = ("fan_morphism",) if op != "reduce_complex" else ("fan_morphism", "complex_morphism")
if path.startswith("--star="):
    n = int(path[len("--star="):])
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    source = Fan.from_cones(n, [Cone.from_generators(n, unit[:i] + unit[i + 1:] + [(1,) * n])
                                for i in range(n)])
    quadrant = Fan.from_cones(2, [Cone.from_generators(2, [(1, 0), (0, 1)])])
    half = (n + 1) // 2
    sums = ((1,) * half + (0,) * (n - half), (0,) * half + (1,) * (n - half))
    kind, m = "fan_morphism", FanMorphism(source, quadrant, LatticeMap(Lattice(n), Lattice(2), sums))
else:
    with open(path) as fh:
        kind, m = load_document(fh.read(), kinds)
if op == "reduce_complex" and kind == "fan_morphism":
    m = conecomplex.fan_morphism_as_complex(m)
if op == "weakly_semistable":
    m = reduction.reduce(m).stacky_map
run = {"reduce": reduction.reduce, "reduce_complex": conecomplex.reduce_complex,
       "weakly_semistable": fan.is_weakly_semistable}[op]
start = time.perf_counter()
run(m)
print(time.perf_counter() - start)
"""


def run_once(root: str, op: str, doc: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, op, doc], env=env,
                         capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{root}: {op} failed:\n{out.stderr}")
    return float(out.stdout.split()[-1])


def summary(root: str, times: list[float]) -> str:
    return (f"{root}: median {statistics.median(times):.3f} s, "
            f"range {min(times):.3f}-{max(times):.3f} s")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="cold timing of one operation")
    ap.add_argument("op", choices=["reduce", "reduce_complex", "weakly_semistable"])
    ap.add_argument("doc", nargs="?")
    ap.add_argument("--star", type=int, metavar="N")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--against", metavar="ROOT")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if (args.doc is None) == (args.star is None):
        ap.error("give DOC or --star N")
    if args.star is not None and args.star < 1:
        ap.error("--star must be at least 1")
    doc = os.path.abspath(args.doc) if args.star is None else f"--star={args.star}"
    roots = [ROOT] + ([os.path.abspath(args.against)] if args.against else [])
    times: dict[str, list[float]] = {root: [] for root in roots}
    for i in range(args.runs):
        for root in roots if i % 2 == 0 else roots[::-1]:
            times[root].append(run_once(root, args.op, doc))
    print(f"{args.op} {args.doc or f'S^{args.star} -> quad'}, {args.runs} run(s) each")
    for root in roots:
        print("  " + summary(root, times[root]))
    if args.against:
        mine, other = times[ROOT], times[roots[1]]
        faster = sum(a < b for a, b in zip(mine, other))
        print(f"  ratio of medians {statistics.median(mine) / statistics.median(other):.3f}; "
              f"this checkout faster in {faster} of {args.runs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
