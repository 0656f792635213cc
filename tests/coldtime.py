"""Cold timing of one operation, a fresh interpreter per run.

    python tests/coldtime.py OP DOC [--runs N] [--against ROOT]

OP is `reduce` on a `fan_morphism` document, or `reduce_complex` on a
`complex_morphism` document or on a `fan_morphism` taken as a complex
(`fan_morphism_as_complex`).  Each run starts a new Python process that
imports `semistable` from the `src/` of a checkout, reads DOC and times the
operation alone: not the start-up, the import or the reading.  A command
line user pays cold caches on every call, so only a fresh process shows
that cost.  The script prints the median and the range of the runs, in
seconds, for this checkout.

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
from semistable import conecomplex, reduction
from semistable.cli import load_document
op, path = sys.argv[1:]
kinds = ("fan_morphism",) if op == "reduce" else ("fan_morphism", "complex_morphism")
with open(path) as fh:
    kind, m = load_document(fh.read(), kinds)
if op == "reduce_complex" and kind == "fan_morphism":
    m = conecomplex.fan_morphism_as_complex(m)
run = reduction.reduce if op == "reduce" else conecomplex.reduce_complex
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
    ap.add_argument("op", choices=["reduce", "reduce_complex"])
    ap.add_argument("doc")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--against", metavar="ROOT")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    doc = os.path.abspath(args.doc)
    roots = [ROOT] + ([os.path.abspath(args.against)] if args.against else [])
    times: dict[str, list[float]] = {root: [] for root in roots}
    for i in range(args.runs):
        for root in roots if i % 2 == 0 else roots[::-1]:
            times[root].append(run_once(root, args.op, doc))
    print(f"{args.op} {args.doc}, {args.runs} run(s) each")
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
