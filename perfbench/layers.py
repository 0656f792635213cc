"""Per-layer report: one traced pass of each workload next to an untraced one.

    python3 perfbench/layers.py [--workload NAME ...] [--seed N] [--out FILE]

For every workload this runs one untraced and one traced worker, checks that
both produce the same outputs, and prints every per-layer metric by name and
unit, followed by the untraced `pass_s`, the traced `pass_s` and their
ratio (the tracing overhead).  `--out` also writes the figures as JSON
(`perfbench/results/` is ignored by git).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def report(workload, seed):
    plain = run.run_worker(workload, seed, 0)
    traced = run.run_worker(workload, seed, 1)
    same = json.dumps(plain["outputs"], sort_keys=True) == \
        json.dumps(traced["outputs"], sort_keys=True)
    print(f"== {workload}")
    for name, unit in run.PER_LAYER.items():
        value = traced["layers"].get(name, 0)
        shown = f"{value:.4f}" if unit == "s" else str(value)
        print(f"  {name:48s} {shown:>12s} {unit}")
    ratio = traced["pass_s"] / plain["pass_s"]
    print(f"  {'pass_s (untraced)':48s} {plain['pass_s']:12.4f} s")
    print(f"  {'pass_s (traced)':48s} {traced['pass_s']:12.4f} s")
    print(f"  {'tracing overhead (traced / untraced)':48s} {ratio:12.2f} x")
    print(f"  {'spans recorded':48s} {traced['layers']['spans']:12d}")
    if not same:
        print("  WARNING: traced and untraced outputs differ")
    figures = {name: traced["layers"].get(name, 0) for name in run.PER_LAYER}
    figures.update(pass_s_untraced=plain["pass_s"], pass_s_traced=traced["pass_s"],
                   same_outputs=same)
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="also write the figures to this JSON file")
    args = ap.parse_args(argv)
    figures = {w: report(w, args.seed) for w in args.workload or list(wl.WORKLOADS)}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(figures, fh, indent=1, sort_keys=True)
    return 0 if all(f["same_outputs"] for f in figures.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
