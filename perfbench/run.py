"""Benchmark of `semistable`, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload runs in a fresh
single-threaded worker interpreter (`worker.py`), one worker at a time,
until S seconds have passed; at least one pass always runs.  Every output is
checked by `check.py`, which does not import `semistable`.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and the
metrics, the end-to-end ones with `--trace 0` and the per-layer ones with
`--trace 1`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads as wl  # noqa: E402

# set-up is timed in at least this many workers per run
MIN_SETUPS = 11
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "pass_s": "s", "slowest_op_s": "s",
              "peak_rss_mb": "MB"}

_COUNTS = ("fan.supports_equal.calls", "fan.decompose_by_hyperplanes.calls",
           "fan.decompose_by_hyperplanes.cells", "cone.Cone.from_generators.calls",
           "cone.Cone.from_generators.repeats", "cone.Cone.from_halfspaces.calls",
           "cone.Cone.faces.calls", "cone.intersect.calls", "cone.image_cone.calls",
           "cone.preimage_cone.calls", "lattice.smith_normal_form.calls",
           "lattice.row_hermite_form.calls", "lattice.kernel_basis.calls",
           "lattice.solve_integer.calls", "lattice.intersect_sublattices.calls",
           "lattice.saturate.calls", "monoid.hilbert_basis.calls",
           "monoid.monoid_membership.calls", "cli.load_document.calls")
_SECONDS = (
    "fan.supports_equal.s", "fan.is_proper.s", "fan.is_alteration.s",
    "fan.decompose_by_hyperplanes.s", "reduction.is_modification.s",
    "cone.Cone.from_generators.s", "cone.Cone.from_halfspaces.s",
    "cone.Cone.faces.s", "cone.self_s",
    "lattice.smith_normal_form.s", "lattice.row_hermite_form.s", "lattice.self_s",
    "reduction.image_refinement.s", "reduction.base_lattices.s",
    "reduction.total_refinement.s", "reduction.self_s",
    "conecomplex.reduce_complex.s", "conecomplex.validate_complex.s",
    "conecomplex.complex_weak_semistability.s",
    "conecomplex.decompose_by_hyperplanes.s", "conecomplex.self_s",
    "fan.minimal_modification.s", "fan.validate_fan.s", "fan.Fan.from_cones.s",
    "monoid.kato_integral.s", "monoid.hilbert_basis.s",
    "monoid.monoid_membership.s", "monoid.image_monoid_equals_cone_monoid.s",
    "monoid.q_kappa_lattice.s", "fan.cartesian_check.s",
    "fan.is_weakly_semistable.s", "monoid.self_s",
    "cli.load_document.s", "cli.emit_document.s", "cli.self_s",
    "reduction.universal_minimal_modification.s",
    "reduction.validate_category_object.s", "reduction.factor_through.s",
    "fan.self_s")
PER_LAYER = {**{n: "count" for n in _COUNTS}, **{n: "s" for n in _SECONDS}}


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, trace, setup_only=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run(workload, seed, seconds, trace):
    """All passes of one run, their checks, and the reported metrics."""
    specs = wl.WORKLOADS[workload]
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(run_worker(workload, seed, trace))
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, 0, setup_only=True)["setup_s"])

    problems = []
    checked = set()
    failed = 0
    for p in passes:
        failed += len(p["errors"])
        for i, err in sorted(p["errors"].items()):
            print(f"failed: {specs[int(i)]['name']}: {err}", file=sys.stderr)
        key = json.dumps(p["outputs"], sort_keys=True)
        if key in checked:
            continue
        checked.add(key)
        by_name = {s["name"]: o["out"] for s, o in zip(specs, p["outputs"])
                   if s["op"] == "cli" and o is not None}
        for spec, out in zip(specs, p["outputs"]):
            if out is not None:
                problems += check.check_op(spec, out, by_name)
    for line in problems[:20]:
        print(f"incorrect: {line}", file=sys.stderr)

    med = statistics.median
    if trace:
        # counts repeat exactly; median_low keeps them whole numbers
        pick = {"count": statistics.median_low, "s": med}
        metrics = {name: {"value": pick[unit](p["layers"].get(name, 0)
                                              for p in passes), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        # The machine's speed drifts over seconds, so the passes of a run
        # are not independent samples; their mean covers the whole run and
        # spreads less from run to run than their median.
        mean = statistics.fmean
        op_means = [mean(p["op_s"][i] for p in passes) for i in range(len(specs))]
        values = {"setup_s": med(setups),
                  "pass_s": mean(p["pass_s"] for p in passes),
                  "slowest_op_s": max(op_means),
                  "peak_rss_mb": med(p["peak_rss_mb"] for p in passes)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    slowest = max(range(len(specs)), key=lambda i: passes[0]["op_s"][i])
    print(f"{workload}: {len(passes)} pass(es), slowest op "
          f"{specs[slowest]['name']!r}", file=sys.stderr)
    return {"correct": not problems, "attempted": len(passes) * len(specs),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="semistable benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semistable", "__init__.py")):
        print(f"error: no semistable package under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
