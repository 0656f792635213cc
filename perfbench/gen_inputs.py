"""Write the benchmark inputs under perfbench/inputs/ from their definitions.

    python3 perfbench/gen_inputs.py          # (re)write every input file
    python3 perfbench/gen_inputs.py --check  # exit 1 if a committed file differs

Most inputs are written straight from `families.py`.  Two are derived with
the library from `src/`: the stacky morphism of the reduced `fix_semi`
family (for `check --representable`) and the dual monoid maps of the weakly
semistable cone pairs of the reduced fixtures (for `kato_integral`).  They
are stored so that the benchmark's set-up never runs `reduce`.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from math import lcm

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
sys.path.insert(0, HERE)

import check  # noqa: E402
import families as fam  # noqa: E402


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _monoid_maps():
    """Dual monoid maps Hom(kappa ∩ Q_kappa) -> Hom(sigma ∩ N_sigma) of the
    weakly semistable cone pairs of the reduced fixtures, in sublattice
    coordinates, plus the non-flat blowup chart."""
    from semistable.cli import load_document
    from semistable.cone import Cone
    from semistable.lattice import LatticeMap, Lattice, solve_integer, transpose
    from semistable.monoid import MonoidMap, dual_monoid
    from semistable.reduction import reduce

    def in_coords(c, sub):
        gens = []
        for g in c.generators():
            x = check.Span(sub.vectors(), len(g)).coords(g)
            scale = lcm(1, *(v.denominator for v in x))
            gens.append(tuple(int(v * scale) for v in x))
        return Cone.from_generators(sub.rank, gens)

    def entry(name, u, expect):
        return {"name": name, "expect": expect,
                "source": {"rank": u.source.lattice.rank,
                           "generators": [list(g) for g in u.source.generators]},
                "target": {"rank": u.target.lattice.rank,
                           "generators": [list(g) for g in u.target.generators]},
                "matrix": [list(r) for r in u.lattice_map.matrix]}

    out = []
    for family in fam.KATO_FAMILIES:
        _, p = load_document(dump(fam.morphism_doc(*fam.MORPHISMS[family])),
                             ("fan_morphism",))
        red = reduce(p)
        pm = red.stacky_map.underlying.lattice_map
        for k, (sigma, kappa) in enumerate(red.stacky_map.underlying.assignment):
            if kappa.dim == 0:
                continue
            n_sub, q_sub = red.total.sublattice(sigma), red.base.sublattice(kappa)
            q_rows = tuple(zip(*q_sub.vectors()))
            cols = [solve_integer(q_rows, pm(b)) for b in n_sub.vectors()]
            matrix = tuple(tuple(c[r] for c in cols) for r in range(q_sub.rank))
            u = MonoidMap(dual_monoid(in_coords(kappa, q_sub)),
                          dual_monoid(in_coords(sigma, n_sub)),
                          LatticeMap(Lattice(q_sub.rank), Lattice(n_sub.rank),
                                     transpose(matrix)))
            out.append(entry(f"{family}.{k}", u, True))
    quad_dual = dual_monoid(Cone.from_generators(2, [(1, 0), (0, 1)]))
    chart = MonoidMap(quad_dual, quad_dual,
                      LatticeMap(Lattice(2), Lattice(2), ((1, 0), (1, 1))))
    out.append(entry("blowup_chart", chart, False))
    return out


def _semi_stacky():
    from semistable.cli import emit_stacky_fan, load_document
    from semistable.reduction import reduce
    _, p = load_document(dump(fam.morphism_doc(*fam.MORPHISMS["fix_semi"])),
                         ("fan_morphism",))
    red = reduce(p)
    return fam.doc("stacky_morphism", {
        "source": emit_stacky_fan(red.total), "target": emit_stacky_fan(red.base),
        "matrix": [list(r) for r in red.stacky_map.underlying.lattice_map.matrix]})


def generate() -> dict:
    files = {}
    for name, spec in fam.MORPHISMS.items():
        files[f"{name}.json"] = dump(fam.morphism_doc(*spec))
    for name, (rank, cones) in fam.FANS.items():
        files[f"{name}.json"] = dump(fam.fan_doc(rank, cones))
    for name, build in fam.COMPLEXES.items():
        files[f"{name}.json"] = dump(build())
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    files["monoid_maps.json"] = dump(_monoid_maps())
    files["semi_stacky.json"] = dump(_semi_stacky())
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare the committed files with the definitions")
    args = ap.parse_args(argv)
    files = generate()
    if args.check:
        bad = []
        present = set(os.listdir(INPUTS)) if os.path.isdir(INPUTS) else set()
        for name, text in sorted(files.items()):
            path = os.path.join(INPUTS, name)
            if name not in present:
                bad.append(f"missing: {name}")
                continue
            with open(path, encoding="utf-8") as fh:
                if fh.read() != text:
                    bad.append(f"differs: {name}")
        bad += [f"not generated: {n}" for n in sorted(present - set(files))]
        for line in bad:
            print(line)
        print("inputs match their definitions" if not bad else
              f"{len(bad)} input file(s) out of date")
        return 1 if bad else 0
    os.makedirs(INPUTS, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(INPUTS, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"wrote {len(files)} files to {INPUTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
