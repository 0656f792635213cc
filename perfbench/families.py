"""Definitions of the benchmark inputs, as plain data.

Nothing here imports `semistable`: the families are written down from their
definitions (the star subdivision of the octant, the blowup of the plane,
cones of multiplicity k, ...).  `gen_inputs.py` turns them into the JSON
documents under `inputs/`, and `check.py` reads the same definitions when it
checks outputs.
"""
from __future__ import annotations

E1, E2, E3, C = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)

# maximal cones of the star subdivision S of the positive octant at c
STAR_OCTANT = [[E1, E2, C], [E2, E3, C], [E1, E3, C]]
OCTANT = [[E1, E2, E3]]
RAY = [[(1,)]]
QUADRANT = [[(1, 0), (0, 1)]]
BLOWUP = [[(1, 0), (1, 1)], [(1, 1), (0, 1)]]
FINER = [[(1, 0), (2, 1)], [(2, 1), (1, 1)], [(1, 1), (0, 1)]]
PLANE = [[(1, 0), (0, 1)], [(0, 1), (-1, 0)], [(-1, 0), (0, -1)],
         [(0, -1), (1, 0)]]
LINE = [[(1,)], [(-1,)]]


def fan(rank, cones):
    return {"lattice_rank": rank,
            "cones": [{"rays": [list(r) for r in c]} for c in cones]}


def doc(kind, payload):
    return {"version": "1", "kind": kind, "payload": payload}


def fan_doc(rank, cones):
    return doc("fan", fan(rank, cones))


def morphism_doc(src_rank, src, tgt_rank, tgt, matrix):
    return doc("fan_morphism", {"source": fan(src_rank, src),
                                "target": fan(tgt_rank, tgt),
                                "matrix": [list(r) for r in matrix]})


def mult_cone(k):
    """The cone spanned by (1, 0) and (1, k): multiplicity k."""
    return [[(1, 0), (1, k)]]


# Fan morphisms, keyed by input file stem.  The rank-1/2 fixtures repeat
# the documents of the test suite; the rest are new families.
MORPHISMS = {
    "s_ray": (3, STAR_OCTANT, 1, RAY, [[1, 1, 1]]),
    "s_quad": (3, STAR_OCTANT, 2, QUADRANT, [[1, 1, 0], [0, 1, 2]]),
    "fix_semi": (2, BLOWUP, 1, RAY, [[1, 1]]),
    "fix_double": (1, RAY, 1, RAY, [[2]]),
    "fix_subdiv": (2, BLOWUP, 2, QUADRANT, [[1, 0], [0, 1]]),
    "blowup_chart": (2, QUADRANT, 2, QUADRANT, [[1, 0], [1, 1]]),
    "halfline_x2": (1, RAY, 1, RAY, [[2]]),
    "halfline_x3": (1, RAY, 1, RAY, [[3]]),
    "halfline_x4": (1, RAY, 1, RAY, [[4]]),
    "quad_ident": (2, QUADRANT, 2, QUADRANT, [[1, 0], [0, 1]]),
    "finer_to_quad": (2, FINER, 2, QUADRANT, [[1, 0], [0, 1]]),
    "blowup_line_d2": (2, BLOWUP, 1, RAY, [[1, 2]]),
    "blowup_line_d3": (2, BLOWUP, 1, RAY, [[1, 3]]),
    "mult_k2": (2, mult_cone(2), 1, RAY, [[0, 1]]),
    "mult_k3": (2, mult_cone(3), 1, RAY, [[0, 1]]),
    "p1xp1_p1": (2, PLANE, 1, LINE, [[1, 0]]),
    "quad_proj": (2, QUADRANT, 1, RAY, [[1, 0]]),
}

FANS = {
    "blowup_fan": (2, BLOWUP),
    "finer_fan": (2, FINER),
    "plane_fan": (2, PLANE),
    "hilbert_cone": (2, [[(1, 0), (1, 2)]]),
    "hilbert_cone_57": (2, [[(1, 0), (5, 7)]]),
    "hilbert_cone_oct": (3, [[(1, 0, 0), (0, 1, 0), (1, 2, 5)]]),
}

# Support of each morphism's source and target, as lists of maximal cones
# whose union is the support; the checker compares output fans with these.
SUPPORTS = {name: (src, tgt) for name, (_, src, _, tgt, _) in MORPHISMS.items()}
SUPPORTS["s_ray"] = (OCTANT, RAY)
SUPPORTS["s_quad"] = (OCTANT, QUADRANT)


# ---------------------------------------------------------------------------
# cone complexes that are not fans

def _gluing(cell, face, chart, embedding):
    return {"cell": cell, "face_rays": [list(r) for r in face], "chart": chart,
            "embedding": [list(r) for r in embedding]}


def _cell(rank, rays):
    return {"lattice_rank": rank, "rays": [list(r) for r in rays]}


def _halfline_complex():
    """The fan of the half-line as a complex: the ray, then the origin."""
    ident = [[1]]
    return {"cells": [_cell(1, [(1,)]), _cell(1, [])],
            "gluings": [_gluing(0, [(1,)], 0, ident), _gluing(0, [], 1, ident),
                        _gluing(1, [], 1, ident)]}


def glued_rays():
    """Two half-lines sharing only the origin, over the half-line by 1 and 2."""
    ident = [[1]]
    src = {"cells": [_cell(1, [(1,)]), _cell(1, [(1,)]), _cell(1, [])],
           "gluings": [_gluing(0, [], 2, ident), _gluing(0, [(1,)], 0, ident),
                       _gluing(1, [], 2, ident), _gluing(1, [(1,)], 1, ident),
                       _gluing(2, [], 2, ident)]}
    return doc("complex_morphism", {
        "source": src, "target": _halfline_complex(),
        "cell_maps": [[[1]], [[2]], [[1]]], "assignment": [0, 0, 1]})


def glued_quadrants():
    """Two quadrants A, B glued along their ray e2, over the half-line.

    A maps by [[1, 1]] and B by [[2, 1]]; both send the shared ray e2 to 1,
    the free rays e1 of A and B go to 1 and 2.  The cells are A, B, the
    shared ray, the free rays of A and of B, and the origin.
    """
    ident = [[1, 0], [0, 1]]
    quad, e1, e2 = [(1, 0), (0, 1)], [(1, 0)], [(0, 1)]
    cells = [_cell(2, quad), _cell(2, quad), _cell(2, e2), _cell(2, e1),
             _cell(2, e1), _cell(2, [])]
    gl = [_gluing(0, quad, 0, ident), _gluing(1, quad, 1, ident),
          _gluing(0, e2, 2, ident), _gluing(1, e2, 2, ident),
          _gluing(0, e1, 3, ident), _gluing(1, e1, 4, ident),
          _gluing(2, e2, 2, ident), _gluing(3, e1, 3, ident),
          _gluing(4, e1, 4, ident)]
    gl += [_gluing(i, [], 5, ident) for i in range(6)]
    a, b = [[1, 1]], [[2, 1]]
    return doc("complex_morphism", {
        "source": {"cells": cells, "gluings": gl},
        "target": _halfline_complex(),
        "cell_maps": [a, b, a, a, b, a], "assignment": [0, 0, 0, 0, 0, 1]})


COMPLEXES = {"glued_rays": glued_rays, "glued_quadrants": glued_quadrants}


# ---------------------------------------------------------------------------
# monoid_checks inputs that need no reduction

# simplicial cones, index growing from 30 to 60 in rank 2 and 12 to 60 in
# rank 3
HILBERT_CONES = [
    (2, [(1, 0), (7, 30)]),
    (2, [(1, 0), (11, 60)]),
    (2, [(2, -1), (5, 80)]),
    (3, [(1, 0, 0), (1, 3, 0), (1, 1, 12)]),
    (3, [(1, 0, 0), (0, 1, 0), (1, 2, 15)]),
    (3, [(1, 0, 0), (0, 1, 0), (2, 3, 25)]),
    (3, [(1, 0, 0), (0, 1, 0), (3, 5, 40)]),
    (3, [(1, 0, 0), (0, 1, 0), (5, 7, 60)]),
]

CARTESIAN_KS = (1, 2, 3, 4, 5, 6)

# families whose weakly semistable cone pairs give the criterion-8 maps
KATO_FAMILIES = ("fix_semi", "fix_double", "fix_subdiv")
KATO_HEIGHT = 8
