"""Independent checks of the benchmark's outputs.

Only integers and `Fraction` are used, and `semistable` is never imported:
every fact is re-derived from the definitions in `families.py`, by exact
linear algebra and by enumerating lattice points in a box.

`check_op(spec, output, pass_outputs)` returns a list of problems (empty
when the output is correct).  `pass_outputs` maps each operation name of the
same pass to its output, so `factor` can be checked against the reduction
of its family.
"""
from __future__ import annotations

import ast
import itertools
import json
import os
import re
from fractions import Fraction
from math import gcd

import families as fam

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

# half-width of the lattice-point boxes, by lattice rank
BOX = {1: 8, 2: 6, 3: 4}

# Base sublattices derived by hand (see README.md): family -> {ray: basis}
HAND_BASE_RAYS = {
    "s_ray": {(1,): [(3,)]},
    "s_quad": {(1, 0): [(1, 0)], (1, 1): [(6, 6)], (2, 3): [(4, 6)],
               (0, 1): [(0, 2)]},
    "fix_semi": {(1,): [(2,)]},
    "fix_double": {(1,): [(2,)]},
    "blowup_line_d2": {(1,): [(6,)]},
    "blowup_line_d3": {(1,): [(12,)]},
    "mult_k2": {(1,): [(2,)]},
    "mult_k3": {(1,): [(3,)]},
    "quad_proj": {(1,): [(1,)]},
}
HAND_BASE_COUNT = {"s_ray": 2, "s_quad": 8}


# ---------------------------------------------------------------------------
# exact linear algebra

def rref(rows, ncols):
    """Reduced row echelon form over Q: (rows, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    piv = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return a[:r], piv


def rank(vectors, n):
    return len(rref(vectors, n)[1]) if vectors else 0


def nullspace(rows, ncols):
    """Basis of {x : rows @ x = 0} over Q."""
    red, piv = rref(rows, ncols) if rows else ([], [])
    free = [c for c in range(ncols) if c not in piv]
    out = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, p in zip(red, piv):
            x[p] = -row[f]
        out.append(x)
    return out


def det(m):
    m = [[Fraction(x) for x in r] for r in m]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out


def matvec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def box(n, b):
    return itertools.product(range(-b, b + 1), repeat=n)


class Span:
    """Coordinates in a list of independent vectors, over Q."""

    def __init__(self, vectors, n):
        self.vectors = [tuple(v) for v in vectors]
        self.n = n
        # equations of the span
        self.eqs = nullspace(self.vectors, n) if self.vectors else \
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        k = len(self.vectors)
        # k coordinate rows where the vectors are independent
        cols = [[v[i] for v in self.vectors] for i in range(n)]
        _, piv = rref([list(r) for r in zip(*cols)], n) if k else ([], [])
        self.rows = piv
        if k:
            sq = [[cols[i][j] for j in range(k)] for i in piv]
            self.inv = _inverse(sq)

    def contains(self, v) -> bool:
        return all(sum(e * x for e, x in zip(eq, v)) == 0 for eq in self.eqs)

    def coords(self, v):
        """Coefficients of v, assuming v lies in the span."""
        if not self.vectors:
            return []
        w = [v[i] for i in self.rows]
        return [sum(a * b for a, b in zip(row, w)) for row in self.inv]


def _inverse(m):
    k = len(m)
    aug = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(m)]
    red, piv = rref(aug, k)
    if len(piv) < k:
        raise ValueError("singular matrix")
    return [row[k:] for row in red]


class ConeOracle:
    """Membership in the cone generated by `rays`, by Caratheodory: a point
    of the cone is a nonnegative combination of an independent subset of
    the rays of the size of the cone's dimension."""

    def __init__(self, rays, n):
        self.rays = sorted({tuple(r) for r in rays if any(r)})
        self.n = n
        d = rank(self.rays, n)
        self.span = None
        self.simplices = []
        for subset in itertools.combinations(self.rays, d):
            if rank(list(subset), n) == d:
                sp = Span(subset, n)
                self.span = self.span or sp
                self.simplices.append(sp)
        if self.span is None:
            self.span = Span([], n)

    def contains(self, v) -> bool:
        if not self.span.contains(v):
            return False
        if not self.rays:
            return True
        return any(all(x >= 0 for x in sp.coords(v)) for sp in self.simplices)

    def equals(self, other: "ConeOracle") -> bool:
        return (all(other.contains(r) for r in self.rays)
                and all(self.contains(r) for r in other.rays))


class LatticeOracle:
    """Membership in the sublattice with the given (independent) basis."""

    def __init__(self, basis, n):
        self.span = Span(basis, n)

    def contains(self, v) -> bool:
        if not self.span.contains(v):
            return False
        return all(x.denominator == 1 for x in self.span.coords(v))


def support(cones, n):
    return [ConeOracle(c, n) for c in cones]


def in_support(oracles, v) -> bool:
    return any(o.contains(v) for o in oracles)


def faces_of_simplicial(cones):
    """All faces of simplicial cones, as sorted ray tuples."""
    out = set()
    for c in cones:
        for k in range(len(c) + 1):
            for sub in itertools.combinations(sorted(map(tuple, c)), k):
                out.add(sub)
    return out


def compare_supports(cones, expected, n, what):
    """Problems where the union of `cones` and of `expected` differ."""
    got, want = support(cones, n), support(expected, n)
    for v in box(n, BOX[n]):
        if in_support(got, v) != in_support(want, v):
            return [f"{what}: support differs at {v}"]
    return []


# ---------------------------------------------------------------------------
# reductions

def _family_map(family):
    spec = fam.MORPHISMS[family]
    return spec[0], spec[2], [tuple(r) for r in spec[4]]


def check_cone_pair(sigma, n_sub, kappa, q_sub, p, n, q, what):
    """The rays of sigma map into kappa and generate it (or a face of it
    spanned by rays of kappa), and the pair is weakly semistable and
    representable on the lattice points of a box."""
    bad = []
    images = [matvec(p, r) for r in sigma]
    k_or = ConeOracle(kappa, q)
    if not all(k_or.contains(y) for y in images):
        return [f"{what}: rays {sigma} do not map into {kappa}"]
    img = ConeOracle(images, q)
    face = ConeOracle([r for r in kappa if img.contains(r)], q)
    if not img.equals(face):
        return [f"{what}: images of {sigma} do not generate a face of {kappa}"]
    s_or = ConeOracle(sigma, n)
    n_or = LatticeOracle(n_sub, n)
    q_or = LatticeOracle(q_sub, q)
    hit = set()
    for x in box(n, BOX[n]):
        if not s_or.span.contains(x):
            continue
        in_n = n_or.contains(x)
        y = matvec(p, x)
        if in_n != q_or.contains(y):
            bad.append(f"{what}: {sigma} is not representable at {x}")
            break
        if in_n and s_or.contains(x):
            hit.add(y)
    for y in box(q, BOX[n]):
        if img.contains(y) and q_or.contains(y) and y not in hit:
            bad.append(f"{what}: lattice point {y} of {kappa} has no lift in "
                       f"{sigma}")
            break
    return bad


def _stacky(payload):
    cones = [tuple(tuple(r) for r in c["rays"]) for c in payload["cones"]]
    subs = {e["cone_index"]: [tuple(v) for v in e["basis"]]
            for e in payload["sublattices"]}
    return cones, [subs[i] for i in range(len(cones))]


def check_reduction(family, total, total_subs, base, base_subs, matrix,
                    what="reduce"):
    """Generic and hand-derived checks of a reduction of `family`."""
    n, q, p = _family_map(family)
    bad = []
    if [tuple(r) for r in matrix] != p:
        bad.append(f"{what}: matrix {matrix} is not the family's {p}")
    src, tgt = fam.SUPPORTS[family]
    bad += compare_supports(total, src, n, f"{what}: total fan")
    bad += compare_supports(base, tgt, q, f"{what}: base fan")
    base_or = [ConeOracle(k, q) for k in base]
    for sigma, n_sub in zip(total, total_subs):
        img = ConeOracle([matvec(p, r) for r in sigma], q)
        hits = [j for j, k in enumerate(base_or) if img.equals(k)]
        if len(hits) != 1:
            bad.append(f"{what}: the image of {sigma} is not one base cone")
            continue
        j = hits[0]
        bad += check_cone_pair(sigma, n_sub, base[j], base_subs[j], p, n, q, what)
    return bad + check_hand_figures(family, total, base, base_subs, what)


def check_hand_figures(family, total, base, base_subs, what):
    """The figures derived by hand in README.md."""
    bad = []
    by_rays = dict(zip(base, base_subs))
    for ray, basis in HAND_BASE_RAYS.get(family, {}).items():
        if by_rays.get((ray,)) != basis:
            bad.append(f"{what}: base ray {ray} carries {by_rays.get((ray,))}, "
                       f"not {basis}")
    if family in HAND_BASE_COUNT and len(base) != HAND_BASE_COUNT[family]:
        bad.append(f"{what}: {len(base)} base cones, not "
                   f"{HAND_BASE_COUNT[family]}")
    if family == "s_ray" and set(total) != faces_of_simplicial(fam.STAR_OCTANT):
        bad.append(f"{what}: the total fan is not the star subdivision S")
    return bad


def check_reduce_doc(family, text):
    doc = json.loads(text)
    if doc.get("kind") != "reduction_result":
        return [f"reduce {family}: not a reduction_result"]
    pl = doc["payload"]
    total, total_subs = _stacky(pl["total"])
    base, base_subs = _stacky(pl["base"])
    return check_reduction(family, total, total_subs, base, base_subs,
                           pl["matrix"])


def check_complex_reduction(spec, out):
    """Cell-by-cell checks of a reduced cone complex."""
    bad = []
    what = spec["name"]
    src_cells = [(c["rank"], [tuple(r) for r in c["rays"]]) for c in out["source"]]
    total, base = out["total"], out["base"]
    # each source cell is the union of the total cells it owns
    for s, (n, rays) in enumerate(src_cells):
        owned = [[tuple(r) for r in t["rays"]] for t in total if t["owner"] == s]
        if not owned:
            bad.append(f"{what}: source cell {s} owns no total cell")
            continue
        bad += compare_supports(owned, [rays], n, f"{what}: source cell {s}")
    for i, t in enumerate(total):
        b = base[t["assign"]]
        p = [tuple(r) for r in t["map"]]
        bad += check_cone_pair([tuple(r) for r in t["rays"]],
                               [tuple(v) for v in t["sub"]],
                               [tuple(r) for r in b["rays"]],
                               [tuple(v) for v in b["sub"]],
                               p, t["rank"], b["rank"], f"{what}: total cell {i}")
    if "family" in spec:
        family = spec["family"]
        n, q, _ = _family_map(family)
        src, tgt = fam.SUPPORTS[family]
        total_cones = [tuple(map(tuple, t["rays"])) for t in total]
        base_cones = [tuple(map(tuple, b["rays"])) for b in base]
        bad += compare_supports(total_cones, src, n, f"{what}: total cells")
        bad += compare_supports(base_cones, tgt, q, f"{what}: base cells")
        bad += check_hand_figures(family, total_cones, base_cones,
                                  [[tuple(v) for v in b["sub"]] for b in base],
                                  what)
    if "base_ray" in spec["expect"]:
        rays = [b for b in base if len(b["rays"]) == 1]
        if len(rays) != 1 or rays[0]["sub"] != spec["expect"]["base_ray"]:
            bad.append(f"{what}: base ray sublattice is not "
                       f"{spec['expect']['base_ray']}")
    return bad


# ---------------------------------------------------------------------------
# factor certificates

def _parse_pairs(details, prefix):
    out = []
    for line in details:
        if line.startswith(prefix + ": "):
            left, right = line[len(prefix) + 2:].split(" -> ")
            out.append((ast.literal_eval(left), ast.literal_eval(right)))
    return out


def lattice_index(p, i):
    """[Z^n : {x : p(x) in i(Z^q)}] for a square invertible i."""
    d = abs(int(det(i)))
    n = len(p[0])
    inv = _inverse(i)
    count = 0
    for x in itertools.product(range(d), repeat=n):
        y = matvec(inv, matvec(p, x))
        count += all(v.denominator == 1 for v in y)
    return d ** n // count


def _iroot(k: int, n: int):
    """The integer r >= 0 with r ** n == k, or None."""
    lo, hi = 0, k
    while lo <= hi:
        mid = (lo + hi) // 2
        if mid ** n < k:
            lo = mid + 1
        elif mid ** n > k:
            hi = mid - 1
        else:
            return mid
    return None


def _nth_root(x: Fraction, n: int):
    a, b = _iroot(x.numerator, n), _iroot(x.denominator, n)
    return None if a is None or b is None else Fraction(a, b)


def derive_projection(pairs, n):
    """The lattice map M of the fiber product onto N forced by the
    certificate: M sends each ray of a total cone into the span of its
    assigned cone, which fixes M up to scale; the scale is fixed below."""
    r = max((len(v) for phi, _ in pairs for v in phi), default=0)
    rows = []
    for phi, sigma in pairs:
        if len(phi) != 1:
            continue
        v = phi[0]
        eqs = Span([s for s in sigma], n).eqs
        for e in eqs:
            # e . (M v) = sum_a sum_b e_a M[a][b] v_b
            rows.append([e[a] * v[b] for a in range(n) for b in range(r)])
    sol = nullspace(rows, n * r)
    if len(sol) != 1:
        return None
    return [[sol[0][a * r + b] for b in range(r)] for a in range(n)]


def check_factor(spec, text, pass_outputs):
    exp = spec["expect"]
    family, alteration = exp["family"], exp["alteration"]
    what = spec["name"]
    rep = json.loads(text)["payload"]
    if not rep["ok"]:
        return [f"{what}: no factorization: {rep['violations']}"]
    red_text = pass_outputs.get(f"reduce --input {family}")
    if red_text is None:
        return [f"{what}: the pass has no reduction of {family}"]
    red = json.loads(red_text)["payload"]
    base, base_subs = _stacky(red["base"])
    total, _ = _stacky(red["total"])
    n, q, p = _family_map(family)
    i = [tuple(r) for r in fam.MORPHISMS[alteration][4]]
    bad = []
    base_set = {k: s for k, s in zip(base, base_subs)}
    base_pairs = _parse_pairs(rep["details"], "base")
    total_pairs = _parse_pairs(rep["details"], "total")
    if not base_pairs or not total_pairs:
        return [f"{what}: the certificate is empty"]
    for gamma, kappa in base_pairs:
        if kappa not in base_set:
            bad.append(f"{what}: {kappa} is not a cone of the reduced base")
            continue
        k_or = ConeOracle(kappa, q)
        if not all(k_or.contains(matvec(i, g)) for g in gamma):
            bad.append(f"{what}: base cone {gamma} does not map into {kappa}")
        q_or = LatticeOracle(base_set[kappa], q)
        g_span = Span(list(gamma), q) if gamma else None
        for x in box(q, 3):
            if g_span and g_span.contains(x) and not q_or.contains(matvec(i, x)):
                bad.append(f"{what}: lattice point {x} of {gamma} leaves the "
                           f"sublattice of {kappa}")
                break
    total_set = set(total)
    m = derive_projection(total_pairs, n)
    if m is None:
        return bad + [f"{what}: the total assignments do not fix the projection"]
    # scale: M maps the fiber lattice onto {x : p(x) in i(Z^q)}
    d0 = abs(det(m))
    t = _nth_root(Fraction(lattice_index(p, i)) / d0, n) if d0 else None
    if t is None:
        return bad + [f"{what}: no integral projection fits the certificate"]
    m = [[t * x for x in row] for row in m]
    for sign in (1, -1):
        ms = [[sign * x for x in row] for row in m]
        ok = all(ConeOracle(sigma, n).contains(matvec(ms, v))
                 for phi, sigma in total_pairs for v in phi)
        if ok:
            break
    else:
        bad.append(f"{what}: some total cone does not map into its assigned cone")
    for _, sigma in total_pairs:
        if sigma not in total_set:
            bad.append(f"{what}: {sigma} is not a cone of the reduced total fan")
    return bad


# ---------------------------------------------------------------------------
# other subcommands

def _fan_payload(text, kind="fan"):
    doc = json.loads(text)
    if doc.get("kind") != kind:
        raise ValueError(f"expected a {kind} document")
    return doc["payload"]


def _cones(payload):
    return [tuple(tuple(r) for r in c["rays"]) for c in payload["cones"]]


def maximal(cones):
    sets = [set(c) for c in cones]
    return sorted(c for c, s in zip(cones, sets)
                  if not any(s < o for o in sets))


def multiplicity(cone, n):
    """Index of the lattice spanned by the rays of a simplicial cone in the
    lattice points of its span."""
    if not cone:
        return 1
    rays = [tuple(r) for r in cone]
    if len(rays) == n:
        return abs(int(det(rays)))
    # gcd of the maximal minors
    g = 0
    for cols in itertools.combinations(range(n), len(rays)):
        g = gcd(g, int(det([[r[c] for c in cols] for r in rays])))
    return g


def maps_into_one(cones, matrix, targets, q):
    oracles = [ConeOracle(t, q) for t in targets]
    bad = []
    for c in cones:
        imgs = [matvec(matrix, r) for r in c]
        if not any(all(o.contains(y) for y in imgs) for o in oracles):
            bad.append(f"cone {c} does not map into one target cone")
    return bad


def hilbert_brute(rank_, rays):
    """Irreducible lattice points of a simplicial cone, by enumerating the
    fundamental zonotope sum [0, 1] * ray."""
    sp = Span(rays, rank_)
    lo = [sum(min(0, r[j]) for r in rays) for j in range(rank_)]
    hi = [sum(max(0, r[j]) for r in rays) for j in range(rank_)]
    cand = []
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if not any(x) or not sp.contains(x):
            continue
        lam = sp.coords(x)
        if all(0 <= v <= 1 for v in lam):
            cand.append((x, lam))
    out = []
    for x, lam in cand:
        reducible = any(y != x and all(a <= b for a, b in zip(mu, lam))
                        for y, mu in cand)
        if not reducible:
            out.append(x)
    return sorted(out)


def check_hilbert(rank_, rays, got, what):
    want = hilbert_brute(rank_, [tuple(r) for r in rays])
    got = sorted(tuple(v) for v in got)
    return [] if got == want else [f"{what}: Hilbert basis {got} is not {want}"]


_SVG_NUM = r"(-?[0-9]+\.[0-9]{2})"


def check_render(fan_name, text):
    rank_, cones = fam.FANS[fan_name]
    want_polys = {frozenset(map(tuple, c)) for c in cones}
    want_rays = {tuple(r) for c in cones for r in c}
    polys = re.findall(r'<polygon points="([^"]*)"', text)
    lines = re.findall(rf'<line x1="0.00" y1="0.00" x2="{_SVG_NUM}" '
                       rf'y2="{_SVG_NUM}"', text)

    def direction(pt, ray):
        # the drawn point is the ray scaled to length 100 in the max norm
        s = Fraction(100, max(abs(x) for x in ray))
        return abs(Fraction(pt[0]) - ray[0] * s) <= Fraction(1, 200) and \
            abs(Fraction(pt[1]) + ray[1] * s) <= Fraction(1, 200)

    bad = []
    got_polys = []
    for poly in polys:
        pts = [tuple(p.split(",")) for p in poly.split()]
        if pts[0] != ("0.00", "0.00"):
            bad.append(f"render {fan_name}: polygon does not start at the origin")
        got_polys.append(frozenset(
            r for r in want_rays for pt in pts[1:] if direction(pt, r)))
    if sorted(map(sorted, got_polys)) != sorted(map(sorted, want_polys)):
        bad.append(f"render {fan_name}: polygons do not match the 2-cones")
    got_rays = {r for pt in lines for r in want_rays if direction(pt, r)}
    if len(lines) != len(want_rays) or got_rays != want_rays:
        bad.append(f"render {fan_name}: lines do not match the rays")
    if not text.startswith("<?xml") or not text.rstrip().endswith("</svg>"):
        bad.append(f"render {fan_name}: not an SVG document")
    return bad


def check_basechange(spec, text):
    exp = spec["expect"]
    what = spec["name"]
    pl = _fan_payload(text, "fan_morphism")
    n, q, _ = _family_map(exp["family"])
    j = [tuple(r) for r in exp["matrix"]]
    src, tgt = _cones(pl["source"]), _cones(pl["target"])
    matrix = [tuple(r) for r in pl["matrix"]]
    bad = [f"{what}: {b}" for b in maps_into_one(src, matrix, tgt, q)]
    # the new base is the preimage of the old base support under j
    _, tgt_support = fam.SUPPORTS[exp["family"]]
    want = support(tgt_support, q)
    got = support(tgt, q)
    for y in box(q, BOX[q]):
        if in_support(got, y) != in_support(want, matvec(j, y)):
            bad.append(f"{what}: the new base support differs at {y}")
            break
    if pl["source"]["lattice_rank"] != n:
        bad.append(f"{what}: the fiber lattice has rank "
                   f"{pl['source']['lattice_rank']}, not {n}")
    return bad


def check_cli(spec, out, pass_outputs):
    exp = spec["expect"]
    what = spec["name"]
    if out["code"] != exp.get("code", 0):
        return [f"{what}: exit code {out['code']}, expected {exp.get('code', 0)}"]
    text = out["out"]
    cmd = spec["args"][0]
    if cmd == "check":
        rep = json.loads(text)["payload"]
        bad = []
        if rep["ok"] != exp["ok"]:
            bad.append(f"{what}: ok is {rep['ok']}")
        for d in exp.get("details", []):
            if d not in rep["details"]:
                bad.append(f"{what}: missing detail {d!r}")
        for v in exp.get("violations", []):
            if not any(x.startswith(v) for x in rep["violations"]):
                bad.append(f"{what}: missing violation {v!r}")
        return bad
    if cmd == "reduce":
        return check_reduce_doc(exp["family"], text)
    if cmd == "factor":
        return check_factor(spec, text, pass_outputs)
    if cmd == "minmod":
        n, q, p = _family_map(exp["family"])
        cones = _cones(_fan_payload(text))
        sub_rank, sub = fam.FANS[exp["subdivision"]]
        src, _ = fam.SUPPORTS[exp["family"]]
        return (compare_supports(cones, src, n, what)
                + [f"{what}: {b}" for b in maps_into_one(cones, p, sub, sub_rank)])
    if cmd == "fanprod":
        # the fiber lattice basis is the library's choice, so compare what
        # does not depend on it: the dimension and multiplicity of each
        # maximal cone
        pl = _fan_payload(text)
        n = pl["lattice_rank"]
        got = sorted([len(c), multiplicity(c, n)] for c in maximal(_cones(pl)))
        bad = []
        if n != exp["rank"]:
            bad.append(f"{what}: rank {n}")
        if got != sorted(exp["maximal"]):
            bad.append(f"{what}: maximal cones (dim, multiplicity) {got}, "
                       f"expected {exp['maximal']}")
        return bad
    if cmd == "basechange":
        return check_basechange(spec, text)
    if cmd == "hilbert":
        rank_, cones = fam.FANS[exp["fan"]]
        return check_hilbert(rank_, cones[0], json.loads(text)["payload"]["details"],
                             what)
    if cmd == "render":
        return check_render(exp["fan"], text)
    return [f"{what}: no check for {cmd}"]


# ---------------------------------------------------------------------------
# monoids

def positive_functional(gens, n):
    for f in box(n, 3):
        if all(sum(a * b for a, b in zip(f, g)) > 0 for g in gens):
            return f
    raise ValueError("no small positive functional")


def enumerate_monoid(gens, n, height):
    """Elements of the monoid generated by `gens` with f-height <= height."""
    f = positive_functional(gens, n)
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(a + b for a, b in zip(x, g))
                if y not in seen and sum(a * b for a, b in zip(f, y)) <= height:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen, f


def check_kato_cex(entry, cex, height):
    """A counterexample (p1, p2, q1, q2) to the equational criterion must
    satisfy p1 + q1 = p2 + q2 with p in the target monoid and q in the image
    of the source monoid, and admit no witness (w, r1, r2) with
    p1 = w + u(r1), p2 = w + u(r2) and s1 + r1 = s2 + r2."""
    tgt = [tuple(g) for g in entry["target"]["generators"]]
    src = [tuple(g) for g in entry["source"]["generators"]]
    u = [tuple(r) for r in entry["matrix"]]
    n_t, n_s = entry["target"]["rank"], entry["source"]["rank"]
    p1, p2, q1, q2 = (tuple(v) for v in cex)
    if tuple(a + b for a, b in zip(p1, q1)) != tuple(a + b for a, b in zip(p2, q2)):
        return ["kato: p1 + q1 != p2 + q2"]
    T, f = enumerate_monoid(tgt, n_t, 4 * height)
    S, _ = enumerate_monoid(src, n_s, 4 * height)
    image = {matvec(u, s): s for s in S}
    if p1 not in T or p2 not in T:
        return ["kato: p1 or p2 is not in the target monoid"]
    if q1 not in image or q2 not in image:
        return ["kato: q1 or q2 is not in the image of the source monoid"]
    s1, s2 = image[q1], image[q2]
    for r1 in S:
        w = tuple(a - b for a, b in zip(p1, matvec(u, r1)))
        r2 = tuple(a + b - c for a, b, c in zip(s1, r1, s2))
        if w in T and r2 in S and \
                tuple(a + b for a, b in zip(w, matvec(u, r2))) == p2:
            return [f"kato: counterexample {cex} has the witness {w, r1, r2}"]
    return []


def check_library(spec, out):
    what = spec["name"]
    kind = spec["op"]
    if kind == "reduce_complex":
        return check_complex_reduction(spec, out)
    if kind == "hilbert":
        return check_hilbert(spec["rank"], spec["rays"], out, what)
    if kind == "cartesian":
        want = spec["expect"]["ok"]
        return [] if out["ok"] == want else [f"{what}: cartesian is {out['ok']}"]
    if kind == "kato":
        with open(os.path.join(INPUTS, "monoid_maps.json"), encoding="utf-8") as fh:
            entry = json.load(fh)[spec["map"]]
        ok, cex = out
        if ok != entry["expect"]:
            return [f"{what}: kato_integral is {ok} on {entry['name']}"]
        if not ok:
            if cex is None:
                return [f"{what}: no counterexample"]
            return [f"{what}: {b}" for b in check_kato_cex(entry, cex, spec["height"])]
        return []
    return [f"{what}: no check for {kind}"]


def check_op(spec, output, pass_outputs):
    """Problems with one operation's output (empty list when correct)."""
    try:
        if spec["op"] == "cli":
            return check_cli(spec, output, pass_outputs)
        return check_library(spec, output)
    except (ValueError, KeyError, TypeError, IndexError, SyntaxError) as exc:
        return [f"{spec['name']}: unreadable output ({type(exc).__name__}: {exc})"]
