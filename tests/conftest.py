"""Shared brute-force oracles, kept independent of the library paths they
check."""

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd

import pytest

from knotcol.certificates import STAR_MULTISETS
from knotcol.coloring import DehnColoring, is_valid_coloring
from knotcol.diagram import (
    CATALOG,
    Diagram,
    PDError,
    catalog_diagram,
    checkerboard,
    components,
)


def dense(m):
    """The dense integer rows of a SparseMatrix, the one conversion the
    tests make when an oracle needs indexed entries."""
    return [[r.get(j, 0) for j in range(m.ncols)] for r in m.rows]


def dense_coloring_matrix(d):
    """The coloring matrix by its definition: row i is e_x1 - e_x2 + e_x3 -
    e_x4 over the regions, for the regions (x1, x2, x3, x4) of crossing i."""
    rows = []
    for x1, x2, x3, x4 in d.relations:
        row = [0] * len(d.regions)
        row[x1] += 1
        row[x3] += 1
        row[x2] -= 1
        row[x4] -= 1
        rows.append(row)
    return rows


def dense_alexander_matrix(d):
    """A_D(-1): the coloring matrix with the unit row e_0 below it."""
    return dense_coloring_matrix(d) + [[1] + [0] * (len(d.regions) - 1)]


def dense_fox_matrix(d):
    """The Fox matrix by its definition: row i is e_u + e_u' - 2 e_w over the
    arcs, for the under arcs u, u' and the over arc w of crossing i."""
    arc = d.arc_of_semiarc
    rows = []
    for a, b, c, _ in d.pd.crossings:
        row = [0] * len(d.arcs)
        row[arc[a]] += 1
        row[arc[c]] += 1
        row[arc[b]] -= 2
        rows.append(row)
    return rows


def dense_augmented_matrix(d, c):
    """The full augmented matrix of a nontrivial coloring c: the coloring
    matrix and, below it, e_i - e_j for the lex-first pair of regions i < j
    of one color and opposite shades (variant B), or e_0 when there is none
    (variant A)."""
    shading = checkerboard(d)
    nreg = len(d.regions)
    extra = [0] * nreg
    pair = next(((i, j) for i, j in combinations(range(nreg), 2)
                 if c.values[i] == c.values[j] and shading[i] != shading[j]), None)
    if pair is None:
        extra[0] = 1
    else:
        extra[pair[0]], extra[pair[1]] = 1, -1
    return dense_coloring_matrix(d) + [extra]


def reference_checkerboard(d):
    """The checkerboard shading by a search from region 0 over the regions
    that share a semiarc, alternating shades: the reference that
    `checkerboard` must equal."""
    shade = [None] * len(d.regions)
    shade[0] = 0
    queue = [0]
    adjacency = [[] for _ in d.regions]
    for r1, r2 in d.regions_of_semiarc.values():
        adjacency[r1].append(r2)
        adjacency[r2].append(r1)
    while queue:
        r = queue.pop()
        for nb in adjacency[r]:
            if shade[nb] is None:
                shade[nb] = 1 - shade[r]
                queue.append(nb)
            elif shade[nb] == shade[r]:
                raise PDError("diagram not checkerboard-colorable; corrupt input")
    if any(s is None for s in shade):
        raise PDError("disconnected region adjacency; corrupt input")
    return tuple(shade)


def det_cofactor(rows):
    """Determinant by cofactor expansion, memoized on column subsets."""
    n = len(rows)
    cache = {}

    def expand(r, cols):
        if r == n:
            return 1
        key = (r, cols)
        if key in cache:
            return cache[key]
        total = 0
        sign = 1
        for idx, c in enumerate(cols):
            if rows[r][c]:
                rest = cols[:idx] + cols[idx + 1:]
                total += sign * rows[r][c] * expand(r + 1, rest)
            sign = -sign
        cache[key] = total
        return total

    return expand(0, tuple(range(n)))


def gcd_of_minors(rows, k):
    """gcd of all k x k minors, minors computed by cofactor expansion."""
    nr, nc = len(rows), len(rows[0])
    g = 0
    for rsel in combinations(range(nr), k):
        for csel in combinations(range(nc), k):
            minor = det_cofactor([[rows[r][c] for c in csel] for r in rsel])
            g = gcd(g, minor)
    return g


def random_star_matrix(k: int, seed: int) -> list:
    """Random order-k matrix whose rows all satisfy the multiset condition."""
    if k < 1:
        raise ValueError("order must be >= 1")
    rng = random.Random(seed)
    choices = sorted(ms for ms in STAR_MULTISETS if len(ms) <= k)
    rows = []
    for _ in range(k):
        ms = list(rng.choice(choices))
        rng.shuffle(ms)
        positions = rng.sample(range(k), len(ms))
        row = [0] * k
        for pos, e in zip(positions, ms):
            row[pos] = e
        rows.append(row)
    return rows


def brute_dehn_colorings(d, p):
    """All Dehn colorings by exhausting p^(#regions) region assignments."""
    found = []
    for vals in product(range(p), repeat=len(d.regions)):
        c = DehnColoring(p, vals)
        if is_valid_coloring(d, c):
            found.append(c)
    return found


def brute_fox_count(d, p):
    """#Fox colorings by exhausting p^(#arcs) arc assignments."""
    count = 0
    crossings = d.pd.crossings
    arc = d.arc_of_semiarc
    for vals in product(range(p), repeat=len(d.arcs)):
        if all((vals[arc[a]] + vals[arc[c]] - 2 * vals[arc[b]]) % p == 0
               for a, b, c, _ in crossings):
            count += 1
    return count


def brute_r_witness_exists(g):
    """Exhaustive vertex-subset search for a connected label-closed
    subgraph with >= 3 vertices, using the maximal admissible edge set."""
    verts = sorted(g.vertices)
    for r in range(3, len(verts) + 1):
        for subset in combinations(verts, r):
            vs = set(subset)
            edges = [e for e, label in g.edges.items()
                     if e[0] in vs and e[1] in vs and label in vs]
            if _connected_spanning(vs, edges):
                return True
    return False


def reference_connected_r_witness(g):
    """The greatest-fixpoint witness search on a copy of the edges, deleting
    each round's doomed edges in place: the reference that
    `connected_r_witness` must equal, witness set and all."""
    edges = dict(g.edges)
    while True:
        comp = components(g.vertices, edges)
        doomed = [e for e, label in edges.items() if comp[label] != comp[e[0]]]
        if not doomed:
            break
        for e in doomed:
            del edges[e]
    sizes = {}
    for v, c in comp.items():
        sizes.setdefault(c, set()).add(v)
    qualifying = [vs for vs in sizes.values() if len(vs) >= 3]
    if not qualifying:
        return "none"
    return frozenset(min(qualifying, key=min))


@dataclass(frozen=True)
class RSubgraph:
    vertices: frozenset
    edges: frozenset  # of (u, v) pairs, u < v


def is_r_subgraph(h: RSubgraph, g) -> bool:
    """h is a subgraph of the palette graph g whose every edge label is a
    vertex of h."""
    if not h.vertices <= g.vertices:
        return False
    for e in h.edges:
        if e not in g.edges:
            return False
        if e[0] not in h.vertices or e[1] not in h.vertices:
            return False
        if g.edges[e] not in h.vertices:
            return False
    return True


def to_rsubgraph(g) -> RSubgraph:
    return RSubgraph(g.vertices, frozenset(g.edges))


def _connected_spanning(vs, edges):
    if not vs:
        return False
    start = next(iter(vs))
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen == vs


ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def dividing_primes(det, limit=32):
    return [p for p in ODD_PRIMES if p < limit and det % p == 0]


def torus_pd(n):
    """PD code of the (2, n) torus knot for odd n >= 3."""
    def label(x):
        return (x - 1) % (2 * n) + 1
    return " ".join(
        f"X[{label(2 * i + 1)},{label(2 * i + n + 1)},{label(2 * i + 2)},{label(2 * i + n + 2)}]"
        for i in range(n))


def seeded_pretzels(seed, count):
    """Twist tuples of pretzel knots: an odd number (3, 5 or 7) of odd
    twists in 1..15, so each is a knot."""
    rng = random.Random(seed)
    return [tuple(rng.randrange(1, 16, 2) for _ in range(rng.choice((3, 5, 7))))
            for _ in range(count)]


def pretzel_pd(twists):
    """PD code of the pretzel knot P(m_1, ..., m_k), k and every m_i odd.

    Column t is a vertical stack of m_t crossings, each with its corners
    counterclockwise NW, SW, SE, NE and the SW-NE strand under.  The right
    top (bottom) end of each column joins the left top (bottom) end of the
    next, cyclically.  Semiarcs are numbered 1, 2, ... along a walk of the
    knot, and each crossing is written from its incoming under slot.
    """
    k = len(twists)

    def edge(t, right, j):
        if j in (0, twists[t]):  # joins two columns, at the top or bottom
            return (j == 0, t if right else (t - 1) % k)
        return (t, right, j)

    quads = [(edge(t, 0, j), edge(t, 0, j + 1), edge(t, 1, j + 1), edge(t, 1, j))
             for t, m in enumerate(twists) for j in range(m)]
    ends = {}
    for ci, quad in enumerate(quads):
        for slot, e in enumerate(quad):
            ends.setdefault(e, []).append((ci, slot))
    labels, start = {}, {}
    ci, slot = 0, 1
    while True:
        if slot % 2:
            start.setdefault(ci, slot)
        exit_slot = (slot + 2) % 4
        out = quads[ci][exit_slot]
        if out in labels:
            break
        labels[out] = len(labels) + 1
        ci, slot = next(end for end in ends[out] if end != (ci, exit_slot))
    assert len(labels) == 2 * len(quads), "the twists describe a link"
    return " ".join(
        "X[" + ",".join(str(labels[quad[(start[ci] + r) % 4]]) for r in range(4)) + "]"
        for ci, quad in enumerate(quads))


def reference_validate_pd(pd):
    """PD validation as a dict count and a union-find over the strands."""
    if not pd.crossings:
        raise PDError("PD code has no crossings")
    counts = {}
    for q in pd.crossings:
        for a in q:
            counts[a] = counts.get(a, 0) + 1
    bad = [a for a, c in counts.items() if c != 2]
    if bad:
        raise PDError(f"invalid PD code: labels {sorted(bad)} do not appear exactly twice")
    if len(counts) != 2 * pd.n:
        raise PDError(
            f"invalid PD code: {len(counts)} semiarc labels for {pd.n} crossings"
        )
    _reference_require_single_component(pd)
    return pd


def _reference_require_single_component(pd):
    # strand continuation joins positions 0-2 (under) and 1-3 (over)
    pairs = (pair for a, b, c, d in pd.crossings for pair in ((a, c), (b, d)))
    roots = set(components(pd.semiarcs(), pairs).values())
    if len(roots) != 1:
        raise PDError(
            f"PD code describes a link with {len(roots)} components; only knots are supported"
        )


def reference_build_diagram(pd):
    """The diagram of a PD code built from dicts keyed by (crossing,
    position) darts, one face walk and a sort by a key recomputed per dart:
    the reference that `build_diagram` must equal."""
    n = pd.n
    # pair up the two darts of each semiarc
    occurrences = {}
    for ci, quad in enumerate(pd.crossings):
        for pos, label in enumerate(quad):
            occurrences.setdefault(label, []).append((ci, pos))
    other = {}
    for label, darts in occurrences.items():
        (d1, d2) = darts
        other[d1] = d2
        other[d2] = d1

    # face traversal: next dart = rotate(other(dart))
    seen = set()
    faces = []
    for start in sorted(other):
        if start in seen:
            continue
        face = []
        d = start
        while d not in seen:
            seen.add(d)
            face.append(d)
            c2, p2 = other[d]
            d = (c2, (p2 + 1) % 4)
        if d != start:
            raise PDError("non-planar or corrupt PD code: face traversal did not close")
        faces.append(tuple(face))
    if len(faces) != n + 2:
        raise PDError(
            f"non-planar or corrupt PD code: {len(faces)} faces, expected {n + 2}"
        )

    # deterministic region order: sort by minimal (semiarc label, side) slot
    def side(dart):
        c, p = dart
        label = pd.crossings[c][p]
        return 0 if dart == min(occurrences[label]) else 1

    def face_key(face):
        return min((pd.crossings[c][p], side((c, p))) for c, p in face)

    faces.sort(key=face_key)
    region_of_dart = {}
    for ri, face in enumerate(faces):
        for d in face:
            region_of_dart[d] = ri

    # over-arcs: semiarcs at positions 1 and 3 of a crossing belong to one arc
    labels = pd.semiarcs()
    root = components(labels, ((quad[1], quad[3]) for quad in pd.crossings))
    groups = {}
    for a in labels:
        groups.setdefault(root[a], []).append(a)
    arcs = tuple(frozenset(g) for _, g in sorted(groups.items()))
    arc_of_semiarc = {a: i for i, g in enumerate(arcs) for a in g}

    # the face orbit reaching dart (c, p+1) turns through the corner
    # between positions p and p+1, so that corner lies in its face
    quadrants = []
    for ci in range(n):
        quadrants.append(tuple(
            region_of_dart[(ci, (p + 1) % 4)] for p in range(4)
        ))

    regions_of_semiarc = {
        label: tuple(region_of_dart[d] for d in darts)
        for label, darts in occurrences.items()
    }
    # relation regions (x1, x2, x3, x4) = (q01, q30, q12, q23) of the
    # quadrants (q01, q12, q23, q30)
    relations = tuple((q01, q30, q12, q23) for q01, q12, q23, q30 in quadrants)
    return Diagram(pd, tuple(faces), arcs, arc_of_semiarc, relations,
                   regions_of_semiarc)


@pytest.fixture(scope="session")
def catalog():
    return {name: catalog_diagram(name) for name in CATALOG}
