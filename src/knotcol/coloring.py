"""Dehn colorings of a diagram: solution space, classification,
per-diagram minimum colors, the Fox correspondence, and the knot
determinant.

The coloring spaces, their dimensions and the knot determinant are solved
on the Goeritz matrix of the checkerboard class with fewer regions, at most
(n + 2) / 2 rows where the coloring matrix has n.  The coloring matrix
stays for the certificates' rank checks."""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from knotcol import exactalg
from knotcol.diagram import Diagram, checkerboard
from knotcol.exactalg import SparseMatrix

# the default cap of colorings(); perfbench/run.py also reads this name
DEFAULT_BUDGET = 10 ** 6

ONE_TRIVIAL = "one_trivial"
TWO_TRIVIAL = "two_trivial"
NONTRIVIAL = "nontrivial"


class NotAColoringError(ValueError):
    pass


class _DehnColoringFields(NamedTuple):
    p: int
    values: tuple  # region index -> residue


class DehnColoring(_DehnColoringFields):
    # the check runs in __new__, which _make and _replace bypass; the
    # library calls neither on a DehnColoring
    __slots__ = ()

    def __new__(cls, p, values):
        if values and (min(values) < 0 or max(values) >= p):
            raise ValueError(f"coloring values must be residues mod {p}")
        return super().__new__(cls, p, values)


def _sparse_row(*terms) -> dict:
    """The sum of the terms (column, coefficient) as a row {column:
    nonzero}: terms in one column merge, and a column that cancels is not
    stored."""
    row = {}
    for j, v in terms:
        row[j] = row.get(j, 0) + v
    return {j: v for j, v in row.items() if v}


def coloring_matrix(d: Diagram) -> SparseMatrix:
    """The crossing relations x1 - x2 + x3 - x4 = 0, one row per crossing
    and one column per region: n x (n+2), at most 4 nonzeros a row.  At a
    kink two quadrants are one region, and their entries merge or cancel.
    The certificates augment it; the colorings are solved on `_goeritz`."""
    rows = []
    for x1, x2, x3, x4 in d.relations:
        if len({x1, x2, x3, x4}) == 4:
            rows.append({x1: 1, x3: 1, x2: -1, x4: -1})
        else:
            rows.append(_sparse_row((x1, 1), (x3, 1), (x2, -1), (x4, -1)))
    return SparseMatrix(rows, d.nregions)


def is_valid_coloring(d: Diagram, c: DehnColoring) -> bool:
    v = c.values
    if len(v) != d.nregions:
        return False
    for x1, x2, x3, x4 in d.relations:
        if (v[x1] + v[x3] - v[x2] - v[x4]) % c.p:
            return False
    return True


def checkerboard_coloring(d: Diagram, p: int) -> DehnColoring:
    """The 2-trivial coloring with image {0, 1} and region 0 colored 0."""
    return DehnColoring(p, checkerboard(d))


class ColoringSpace(NamedTuple):
    p: int
    basis: tuple       # of DehnColoring
    dimension: int
    count: int
    enumerated: tuple  # all colorings, or () when count exceeds the budget


def _goeritz(d: Diagram, shading: tuple):
    """The regions S of the checkerboard class with fewer regions (shade 0
    on a tie), in increasing order; the Goeritz matrix G of S, |S| x |S|,
    its rows and columns in that order; and each crossing relation as
    regions (s, t, u, v) with s and t in S.

    x1 + x3 = x2 + x4 reads x1 - x4 = x2 - x3, and x1, x4 share a shade, as
    do x2, x3.  So for colors y on S and z on the other class U, each
    relation says y(s) - y(t) = z(u) - z(v): (s, t, u, v) is (x1, x4, x2,
    x3) when S holds x1, else (x2, x3, x1, x4).  The pairs (u, v) are the
    edges of the Tait graph of U, whose faces are the regions of S, so z
    exists exactly when the differences y(s) - y(t) sum to 0 around every
    face.  Clockwise around the face of s they sum to row s of G y, where G
    is the sum of eps (e_s - e_t)(e_s - e_t)^T over the relations with
    s != t, eps = +1 when S holds x1 and -1 when it holds x2 (Goeritz,
    1933).  The sign differs between the crossings of a non-alternating
    diagram only.
    """
    side = int(2 * sum(shading) < len(shading))
    regions = [r for r, shade in enumerate(shading) if shade == side]
    pairs = []
    weight = {}  # (s, t) -> the sum of eps over its relations
    for x1, x2, x3, x4 in d.relations:
        if shading[x1] == side:
            pairs.append((x1, x4, x2, x3))
            if x1 != x4:
                weight[x1, x4] = weight.get((x1, x4), 0) + 1
        else:
            pairs.append((x2, x3, x1, x4))
            if x2 != x3:
                weight[x2, x3] = weight.get((x2, x3), 0) - 1
    index = dict(zip(regions, range(len(regions))))
    rows = [{} for _ in regions]
    for (s, t), w in weight.items():
        i, j = index[s], index[t]
        for a, b, v in ((i, i, w), (j, j, w), (i, j, -w), (j, i, -w)):
            rows[a][b] = rows[a].get(b, 0) + v
    rows = [{j: v for j, v in r.items() if v} for r in rows]
    return regions, SparseMatrix(rows, len(regions)), pairs


def colorings(d: Diagram, p: int, budget: int = DEFAULT_BUDGET) -> ColoringSpace:
    """The Dehn colorings of d mod p: the reduced echelon basis that
    `nullspace_mod_p` gives for the coloring matrix, its length dim, the
    count p^dim, and, when the count is at most budget, every coloring in
    `_span` order.

    A coloring is y on S with G y = 0 mod p, for S and G of `_goeritz`,
    extended to U along a spanning tree of the Tait graph of U, plus a
    constant on U.  So the null vectors of G, so extended, and the vector
    that is 1 on U and 0 on S span the colorings, and the basis is read off
    them with the canonical step of `nullspace_mod_p`.
    """
    exactalg._require_odd_prime(p)
    shading = checkerboard(d)
    regions, g, pairs = _goeritz(d, shading)
    nreg = d.nregions
    # the Tait graph of U grown breadth first from its first region into a
    # spanning tree of (region, parent, a, b): z(region) = z(parent) + y(a) - y(b)
    near = [[] for _ in range(nreg)]
    for s, t, u, v in pairs:
        if u != v:
            near[u].append((v, t, s))
            near[v].append((u, s, t))
    order = [shading.index(1 - shading[regions[0]])]
    seen = set(order)
    tree = []
    for u in order:
        for v, a, b in near[u]:
            if v not in seen:
                seen.add(v)
                order.append(v)
                tree.append((v, u, a, b))
    last = nreg - 1
    vectors = [{last - r: 1 for r in order}]  # coordinates reversed
    for y in exactalg.nullspace_mod_p(g, p):
        x = [0] * nreg
        for r, c in zip(regions, y):
            x[r] = c
        for v, u, a, b in tree:
            x[v] = (x[u] + x[a] - x[b]) % p
        vectors.append({last - r: c for r, c in enumerate(x) if c})
    basis = exactalg._canonical_basis(vectors, nreg, p)
    dim = len(basis)
    count = p ** dim
    enumerated = ()
    if count <= budget:
        enumerated = tuple(
            DehnColoring(p, v) for v in _span(basis, p, nreg)
        )
    return ColoringSpace(p, tuple(DehnColoring(p, b) for b in basis),
                         dim, count, enumerated)


def coloring_dimension(d: Diagram, p: int) -> int:
    """The dimension of the Dehn colorings mod p, 1 + |S| - rank_p(G) for S
    and G of `_goeritz`: the null space of G, and a constant on U."""
    regions, g, _ = _goeritz(d, checkerboard(d))
    return 1 + len(regions) - exactalg.rank_mod_p(g, p)


def _span(basis, p, width):
    """Every combination of the basis vectors v_i, in `itertools.product`
    order of the coefficients, stepped like an odometer: when digit j goes
    up and the digits after it wrap from p-1 to 0, the vector gains
    carry[j] = sum of v_i for i >= j (mod p)."""
    carry = [[0] * width]
    for b in reversed(basis):
        carry.append([(x + y) % p for x, y in zip(carry[-1], b)])
    carry = carry[:0:-1]
    digits = [0] * len(carry)
    cur = [0] * width
    while True:
        yield tuple(cur)
        j = len(digits) - 1
        while j >= 0 and digits[j] == p - 1:
            digits[j] = 0
            j -= 1
        if j < 0:
            return
        digits[j] += 1
        cur = [(x + y) % p for x, y in zip(cur, carry[j])]


def classify(d: Diagram, c: DehnColoring) -> str:
    """ONE_TRIVIAL, TWO_TRIVIAL or NONTRIVIAL; a coloring is trivial when
    x1 = x4 and x2 = x3 at every crossing."""
    if not is_valid_coloring(d, c):
        raise NotAColoringError("not a coloring: a crossing relation fails")
    v = c.values
    if any(v[x1] != v[x4] or v[x2] != v[x3] for x1, x2, x3, x4 in d.relations):
        return NONTRIVIAL
    return ONE_TRIVIAL if len(set(v)) == 1 else TWO_TRIVIAL


# most work `min_colors_diagram` takes on, counted as representatives times
# regions, since each representative costs time in proportion to its length:
# 10^6 representatives of 47 regions took 13 s
MINCOL_SCAN_LIMIT = 47 * 10 ** 6


class MinColorsResult(NamedTuple):
    min_colors: int | None  # None when no coloring is nontrivial
    witness: DehnColoring | None
    lower_bound: int


def theorem_lower_bound(p: int) -> int:
    """floor(log2 p) + 2, the fewest colors a nontrivial p-coloring can use.

    Computed with integers: floating-point log2 rounds 2**61 - 1 up to 61.
    """
    return p.bit_length() + 1


def min_colors_diagram(d: Diagram, p: int) -> MinColorsResult:
    """Minimum #colors over the nontrivial colorings of this diagram, with
    the lexicographically least coloring that attains it as witness.

    Scans one representative per affine class C -> sC + t: region 0
    colored 0 and first nonzero coordinate 1.  This loses nothing.  The
    color count and nontriviality are affine invariants, and the least
    optimal coloring w is itself a representative: w - w[0] is optimal and
    no larger, so w[0] = 0, and scaling by the inverse of the first nonzero
    entry of w is optimal and no larger, so that entry is 1.

    The shading is the one trivial representative.  A coloring is trivial
    when x1 = x4 and x2 = x3 at every crossing, and the regions of each of
    these pairs share a shade.  The Tait graph of a connected diagram is connected,
    so a trivial coloring is t + s * shading, and as a representative it
    has t = 0 (region 0 is unshaded) and s = 1.  Refuses, with ValueError,
    a scan whose representatives times regions exceed MINCOL_SCAN_LIMIT.
    """
    space = colorings(d, p, budget=0)
    shading = checkerboard(d)
    nreg = d.nregions
    size = (p ** (space.dimension - 1) - 1) // (p - 1)
    if size * nreg > MINCOL_SCAN_LIMIT:
        raise ValueError(f"mincol scan too large: {size} affine classes of "
                         f"{nreg} regions at p = {p}, {size * nreg} over the "
                         f"limit {MINCOL_SCAN_LIMIT}")
    reps = _affine_representatives(space, p, nreg)
    best = min(((len(set(v)), v) for v in reps if v != shading), default=None)
    bound = theorem_lower_bound(p)
    if best is None:
        return MinColorsResult(None, None, bound)
    return MinColorsResult(best[0], DehnColoring(p, best[1]), bound)


def _affine_representatives(space: ColoringSpace, p: int, nreg: int):
    """Vectors with value 0 at region 0 and first nonzero coordinate 1,
    each once: (p^(dim-1) - 1) / (p - 1) of them.

    The all-ones coloring is in the span, so one elimination of the basis
    has a pivot in column 0; the other pivot rows vanish there, so they are
    an echelon basis b_1, b_2, ..., leading entries 1, of the colorings with
    region 0 colored 0.  The first nonzero coordinate of sum c_i b_i is the
    first nonzero c_i: the representatives are b_i + span(b_(i+1), ...).
    """
    pivots = exactalg._eliminate([b.values for b in space.basis], p)
    rows = [tuple(pivots[c].get(j, 0) for j in range(nreg))
            for c in sorted(pivots) if c]
    for i, head in enumerate(rows):
        for tail in _span(rows[i + 1:], p, nreg):
            yield tuple((x + y) % p for x, y in zip(head, tail))


def fox_from_dehn(d: Diagram, c: DehnColoring) -> tuple:
    """Arc coloring, arc index -> residue: each arc gets the sum of the
    region colors on the two sides of any of its semiarcs.  At a crossing
    with regions (x1, x2, x3, x4) these are x1 + x2 for the incoming under
    semiarc, x3 + x4 for the outgoing one and x1 + x3 for the over one."""
    if not is_valid_coloring(d, c):
        raise NotAColoringError("not a coloring")
    arc, v, p = d.arc_of_semiarc, c.values, c.p
    values = [None] * d.n
    for (a, b, cc, _), (x1, x2, x3, x4) in zip(d.pd.crossings, d.relations):
        for s, color in ((a, v[x1] + v[x2]), (cc, v[x3] + v[x4]), (b, v[x1] + v[x3])):
            i, color = arc[s], color % p
            if values[i] not in (None, color):
                raise NotAColoringError("arc color is not constant along the arc")
            values[i] = color
    return tuple(values)


def fox_matrix(d: Diagram) -> SparseMatrix:
    """The arc relations u + u' - 2w = 0, one row per crossing (u and u'
    the under arcs, w the over arc) and one column per arc, n of them."""
    arc = d.arc_of_semiarc
    return SparseMatrix([_sparse_row((arc[a], 1), (arc[cc], 1), (arc[b], -2))
                         for a, b, cc, _ in d.pd.crossings], d.n)


def fox_colorings_count(d: Diagram, p: int) -> int:
    """#Fox colorings, by rank of the arc relation system mod p."""
    return p ** (d.n - exactalg.rank_mod_p(fox_matrix(d), p))


def alexander_matrix_at_minus_one(d: Diagram) -> SparseMatrix:
    """The (n+1) x (n+2) coloring matrix augmented with the unit row e1."""
    m = coloring_matrix(d)
    return SparseMatrix(m.rows + [{0: 1}], m.ncols)


def knot_determinant(d: Diagram) -> int:
    """det(K) = |det G'|, G' the Goeritz matrix G of `_goeritz` without its
    last row and column (Goeritz, 1933; Gordon and Litherland, 1978, for
    every diagram, with the signs of `_goeritz`), read off the pivots of
    the one Euclid elimination of G' over Z that `rank_int` runs.

    G' is square, of order k = |S| - 1.  The elimination adds integer
    multiples of rows to other rows, which keeps the determinant, and
    renames the columns, which changes at most its sign.  It leaves each
    pivot row at its own index.  With k pivots, in k distinct columns, the
    pivot rows are then a triangular matrix up to the order of its rows and
    columns, and |det G'| is the product of the |pivot entries|; fewer
    pivots mean det G' = 0.  The empty G' of |S| = 1 has determinant 1.
    """
    regions, g, _ = _goeritz(d, checkerboard(d))
    k = len(regions) - 1
    minor = SparseMatrix([{j: v for j, v in r.items() if j < k} for r in g.rows[:k]], k)
    pivots = exactalg._echelon(minor)[0]
    if len(pivots) < k:
        return 0
    return abs(prod(r[c] for c, r in pivots.items()))
