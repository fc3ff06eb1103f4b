"""Palette graphs of color sets and of colored diagrams.

Vertices are sum-classes b = a1+a2 of pairs drawn from a color set (or the
classes of the arcs of a colored diagram); an edge joins two classes when
representing pairs can sit around a crossing.  A `PaletteGraph` computes
each edge's label 2^{-1}(u+v), the forced class of the over-arc, itself,
and refuses loops and edges or labels outside its vertex set.  The key
decision is whether the graph contains a connected subgraph, on at least
three vertices, all of whose edge labels are again vertices of the
subgraph.  `to_dot` renders a graph for Graphviz.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, combinations_with_replacement
from typing import NamedTuple

from knotcol.coloring import DehnColoring, fox_from_dehn
from knotcol.diagram import Diagram, components
from knotcol.exactalg import _require_odd_prime

# The most pairs of sums, over all difference cliques, that palette_graph joins
PAIR_LIMIT = 10**7


class _PaletteGraphFields(NamedTuple):
    p: int
    vertices: frozenset
    edges: dict  # (u, v) -> label 2^{-1}(u+v)


class PaletteGraph(_PaletteGraphFields):
    """Built from p, the vertices and an iterable of edges (u, v) with
    u < v; it stores each edge with its label.  The checks run in
    __new__, which _make and _replace bypass."""
    __slots__ = ()

    def __new__(cls, p, vertices, pairs):
        _require_odd_prime(p)
        half = (p + 1) // 2
        edges = {}
        for u, v in pairs:
            if u >= v:
                raise ValueError(f"edge ({u},{v}) is a loop or not ordered u < v")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u},{v}) endpoint is not a vertex")
            label = edges[(u, v)] = (half * (u + v)) % p
            if label not in vertices:
                raise ValueError(f"edge ({u},{v}) label {label} is not a vertex")
        return super().__new__(cls, p, vertices, edges)


def palette_graph(colors, p: int) -> PaletteGraph:
    """The full palette graph of a set of residues.

    b1 = a1+a2 and b2 = a3+a4 are joined when a1+a3 = a2+a4 (mod p), the
    other displayed condition being this one with a3 and a4 swapped; that
    is a1 - a2 = a4 - a3, so the sums of the pairs of one difference form a
    clique.  (x, y) and (y, x) have one sum, so the difference d is taken up
    to sign, and only the pairs x <= y are formed.  The sums of one clique
    are distinct, so each clique is kept as a list: for d = 0 they are 2x,
    and for d != 0 the class holds the pairs {z, z + d}, whose sums 2z + d
    differ as p is odd.  A clique therefore holds at most k sums of a set of
    k residues, one per z, so the cliques, of k(k + 1)/2 sums in all, join
    at most (k - 1)/2 pairs per sum.  Only cliques of two or more sums join
    any.

    A set is refused with ValueError, before any clique is built, when its
    cliques would join more than PAIR_LIMIT pairs: at once when the clique
    of difference 0 alone, C(k, 2) pairs, is over, and otherwise after a
    count of the clique sizes, taken only when the bound above is over.
    """
    _require_odd_prime(p)
    s = sorted({a % p for a in colors})
    k = len(s)
    if not k:
        raise ValueError("color set must be nonempty")
    pairs = k * (k - 1) // 2
    if pairs <= PAIR_LIMIT < pairs * (k + 1) // 2:
        # the clique sizes, from a count of the differences y - x, x <= y
        diffs = Counter()
        for i, x in enumerate(s):
            diffs.update(map(x.__rsub__, s[i:]))
        sizes = Counter()
        for d, c in diffs.items():
            sizes[min(d, p - d)] += c
        pairs = sum(c * (c - 1) for c in sizes.values()) // 2
    if pairs > PAIR_LIMIT:
        raise ValueError(f"the palette graph joins at least {pairs} pairs of "
                         f"sums, over the limit of {PAIR_LIMIT}")
    cliques = {}
    for x, y in combinations_with_replacement(s, 2):
        d = y - x
        cliques.setdefault(min(d, p - d), []).append((x + y) % p)
    vertices = frozenset().union(*cliques.values())
    return PaletteGraph(p, vertices, (
        e for sums in cliques.values() if len(sums) > 1
        for e in combinations(sorted(sums), 2)))


NO_WITNESS = "none"


def connected_r_witness(g: PaletteGraph):
    """Vertex set of a connected label-closed subgraph with >= 3 vertices,
    or "none".

    The greatest fixpoint of edge deletion: drop every edge whose label lies
    in a different connected component than its endpoints, until none is
    left to drop.  A label-closed connected subgraph lies inside one
    component at every stage, so none of its edges is ever dropped; at the
    fixpoint each component is label-closed, and a component of at least
    three vertices is exactly a witness.  The witness returned is the final
    component with the least vertex.

    The fixpoint runs on a worklist: the whole graph first, then the
    components that lost an edge in the last pass, with the edges they keep.
    Each pass runs the union-find once over the worklist and splits it into
    components.  Deleting edges only splits components, so a component of
    fewer than three vertices can never grow back into a witness and is
    dropped at once.  A component that keeps every edge is final and is not
    passed again.  A kept edge's label lies in its component, so it is in
    the next pass too.  `g.edges` is only read, never copied or changed.
    """
    labels = g.edges
    final = []
    vertices, edges = g.vertices, labels
    while edges:
        root = components(vertices, edges)
        members = {}
        for v, r in root.items():
            members.setdefault(r, []).append(v)
        kept = {r: [] for r, vs in members.items() if len(vs) >= 3}
        lost = set()
        for e in edges:
            r = root[e[0]]
            if r in kept:
                if root[labels[e]] == r:
                    kept[r].append(e)
                else:
                    lost.add(r)
        final += [members[r] for r in kept if r not in lost]
        vertices = [v for r in lost for v in members[r]]
        edges = [e for r in lost for e in kept[r]]
    if not final:
        return NO_WITNESS
    return frozenset(min(final, key=min))


def palette_graph_of_diagram(d: Diagram, c: DehnColoring) -> PaletteGraph:
    """Palette graph on the arc classes of a colored diagram.

    One vertex per arc sum-class; one edge per crossing whose two
    under-arcs carry distinct classes.
    """
    fox = fox_from_dehn(d, c)
    pairs = []
    for a, _, cc, _ in d.pd.crossings:
        b1 = fox[d.arc_of_semiarc[a]]
        b2 = fox[d.arc_of_semiarc[cc]]
        if b1 != b2:
            pairs.append((min(b1, b2), max(b1, b2)))
    return PaletteGraph(c.p, frozenset(fox), pairs)


def to_dot(g: PaletteGraph) -> str:
    lines = ["graph palette {"]
    for v in sorted(g.vertices):
        lines.append(f'  "{v}";')
    for (u, v), label in sorted(g.edges.items()):
        lines.append(f'  "{u}" -- "{v}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
