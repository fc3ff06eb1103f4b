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

from dataclasses import InitVar, dataclass, field
from itertools import combinations, combinations_with_replacement

from knotcol.coloring import DehnColoring, fox_from_dehn
from knotcol.diagram import Diagram, components
from knotcol.exactalg import _require_odd_prime

# The most pairs of sums, over all difference cliques, that palette_graph joins
PAIR_LIMIT = 10**7


@dataclass(frozen=True)
class PaletteGraph:
    p: int
    vertices: frozenset
    pairs: InitVar  # iterable of edges (u, v) with u < v
    edges: dict = field(init=False)  # (u, v) -> label 2^{-1}(u+v)

    def __post_init__(self, pairs):
        _require_odd_prime(self.p)
        vertices, half = self.vertices, (self.p + 1) // 2
        edges = {}
        for u, v in pairs:
            if u >= v:
                raise ValueError(f"edge ({u},{v}) is a loop or not ordered u < v")
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u},{v}) endpoint is not a vertex")
            label = edges[(u, v)] = (half * (u + v)) % self.p
            if label not in vertices:
                raise ValueError(f"edge ({u},{v}) label {label} is not a vertex")
        object.__setattr__(self, "edges", edges)


def palette_graph(colors, p: int) -> PaletteGraph:
    """The full palette graph of a set of residues."""
    _require_odd_prime(p)
    s = {a % p for a in colors}
    if not s:
        raise ValueError("color set must be nonempty")
    # the clique of difference 0 alone joins C(len(s), 2) pairs, its sums 2x
    # being distinct as p is odd; that bound is tested before any clique
    pairs = len(s) * (len(s) - 1) // 2
    if pairs <= PAIR_LIMIT:
        # b1 = a1+a2 and b2 = a3+a4 are joined when a1+a3 = a2+a4 (mod p), the
        # other displayed condition being this one with a3 and a4 swapped; that
        # is a1 - a2 = a4 - a3, so the sums of the ordered pairs of one
        # difference form a clique.  (x, y) and (y, x) have one sum, so the
        # difference is taken up to sign, and only the pairs x <= y are formed
        cliques = {}
        for x, y in combinations_with_replacement(sorted(s), 2):
            d = y - x
            cliques.setdefault(min(d, p - d), set()).add((x + y) % p)
        pairs = sum(len(c) * (len(c) - 1) for c in cliques.values()) // 2
    if pairs > PAIR_LIMIT:
        raise ValueError(f"the palette graph joins at least {pairs} pairs of "
                         f"sums, over the limit of {PAIR_LIMIT}")
    vertices = frozenset().union(*cliques.values())
    return PaletteGraph(p, vertices, (
        e for sums in cliques.values() for e in combinations(sorted(sums), 2)))


NO_WITNESS = "none"


def connected_r_witness(g: PaletteGraph):
    """Vertex set of a connected label-closed subgraph with >= 3 vertices,
    or "none".

    Greatest-fixpoint edge deletion: repeatedly drop any edge whose label
    lies in a different connected component than its endpoints.  Any
    label-closed connected subgraph survives every round, and at the
    fixpoint each component is itself label-closed, so a component with
    at least three vertices is exactly a witness.  Each round keeps its
    edges in a new dict; `g.edges` is only read, never copied or changed.
    """
    edges = g.edges
    while True:
        comp = components(g.vertices, edges)
        kept = {e: label for e, label in edges.items() if comp[label] == comp[e[0]]}
        if len(kept) == len(edges):
            break
        edges = kept
    sizes = {}
    for v, c in comp.items():
        sizes.setdefault(c, set()).add(v)
    qualifying = [vs for vs in sizes.values() if len(vs) >= 3]
    if not qualifying:
        return NO_WITNESS
    return frozenset(min(qualifying, key=min))


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
