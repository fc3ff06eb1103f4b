"""Palette graphs of color sets and of colored diagrams.

Vertices are sum-classes b = a1+a2 of pairs drawn from a color set (or the
classes of the arcs of a colored diagram); an edge joins two classes when
representing pairs can sit around a crossing, and carries the label
2^{-1}(b1+b2), the forced class of the over-arc.  The key decision is
whether the graph contains a connected subgraph, on at least three
vertices, all of whose edge labels are again vertices of the subgraph.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from knotcol.coloring import DehnColoring, fox_from_dehn
from knotcol.diagram import Diagram, components
from knotcol.exactalg import _require_odd_prime, inv_mod_p


@dataclass(frozen=True)
class PaletteGraph:
    p: int
    vertices: frozenset
    edges: dict  # (u, v) with u < v -> label

    def __post_init__(self):
        half = inv_mod_p(2, self.p)
        for (u, v), label in self.edges.items():
            if u == v:
                raise ValueError("loops are not allowed")
            if u not in self.vertices or v not in self.vertices:
                raise ValueError("edge endpoint is not a vertex")
            expected = (half * (u + v)) % self.p
            if label != expected:
                raise ValueError(f"edge ({u},{v}) label {label} != {expected}")


def palette_graph(colors, p: int) -> PaletteGraph:
    """The full palette graph of a set of residues."""
    _require_odd_prime(p)
    s = {a % p for a in colors}
    if not s:
        raise ValueError("color set must be nonempty")
    # b1 = a1+a2 and b2 = a3+a4 are joined when a1+a3 = a2+a4 (mod p), the
    # other displayed condition being this one with a3 and a4 swapped; that
    # is a1 - a2 = a4 - a3, so the sums of the ordered pairs of one
    # difference form a clique.  (x, y) and (y, x) have one sum, so the
    # difference is taken up to sign
    cliques = {}
    for x in s:
        for y in s:
            d = (x - y) % p
            cliques.setdefault(min(d, p - d), set()).add((x + y) % p)
    vertices = set().union(*cliques.values())
    half = inv_mod_p(2, p)
    edges = {}
    for sums in cliques.values():
        for u, v in combinations(sorted(sums), 2):
            edges[(u, v)] = (half * (u + v)) % p
    return PaletteGraph(p, frozenset(vertices), edges)


NO_WITNESS = "none"


def connected_r_witness(g: PaletteGraph):
    """Vertex set of a connected label-closed subgraph with >= 3 vertices,
    or "none".

    Greatest-fixpoint edge deletion: repeatedly drop any edge whose label
    lies in a different connected component than its endpoints.  Any
    label-closed connected subgraph survives every round, and at the
    fixpoint each component is itself label-closed, so a component with
    at least three vertices is exactly a witness.
    """
    for e, label in g.edges.items():
        if label not in g.vertices:
            raise ValueError("not a full palette graph: edge label is not a vertex")
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
        return NO_WITNESS
    return frozenset(min(qualifying, key=min))


def palette_graph_of_diagram(d: Diagram, c: DehnColoring) -> PaletteGraph:
    """Palette graph on the arc classes of a colored diagram.

    One vertex per arc sum-class; one edge per crossing whose two
    under-arcs carry distinct classes.
    """
    fox = fox_from_dehn(d, c)
    vertices = frozenset(fox.values)
    half = inv_mod_p(2, c.p)
    edges = {}
    for a, b, cc, dd in d.pd.crossings:
        b1 = fox.values[d.arc_of_semiarc[a]]
        b2 = fox.values[d.arc_of_semiarc[cc]]
        if b1 == b2:
            continue
        u, v = min(b1, b2), max(b1, b2)
        edges[(u, v)] = (half * (u + v)) % c.p
    return PaletteGraph(c.p, vertices, edges)


def to_json(g: PaletteGraph) -> str:
    doc = {
        "p": g.p,
        "vertices": sorted(g.vertices),
        "edges": [
            {"u": u, "v": v, "label": label}
            for (u, v), label in sorted(g.edges.items())
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def to_dot(g: PaletteGraph) -> str:
    lines = ["graph palette {"]
    for v in sorted(g.vertices):
        lines.append(f'  "{v}";')
    for (u, v), label in sorted(g.edges.items()):
        lines.append(f'  "{u}" -- "{v}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
