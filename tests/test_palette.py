import random
import time
import tracemalloc
from itertools import combinations, product

import pytest

from conftest import (
    RSubgraph,
    brute_r_witness_exists,
    dividing_primes,
    is_r_subgraph,
    reference_connected_r_witness,
    to_rsubgraph,
)
from knotcol.coloring import (
    NONTRIVIAL,
    DehnColoring,
    classify,
    colorings,
    fox_from_dehn,
    knot_determinant,
    theorem_lower_bound,
)
from knotcol.colorsets import EXPECTED_CANDIDATES, ODD_PRIMES_BELOW_32, enumerate_classes
from knotcol.diagram import catalog_diagram, components
from knotcol.exactalg import InvalidModulusError, is_odd_prime
from knotcol.palette import (
    NO_WITNESS,
    PAIR_LIMIT,
    PaletteGraph,
    connected_r_witness,
    palette_graph,
    palette_graph_of_diagram,
    to_dot,
)


def test_two_element_set():
    g = palette_graph({0, 1}, 5)
    assert g.vertices == frozenset({0, 1, 2})
    assert g.edges == {(0, 2): 1}
    assert connected_r_witness(g) == NO_WITNESS


def test_example_sets_mod_7():
    assert connected_r_witness(palette_graph({0, 1, 2, 3}, 7)) == NO_WITNESS
    w = connected_r_witness(palette_graph({0, 1, 2, 4}, 7))
    assert w != NO_WITNESS and len(w) >= 3


def _palette_graph_by_definition(s, p):
    """Vertices a1+a2 and an edge b1 -- b2, labelled (b1+b2)/2, whenever
    b1 = a1+a2 and b2 = a3+a4 differ and a1+a3 = a2+a4 or a1+a4 = a2+a3,
    over all a1, a2, a3, a4 in s."""
    half = pow(2, -1, p)
    vertices = {(a1 + a2) % p for a1 in s for a2 in s}
    edges = {}
    for a1, a2, a3, a4 in product(s, repeat=4):
        b1, b2 = (a1 + a2) % p, (a3 + a4) % p
        if b1 != b2 and ((a1 + a3 - a2 - a4) % p == 0 or (a1 + a4 - a2 - a3) % p == 0):
            u, v = min(b1, b2), max(b1, b2)
            edges[(u, v)] = half * (u + v) % p
    return vertices, edges


def test_palette_graph_matches_definition():
    rng = random.Random(23)
    cases = [(range(p), p) for p in (3, 5, 7, 11)]  # k = p
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for _ in range(6):
            k = rng.randint(1, min(p, 9))
            cases.append((rng.sample(range(p), k), p))
    for s, p in cases:
        g = palette_graph(s, p)
        vertices, edges = _palette_graph_by_definition(set(s), p)
        assert (g.vertices, g.edges) == (vertices, edges), (sorted(s), p)


def test_palette_graph_reduces_colors_mod_p():
    # duplicates, negative values and values >= p give the graph of their
    # residues
    rng = random.Random(7)
    cases = [([0, 7, -7, 1, 8, -6, 15], 7), ([-1, -2, -4, 30, 30], 11),
             ([2 * 31 + 5, -31 + 5, 5, 6], 31)]
    for p in (3, 5, 13, 29):
        for _ in range(5):
            cases.append(([rng.randrange(-3 * p, 3 * p) for _ in range(rng.randint(1, 8))], p))
    for colors, p in cases:
        g = palette_graph(colors, p)
        residues = palette_graph(sorted({a % p for a in colors}), p)
        assert (g.vertices, g.edges) == (residues.vertices, residues.edges), (colors, p)


def test_labels_are_vertices():
    for p in (5, 7, 11):
        for s in combinations(range(p), 3):
            g = palette_graph(s, p)
            for label in g.edges.values():
                assert label in g.vertices


def test_is_r_subgraph():
    g = palette_graph({0, 1, 2, 4}, 7)
    assert is_r_subgraph(to_rsubgraph(g), g)
    v = next(iter(g.vertices))
    assert is_r_subgraph(RSubgraph(frozenset({v}), frozenset()), g)
    # one edge with its label vertex excluded
    (u, w), label = next((e, l) for e, l in g.edges.items()
                         if l not in e)
    h = RSubgraph(frozenset({u, w}), frozenset({(u, w)}))
    assert not is_r_subgraph(h, g)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_fixpoint_agrees_with_brute_force(p):
    for size in (1, 2, 3, 4):
        for s in combinations(range(p), size):
            g = palette_graph(s, p)
            got = connected_r_witness(g) != NO_WITNESS
            assert got == brute_r_witness_exists(g), (p, s)


def test_fixpoint_leaves_graph_edges_unchanged():
    # {0, 1, 2, 3} at 7: the full graph has a component of 4 vertices but
    # no witness, so the fixpoint drops edges before it stops
    for s, p in (((0, 1, 2, 3), 7), ((0, 1, 2, 4), 7), ((0, 1, 2, 3, 6), 11)):
        g = palette_graph(s, p)
        edges, before = g.edges, dict(g.edges)
        connected_r_witness(g)
        assert g.edges is edges and g.edges == before, (s, p)
    g = palette_graph((0, 1, 2, 3), 7)
    roots = list(components(g.vertices, g.edges).values())
    assert max(map(roots.count, roots)) == 4
    assert connected_r_witness(g) == NO_WITNESS


def test_fixpoint_matches_reference_over_tables():
    # the witness set itself, on every class the candidate tables meet
    for p in ODD_PRIMES_BELOW_32:
        for k in range(1, theorem_lower_bound(p) + 1):
            for cs in enumerate_classes(p, k):
                g = palette_graph(cs.elements, p)
                assert connected_r_witness(g) == reference_connected_r_witness(g), \
                    (cs.elements, p)


def test_fixpoint_matches_reference_beyond_tables():
    # seeded random sets past the tables: odd primes up to 61, sizes 3 to 9
    rng = random.Random(61)
    primes = [p for p in range(5, 62) if is_odd_prime(p)]
    for _ in range(600):
        p = rng.choice(primes)
        s = rng.sample(range(p), rng.randint(3, min(9, p)))
        g = palette_graph(s, p)
        assert connected_r_witness(g) == reference_connected_r_witness(g), (s, p)


def test_fixpoint_matches_reference_on_affine_images_of_candidates():
    # every published candidate under every unit, each with a seeded shift:
    # each image has a witness, and the same one as the reference
    rng = random.Random(32)
    for p, table in EXPECTED_CANDIDATES.items():
        for s in table:
            for a in range(1, p):
                b = rng.randrange(p)
                g = palette_graph([(a * x + b) % p for x in s], p)
                w = connected_r_witness(g)
                assert w != NO_WITNESS and w == reference_connected_r_witness(g), (s, a, b)


def test_witness_is_connected_r_subgraph():
    for p, s in ((7, (0, 1, 2, 4)), (11, (0, 1, 2, 3, 6)), (13, (0, 1, 2, 4, 7))):
        g = palette_graph(s, p)
        w = connected_r_witness(g)
        assert w != NO_WITNESS
        edges = frozenset(e for e, label in g.edges.items()
                          if e[0] in w and e[1] in w and label in w)
        assert is_r_subgraph(RSubgraph(w, edges), g)


def test_diagram_palette_trefoil():
    d = catalog_diagram("3_1")
    c = next(x for x in colorings(d, 3).enumerated
             if classify(d, x) == NONTRIVIAL)
    g = palette_graph_of_diagram(d, c)
    assert g.vertices == frozenset({0, 1, 2})
    assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}
    for (u, v), label in g.edges.items():
        assert label not in (u, v)


def test_diagram_palette_trivial_coloring():
    d = catalog_diagram("3_1")
    g = palette_graph_of_diagram(d, DehnColoring(3, (1,) * 5))
    assert len(g.vertices) == 1
    assert not g.edges
    # a coloring is not checked for a prime modulus, its palette graph is
    with pytest.raises(InvalidModulusError, match="9 is not an odd prime"):
        palette_graph_of_diagram(d, DehnColoring(9, (1,) * 5))


def test_diagram_palette_theorem_over_catalog(catalog):
    for d in catalog.values():
        for p in dividing_primes(knot_determinant(d)):
            for c in colorings(d, p).enumerated:
                if classify(d, c) != NONTRIVIAL:
                    continue
                g = palette_graph_of_diagram(d, c)
                assert len(g.vertices) >= 3
                comp_witness = connected_r_witness(g)
                assert comp_witness != NO_WITNESS
                assert comp_witness == g.vertices  # connected as a whole
                gs = palette_graph(sorted(set(c.values)), p)
                assert is_r_subgraph(to_rsubgraph(g), gs)
                # each edge label is the over-arc class at its crossing
                fox = fox_from_dehn(d, c)
                for a, b, cc, _ in d.pd.crossings:
                    b1 = fox[d.arc_of_semiarc[a]]
                    b2 = fox[d.arc_of_semiarc[cc]]
                    if b1 == b2:
                        continue
                    e = (min(b1, b2), max(b1, b2))
                    assert g.edges[e] == fox[d.arc_of_semiarc[b]]


def test_palette_graph_validation():
    with pytest.raises(ValueError):
        palette_graph(set(), 5)
    with pytest.raises(ValueError):
        PaletteGraph(5, frozenset({0, 1}), [(0, 1)])  # label 3 is not a vertex
    with pytest.raises(ValueError):
        PaletteGraph(5, frozenset({0}), [(0, 0)])  # loop


def test_palette_graph_pair_limit():
    # the difference cliques of range(n) join C(n + 1, 3) pairs of sums when
    # p is large: about 10.7M at n = 400, over the limit, and 1.3M at 200
    p = 1_000_003
    with pytest.raises(ValueError, match=f"10666600 pairs.*{PAIR_LIMIT}"):
        palette_graph(range(400), p)
    assert len(palette_graph(range(200), p).vertices) == 399


def test_palette_graph_refuses_huge_sets_at_once():
    # the clique of difference 0 alone joins C(k, 2) pairs of k residues,
    # over the limit from k = 4,473, so no clique is built
    for k in (5000, 20000):
        start = time.process_time()
        with pytest.raises(ValueError, match=f"at least {k * (k - 1) // 2} pairs"):
            palette_graph(range(k), 1_000_003)
        assert time.process_time() - start < 0.5, k


def test_palette_graph_refusal_builds_no_clique():
    # range(3000) joins 4,499,999,500 pairs of sums at 1,000,003, but
    # C(3000, 2) alone is under the limit; the clique sizes are counted
    # from the differences, with no sum stored (about 0.7 MB traced peak;
    # building the cliques first peaked at about 400 MB)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"at least 4499999500 pairs.*{PAIR_LIMIT}"):
            palette_graph(range(3000), 1_000_003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_palette_graph_counted_sets_under_the_limit_are_built():
    # 400 random residues of 1,000,003 are counted, as the bound on the
    # clique sizes is over the limit, and then built: their differences are
    # nearly all distinct, so little beyond the clique of difference 0
    s = random.Random(5).sample(range(1_000_003), 400)
    g = palette_graph(s, 1_000_003)
    assert len(g.edges) >= 400 * 399 // 2
    assert g.vertices == {(x + y) % 1_000_003 for x in s for y in s}


def test_palette_graph_refuses_bad_edges_at_construction():
    # 2^{-1}(0 + 1) = 3 mod 5: the edge is refused when the graph is built,
    # not later by connected_r_witness
    with pytest.raises(ValueError, match="label 3 is not a vertex"):
        PaletteGraph(5, frozenset({0, 1}), [(0, 1)])
    with pytest.raises(ValueError, match="not ordered"):
        PaletteGraph(5, frozenset({0, 1, 3}), [(1, 0)])
    with pytest.raises(ValueError, match="endpoint is not a vertex"):
        PaletteGraph(5, frozenset({0, 3}), [(0, 1)])
    g = PaletteGraph(5, frozenset({0, 1, 3}), [(0, 1)])
    assert g.edges == {(0, 1): 3}


def test_dot_emission():
    dot = to_dot(palette_graph({0, 1}, 5))
    assert dot.startswith("graph palette {")
    assert '"0" -- "2" [label="1"];' in dot
