"""Acceptance gate: one test per criterion, printing one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
complete.  Every comparison is exact; there are no tolerances anywhere.
"""

import sys
from contextlib import contextmanager
from itertools import combinations

from conftest import (
    brute_dehn_colorings,
    brute_fox_count,
    brute_r_witness_exists,
    dense,
    dividing_primes,
    gcd_of_minors,
    is_r_subgraph,
    random_star_matrix,
    reference_build_diagram,
    to_rsubgraph,
)
from knotcol import exactalg
from knotcol.certificates import (
    augmented_matrix,
    check_star,
    extract_certificate,
    rank_checks,
)
from knotcol.coloring import (
    NONTRIVIAL,
    checkerboard_coloring,
    classify,
    coloring_matrix,
    colorings,
    fox_colorings_count,
    fox_from_dehn,
    is_valid_coloring,
    knot_determinant,
    min_colors_diagram,
    theorem_lower_bound,
)
from knotcol.colorsets import (
    ODD_PRIMES_BELOW_32,
    candidates,
    enumerate_classes,
    theorem62_report,
)
from knotcol.diagram import catalog_diagram
from knotcol.palette import (
    NO_WITNESS,
    connected_r_witness,
    palette_graph,
    palette_graph_of_diagram,
)

CATALOG_ORDER = ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1", "7_4")


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {title}: FAIL", file=sys.stderr, flush=True)
        raise
    print(f"[criterion {num:2d}] {title}: PASS", flush=True)


def nontrivial_colorings(d, p):
    return [c for c in colorings(d, p).enumerated
            if classify(d, c) == NONTRIVIAL]


def test_criterion_01_candidate_tables_all_primes():
    expected_counts = {3: 1, 5: 1, 7: 1, 11: 2, 13: 1,
                       17: 12, 19: 11, 23: 6, 29: 1, 31: 1}
    with criterion(1, "candidate tables for all odd primes below 32"):
        for p in ODD_PRIMES_BELOW_32:
            r = theorem62_report(p)
            assert r.empty_sizes_ok, f"p={p}: nonempty below critical size"
            assert r.matches_expected, f"p={p}: classes differ from published"
            assert len(r.found) == expected_counts[p]


def test_criterion_02_four_subsets_mod_seven():
    with criterion(2, "the two affine classes of 4-subsets mod 7"):
        classes = enumerate_classes(7, 4)
        assert [c.elements for c in classes] == [(0, 1, 2, 3), (0, 1, 2, 4)]
        assert connected_r_witness(palette_graph((0, 1, 2, 3), 7)) == NO_WITNESS
        assert connected_r_witness(palette_graph((0, 1, 2, 4), 7)) != NO_WITNESS
        assert [c.elements for c in candidates(7, 4)] == [(0, 1, 2, 4)]


def test_criterion_03_star_determinant_campaign():
    with criterion(3, "determinant bound on 100000+ admissible-row matrices"):
        seeds_per_order = 12_500
        total = 0
        for k in range(1, 9):
            for seed in range(seeds_per_order):
                m = random_star_matrix(k, seed)
                assert all(check_star(m))
                assert abs(exactalg.det_int(m)) <= 2 ** k, (k, seed)
                total += 1
            tight = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
            assert all(check_star(tight))
            assert exactalg.det_int(tight) == 2 ** k
        assert total >= 100_000


def test_criterion_04_fixpoint_vs_brute_force():
    with criterion(4, "fixpoint decision equals brute force on small sets"):
        for p in (3, 5, 7, 11, 13):
            for size in (1, 2, 3, 4):
                for s in combinations(range(p), size):
                    g = palette_graph(s, p)
                    got = connected_r_witness(g) != NO_WITNESS
                    assert got == brute_r_witness_exists(g), (p, s)


def test_criterion_05_coloring_counts():
    with criterion(5, "region and arc coloring counts with p-to-1 relation"):
        tre = catalog_diagram("3_1")
        fig = catalog_diagram("4_1")
        assert len(brute_dehn_colorings(tre, 3)) == 27
        assert colorings(tre, 3).count == 27
        assert brute_fox_count(tre, 3) == 9
        assert fox_colorings_count(tre, 3) == 9
        assert 27 == 3 * 9
        assert len(brute_dehn_colorings(fig, 5)) == 125
        assert colorings(fig, 5).count == 125
        assert brute_fox_count(fig, 5) == 25
        assert fox_colorings_count(fig, 5) == 25
        assert 125 == 5 * 25


def test_criterion_06_minimum_colors():
    with criterion(6, "minimum color counts and the log-based lower bound"):
        assert min_colors_diagram(catalog_diagram("3_1"), 3).min_colors == 3
        assert min_colors_diagram(catalog_diagram("4_1"), 5).min_colors == 4
        assert theorem_lower_bound(3) == 3
        assert theorem_lower_bound(5) == 4
        # float log2 rounds 2**61 - 1 up to 61
        assert theorem_lower_bound(2 ** 61 - 1) == 62
        for name in CATALOG_ORDER:
            d = catalog_diagram(name)
            for p in dividing_primes(knot_determinant(d)):
                res = min_colors_diagram(d, p)
                assert res.min_colors is not None
                assert res.min_colors >= theorem_lower_bound(p), (name, p)


def test_criterion_07_rank_suite():
    with criterion(7, "integer and mod-p ranks of the coloring matrices"):
        for name in CATALOG_ORDER:
            d = catalog_diagram(name)
            n = d.n
            m = coloring_matrix(d)
            assert exactalg.rank_int(m) == n, name
            det = knot_determinant(d)
            for p in dividing_primes(det):
                assert exactalg.rank_mod_p(m, p) <= n - 1, (name, p)
                for c in nontrivial_colorings(d, p)[:1]:
                    for item in rank_checks(augmented_matrix(d, c)):
                        assert item.ok, (name, p, item.claim, item.detail)


def test_criterion_08_certificates():
    with criterion(8, "determinant certificates for all colored catalog pairs"):
        for name in CATALOG_ORDER:
            d = catalog_diagram(name)
            for p in dividing_primes(knot_determinant(d)):
                for c in nontrivial_colorings(d, p):
                    cert = extract_certificate(augmented_matrix(d, c))
                    assert cert.det_value != 0
                    assert cert.det_value % p == 0
                    assert p <= abs(cert.det_value) <= 2 ** (cert.ell - 1)
                    assert not cert.violations
        tre = catalog_diagram("3_1")
        c3 = nontrivial_colorings(tre, 3)[0]
        assert abs(extract_certificate(augmented_matrix(tre, c3)).det_value) == 3
        fig = catalog_diagram("4_1")
        c5 = next(c for c in nontrivial_colorings(fig, 5)
                  if len(set(c.values)) == 4)
        assert abs(extract_certificate(augmented_matrix(fig, c5)).det_value) == 5


def test_criterion_09_diagram_palette_property():
    with criterion(9, "palette graphs of colored diagrams are connected"):
        for name in CATALOG_ORDER:
            d = catalog_diagram(name)
            for p in dividing_primes(knot_determinant(d)):
                for c in nontrivial_colorings(d, p):
                    g = palette_graph_of_diagram(d, c)
                    assert len(g.vertices) >= 3, (name, p)
                    assert connected_r_witness(g) == g.vertices, (name, p)
                    gs = palette_graph(sorted(set(c.values)), p)
                    assert is_r_subgraph(to_rsubgraph(g), gs), (name, p)
                    fox = fox_from_dehn(d, c)
                    for a, b, cc, _ in d.pd.crossings:
                        b1 = fox[d.arc_of_semiarc[a]]
                        b2 = fox[d.arc_of_semiarc[cc]]
                        if b1 != b2:
                            e = (min(b1, b2), max(b1, b2))
                            over = fox[d.arc_of_semiarc[b]]
                            assert g.edges[e] == over, (name, p)


def test_criterion_10_structural_invariants():
    with criterion(10, "region counts, shadings, and determinants"):
        expected = [3, 5, 5, 7, 9, 11, 13, 7, 15]
        for name, det_expected in zip(CATALOG_ORDER, expected):
            d = catalog_diagram(name)
            assert len(reference_build_diagram(d.pd).regions) == d.n + 2, name
            for p in (3, 5):
                cb = checkerboard_coloring(d, p)
                assert is_valid_coloring(d, cb), name
                assert len(set(cb.values)) == 2
            det = knot_determinant(d)
            assert det == det_expected, name
            from knotcol.coloring import alexander_matrix_at_minus_one
            a = alexander_matrix_at_minus_one(d)
            assert det == gcd_of_minors(dense(a), d.n + 1), name
