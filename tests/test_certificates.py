import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from conftest import dense, dividing_primes, random_star_matrix, torus_pd
from knotcol import exactalg
from knotcol.certificates import (
    STAR_MULTISETS,
    AugmentedMatrix,
    CertificateError,
    TrivialColoringError,
    VARIANT_A,
    VARIANT_B,
    augmented_matrix,
    check_star,
    extract_certificate,
    merge_columns,
    rank_checks,
)
from knotcol.coloring import (
    NONTRIVIAL,
    DehnColoring,
    classify,
    colorings,
    knot_determinant,
)
from knotcol.cli import _first_nontrivial
from knotcol.diagram import build_diagram, catalog_diagram, parse_pd
from knotcol.exactalg import SparseMatrix


def nontrivial_colorings(d, p):
    return [c for c in colorings(d, p).enumerated
            if classify(d, c) == NONTRIVIAL]


@pytest.fixture(scope="module")
def trefoil():
    return catalog_diagram("3_1")


@pytest.fixture(scope="module")
def fig8():
    return catalog_diagram("4_1")


def test_augmented_shapes(trefoil, fig8):
    c3 = nontrivial_colorings(trefoil, 3)[0]
    aug = augmented_matrix(trefoil, c3)
    full = aug.full()
    assert (len(full.rows), full.ncols) == (4, 5)
    c5 = nontrivial_colorings(fig8, 5)[0]
    assert len(augmented_matrix(fig8, c5).full().rows) == 5


def test_augmented_rejects_trivial(trefoil):
    with pytest.raises(TrivialColoringError):
        augmented_matrix(trefoil, DehnColoring(3, (0,) * 5))


def test_variant_a_shifts_region0_to_zero(catalog):
    # scan for a variant-A instance; the condition is that equal colors
    # never straddle the checkerboard shading
    seen_a = False
    for d in catalog.values():
        det = knot_determinant(d)
        for p in dividing_primes(det):
            for c in nontrivial_colorings(d, p):
                aug = augmented_matrix(d, c)
                if aug.variant == VARIANT_A:
                    seen_a = True
                    assert aug.coloring.values[0] == 0
                    assert aug.extra_row == {0: 1}
                    assert classify(d, aug.coloring) == NONTRIVIAL
    assert seen_a, "no variant-A instance in the whole catalog"


def test_merge_row_arithmetic(catalog):
    # merged column j is the sum of the columns of the regions with the
    # j-th smallest color; the merged rows are sparse, so they must hold
    # exactly the nonzero sums, entry for entry
    for d in catalog.values():
        for p in dividing_primes(knot_determinant(d)):
            for c in nontrivial_colorings(d, p):
                aug = augmented_matrix(d, c)
                values = aug.coloring.values
                colors = sorted(set(values))
                expected = [
                    {j: x for j, color in enumerate(colors)
                     if (x := sum(e for e, v in zip(row, values) if v == color))}
                    for row in dense(aug.full())
                ]
                merged = merge_columns(aug)
                assert merged.ncols == len(colors)
                assert merged.rows == expected
                assert all(0 not in row.values() for row in merged.rows)


def test_merge_columns_shapes(trefoil):
    c = nontrivial_colorings(trefoil, 3)[0]
    aug = augmented_matrix(trefoil, c)
    m2 = merge_columns(aug)
    assert len(m2.rows) == trefoil.n + 1
    assert m2.ncols == len(set(aug.coloring.values))
    assert all(0 <= j < m2.ncols for row in m2.rows for j in row)


def test_variant_b_merged_extra_row_is_zero(catalog):
    for d in catalog.values():
        for p in dividing_primes(knot_determinant(d)):
            c = nontrivial_colorings(d, p)[0]
            aug = augmented_matrix(d, c)
            if aug.variant != VARIANT_B:
                continue
            merged = merge_columns(aug)
            assert merged.rows[-1] == {}


def test_variant_a_merged_has_unit_row(catalog):
    for d in catalog.values():
        for p in dividing_primes(knot_determinant(d)):
            for c in nontrivial_colorings(d, p):
                aug = augmented_matrix(d, c)
                if aug.variant != VARIANT_A:
                    continue
                rows = merge_columns(aug).rows
                assert any(sorted(row.values()) == [1] for row in rows)


def test_rank_checks_catalog(catalog):
    for d in catalog.values():
        for p in dividing_primes(knot_determinant(d)):
            c = nontrivial_colorings(d, p)[0]
            report = rank_checks(augmented_matrix(d, c))
            assert report, "empty report"
            for item in report:
                assert item.ok, f"{item.claim}: {item.detail}"


def test_certificate_catalog(catalog):
    for d in catalog.values():
        for p in dividing_primes(knot_determinant(d)):
            for c in nontrivial_colorings(d, p)[:5]:
                cert = extract_certificate(augmented_matrix(d, c))
                ell = cert.ell
                assert cert.det_value != 0
                assert cert.det_value % p == 0
                assert p <= abs(cert.det_value) <= 2 ** (ell - 1)
                assert not cert.violations
                # the bound chain forces #colors >= log2 p + 1
                assert 2 ** (ell - 1) >= p


def scan_certificate(rows):
    """(rows, cols, det) of the first nonzero (ell-1)-minor of the merged
    matrix, scanning column sets in lex order and, for each, every row set
    in lex order."""
    k = len(rows[0]) - 1
    for cols in combinations(range(k + 1), k):
        for rsel in combinations(range(len(rows)), k):
            det = exactalg.det_int([[rows[r][cc] for cc in cols] for r in rsel])
            if det:
                return rsel, cols, det
    return None


def test_certificate_matches_exhaustive_scan(catalog):
    # moved counts the cases where the columns 0, ..., ell-2 are dependent
    # and the scan moves on, by variant and by the place in lex order of
    # the column set it takes (0 is the first); the greedy columns must
    # follow it there too
    seen = 0
    moved = Counter()
    for d in catalog.values():
        for p in dividing_primes(knot_determinant(d)):
            for c in nontrivial_colorings(d, p):
                aug = augmented_matrix(d, c)
                cert = extract_certificate(aug)
                expected = scan_certificate(dense(merge_columns(aug)))
                assert (cert.row_indices, cert.col_indices, cert.det_value) == expected
                seen += 1
                cols = expected[1]
                if cols != tuple(range(len(cols))):
                    missing, = set(range(len(cols) + 1)) - set(cols)
                    moved[aug.variant, len(cols) - missing] += 1
    assert seen == 4180
    assert moved == {(VARIANT_A, 1): 120, (VARIANT_A, 2): 117}


def test_certificate_error_below_full_rank():
    # a base with no rows leaves only the unit row: the merged matrix has
    # rank 1, below ell - 1 = 2, so no nonsingular 2-minor exists
    aug = AugmentedMatrix(VARIANT_A, SparseMatrix([], 3), {0: 1},
                          DehnColoring(3, (0, 1, 2)))
    assert merge_columns(aug) == SparseMatrix([{0: 1}], 3)
    with pytest.raises(CertificateError, match="no nonsingular submatrix"):
        extract_certificate(aug)


def test_certificate_violations(trefoil):
    # the one row 3 e_0 - 3 e_1 merges to the 1-minor (3): p divides it, but
    # it exceeds 2^1 and its entry is no admissible multiset
    aug = AugmentedMatrix(VARIANT_A, SparseMatrix([{0: 3, 1: -3}], 2), {0: 1},
                          DehnColoring(3, (0, 1)))
    cert = extract_certificate(aug)
    assert cert.det_value == 3
    assert cert.violations == ("|det| = 3 outside [3, 2^1 = 2]",
                               "a selected row violates the multiset condition")
    # the trefoil's 3-coloring read mod 5: the same (*) rows and det -3,
    # which 5 does not divide and which lies below 5
    aug = augmented_matrix(trefoil, nontrivial_colorings(trefoil, 3)[0])
    assert not extract_certificate(aug).violations
    aug = aug._replace(coloring=DehnColoring(5, aug.coloring.values))
    cert = extract_certificate(aug)
    assert cert.det_value == -3
    assert cert.violations == ("det -3 not divisible by p=5",
                               "|det| = 3 outside [5, 2^2 = 4]")


def test_certificate_forced_values(trefoil, fig8):
    c3 = nontrivial_colorings(trefoil, 3)[0]
    assert abs(extract_certificate(augmented_matrix(trefoil, c3)).det_value) == 3
    c5 = next(c for c in nontrivial_colorings(fig8, 5)
              if len(set(c.values)) == 4)
    assert abs(extract_certificate(augmented_matrix(fig8, c5)).det_value) == 5


def test_certificate_requires_nontrivial(trefoil):
    with pytest.raises(TrivialColoringError):
        extract_certificate(augmented_matrix(trefoil, DehnColoring(3, (1,) * 5)))


def test_merged_rank_claims(catalog):
    # the column-merged matrix has full integer rank ell-1 and drops rank
    # mod p; checked per instance rather than taken on faith
    for d in catalog.values():
        for p in dividing_primes(knot_determinant(d)):
            c = nontrivial_colorings(d, p)[0]
            m2 = merge_columns(augmented_matrix(d, c))
            ell = m2.ncols
            assert exactalg.rank_int(m2) == ell - 1
            assert exactalg.rank_mod_p(m2, p) <= ell - 2


def test_check_star_examples():
    assert check_star([[1, -1, 1, -1]]) == [True]
    assert check_star([[2, 1, 0]]) == [False]
    assert check_star([[1, 0, 0]]) == [True]


def test_check_star_all_multisets():
    for ms in STAR_MULTISETS:
        row = list(ms) + [0] * 2
        assert check_star([row]) == [True]


def test_random_star_matrix_deterministic():
    a = random_star_matrix(5, seed=42)
    b = random_star_matrix(5, seed=42)
    assert a == b
    assert all(check_star(a))


def test_random_star_matrix_order_one():
    for seed in range(50):
        m = random_star_matrix(1, seed)
        assert abs(exactalg.det_int(m)) <= 2


def test_star_bound_campaign_small():
    # the full 1e5-seed campaign runs in the acceptance suite
    for k in range(1, 9):
        for seed in range(500):
            m = random_star_matrix(k, seed)
            assert abs(exactalg.det_int(m)) <= 2 ** k


def test_star_bound_tightness():
    for k in range(1, 9):
        m = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
        assert all(check_star(m))
        assert abs(exactalg.det_int(m)) == 2 ** k


def test_certificate_eliminates_twice_and_builds_no_dense_minor(monkeypatch):
    # T(2, 1009) at 1009, with the coloring certify takes: the order-1008
    # minor is found and its determinant read off two eliminations of
    # sparse rows, with no det_int call and no dense minor (measured peak
    # 0.88 MB; 9.64 MB and three eliminations when the minor was dense)
    n = 1009
    d = build_diagram(parse_pd(torus_pd(n)))
    aug = augmented_matrix(d, _first_nontrivial(d, colorings(d, n, budget=0)))
    calls = []
    eliminate = exactalg._eliminate_rows

    def recording(rows, *args, **kwargs):
        calls.append(len(rows))
        return eliminate(rows, *args, **kwargs)

    def refusing(m):
        raise AssertionError("extract_certificate called det_int")

    monkeypatch.setattr(exactalg, "_eliminate_rows", recording)
    monkeypatch.setattr(exactalg, "det_int", refusing)
    tracemalloc.start()
    try:
        cert = extract_certificate(aug)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [n + 1, n - 1]  # the merged rows, then the block
    assert cert.ell == n and not cert.violations
    assert peak < 2 * 2 ** 20, peak
