import random
from itertools import product
from math import prod

import pytest

from conftest import (
    ODD_PRIMES,
    alexander_determinant,
    brute_dehn_colorings,
    brute_fox_count,
    change_crossings,
    det_cofactor,
    dense,
    dense_alexander_matrix,
    dense_augmented_matrix,
    dense_coloring_matrix,
    dense_fox_matrix,
    dividing_primes,
    pretzel_pd,
    reference_build_diagram,
    seeded_pretzels,
    torus_pd,
)
from knotcol import coloring, exactalg
from knotcol.certificates import VARIANT_A, VARIANT_B, augmented_matrix
from knotcol.coloring import (
    NONTRIVIAL,
    ONE_TRIVIAL,
    TWO_TRIVIAL,
    DehnColoring,
    NotAColoringError,
    _affine_representatives,
    _span,
    alexander_matrix_at_minus_one,
    checkerboard_coloring,
    classify,
    coloring_dimension,
    coloring_matrix,
    colorings,
    fox_colorings_count,
    fox_from_dehn,
    fox_matrix,
    is_valid_coloring,
    knot_determinant,
    min_colors_diagram,
    theorem_lower_bound,
)
from knotcol.diagram import (
    CATALOG,
    CATALOG_DETERMINANTS,
    Diagram,
    PDCode,
    build_diagram,
    catalog_diagram,
    checkerboard,
    parse_pd,
)


@pytest.fixture(scope="module")
def trefoil():
    return catalog_diagram("3_1")


@pytest.fixture(scope="module")
def fig8():
    return catalog_diagram("4_1")


def test_coloring_matrix_shape_and_row_sums(trefoil):
    m = coloring_matrix(trefoil)
    assert (len(m.rows), m.ncols) == (3, 5)
    for row in m.rows:
        assert sorted(row.values()) == [-1, -1, 1, 1]


def test_coloring_matrix_kink_merged_entries():
    d = build_diagram(parse_pd("X[1,2,2,1]"))
    m = coloring_matrix(d)
    assert (len(m.rows), m.ncols) == (1, 3)
    row = m.rows[0]
    assert sum(row.values()) == 0 and 0 not in row.values()
    # two quadrants coincide, so entries merge
    assert sorted(row.values()) != [-1, -1, 1, 1]


def test_colorings_counts(trefoil, fig8):
    assert colorings(trefoil, 3).count == 27
    assert colorings(trefoil, 5).count == 25
    assert colorings(fig8, 5).count == 125


def test_colorings_match_brute_force(trefoil, fig8):
    for d, p in ((trefoil, 3), (trefoil, 5), (fig8, 5)):
        brute = {c.values for c in brute_dehn_colorings(d, p)}
        space = colorings(d, p)
        assert {c.values for c in space.enumerated} == brute
        assert space.count == len(brute)


def test_trivial_vectors_always_solutions(catalog):
    for d in catalog.values():
        for p in (3, 5, 7):
            ones = DehnColoring(p, tuple([1] * d.nregions))
            assert is_valid_coloring(d, ones)
            assert is_valid_coloring(d, checkerboard_coloring(d, p))
            assert colorings(d, p, budget=0).dimension >= 2


def test_classify(trefoil):
    const = DehnColoring(3, (0,) * 5)
    assert classify(trefoil, const) == ONE_TRIVIAL
    cb = checkerboard_coloring(trefoil, 3)
    assert classify(trefoil, cb) == TWO_TRIVIAL
    assert set(cb.values) == {0, 1}
    nontriv = next(c for c in colorings(trefoil, 3).enumerated
                   if len(set(c.values)) >= 3)
    assert classify(trefoil, nontriv) == NONTRIVIAL


def test_classify_rejects_noncoloring(trefoil):
    with pytest.raises(NotAColoringError):
        classify(trefoil, DehnColoring(3, (0, 1, 0, 0, 0)))


def test_dehn_coloring_requires_residues(trefoil):
    c = DehnColoring(3, (2, 2, 0, 0, 1))
    assert classify(trefoil, c) == NONTRIVIAL
    assert set(c.values) == {0, 1, 2}
    # 3 added to every other region still satisfies each relation mod 3,
    # but would count 5 colors
    with pytest.raises(ValueError, match="residues mod 3"):
        DehnColoring(3, (2, 5, 0, 3, 1))
    with pytest.raises(ValueError, match="residues mod 3"):
        DehnColoring(3, (2, 2, 0, 0, -2))


def test_affine_transform(trefoil):
    # the image 2C + 1 of a nontrivial coloring is a nontrivial coloring
    # with as many colors; mincol's scan of one representative per affine
    # class rests on this
    nontriv = next(c for c in colorings(trefoil, 3).enumerated
                   if classify(trefoil, c) == NONTRIVIAL)
    moved = DehnColoring(3, tuple((2 * v + 1) % 3 for v in nontriv.values))
    assert is_valid_coloring(trefoil, moved)
    assert classify(trefoil, moved) == NONTRIVIAL
    assert len(set(moved.values)) == len(set(nontriv.values))


def test_min_colors(trefoil, fig8):
    assert min_colors_diagram(trefoil, 3).min_colors == 3
    assert min_colors_diagram(fig8, 5).min_colors == 4
    assert min_colors_diagram(trefoil, 5).min_colors is None


def test_min_colors_witness_is_optimal_coloring(trefoil):
    res = min_colors_diagram(trefoil, 3)
    assert is_valid_coloring(trefoil, res.witness)
    assert classify(trefoil, res.witness) == NONTRIVIAL
    assert len(set(res.witness.values)) == res.min_colors


def _least_nontrivial(d, p):
    """(#colors, values), least over every nontrivial coloring, or None."""
    return min(((len(set(c.values)), c.values) for c in colorings(d, p).enumerated
                if classify(d, c) == NONTRIVIAL), default=None)


def _assert_min_colors_is_least_nontrivial(d, p):
    res = min_colors_diagram(d, p)
    expected = _least_nontrivial(d, p)
    if expected is None:
        assert (res.min_colors, res.witness) == (None, None), p
    else:
        assert (res.min_colors, res.witness.values) == expected, p


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_min_colors_matches_full_enumeration(catalog, name):
    for p in ODD_PRIMES:
        _assert_min_colors_is_least_nontrivial(catalog[name], p)


def test_min_colors_matches_full_enumeration_dimension_four():
    d = build_diagram(parse_pd(pretzel_pd((15, 15, 15))))
    assert colorings(d, 5, budget=0).dimension == 4
    _assert_min_colors_is_least_nontrivial(d, 5)


def test_min_colors_matches_full_enumeration_dimension_six():
    d = build_diagram(parse_pd(pretzel_pd((5,) * 5)))
    assert colorings(d, 5, budget=0).dimension == 6
    _assert_min_colors_is_least_nontrivial(d, 5)


def _trivial_representatives(d, p):
    space = colorings(d, p, budget=0)
    return [v for v in _affine_representatives(space, p, d.nregions)
            if classify(d, DehnColoring(p, v)) != NONTRIVIAL]


def test_shading_is_the_one_trivial_representative(catalog):
    # the lemma min_colors_diagram rests on, checked with classify
    for d in catalog.values():
        for p in ODD_PRIMES:
            assert _trivial_representatives(d, p) == [checkerboard(d)], p
    d = build_diagram(parse_pd(pretzel_pd((15, 15, 15))))
    assert _trivial_representatives(d, 5) == [checkerboard(d)]


def test_affine_representatives_at_dimension_two(catalog):
    d = catalog["3_1"]
    space = colorings(d, 5, budget=0)
    assert space.dimension == 2
    assert list(_affine_representatives(space, 5, d.nregions)) \
        == [checkerboard(d)]


def test_min_colors_scan_limit(monkeypatch):
    # P(5^7) at 5: dimension 8, so (5^7 - 1) / 4 = 19,531 representatives
    # of 37 regions, 722,647 in all
    d = build_diagram(parse_pd(pretzel_pd((5,) * 7)))
    monkeypatch.setattr(coloring, "MINCOL_SCAN_LIMIT", 19531 * 37)
    assert min_colors_diagram(d, 5).min_colors == 5
    monkeypatch.setattr(coloring, "MINCOL_SCAN_LIMIT", 19531 * 37 - 1)
    with pytest.raises(ValueError, match="19531 affine classes of 37 regions"):
        min_colors_diagram(d, 5)


def _assert_projective_representatives(d, p):
    """_affine_representatives yields, once each, the vectors of the
    region-0 span whose first nonzero entry is 1: (p^(d-1) - 1)/(p - 1)."""
    space = colorings(d, p, budget=0)
    got = list(_affine_representatives(space, p, d.nregions))
    assert len(got) == len(set(got)), p
    assert len(got) == (p ** (space.dimension - 1) - 1) // (p - 1), p
    # the reference filter: scan the whole span of the colorings vanishing
    # at region 0 and keep those whose first nonzero entry is 1
    vectors = [b.values for b in space.basis]
    pivot = vectors.pop(next(i for i, v in enumerate(vectors) if v[0]))
    inv = pow(pivot[0], -1, p)
    basis = [tuple((x - v[0] * inv * y) % p for x, y in zip(v, pivot))
             for v in vectors]
    expected = {v for v in _span(basis, p, [0] * d.nregions)
                if next((x for x in v if x), None) == 1}
    assert set(got) == expected, p


def test_affine_representatives_match_filter(catalog):
    checked = 0
    for d in catalog.values():
        for p in ODD_PRIMES:
            if colorings(d, p, budget=0).dimension > 2:
                _assert_projective_representatives(d, p)
                checked += 1
    assert checked > 0
    d = build_diagram(parse_pd(pretzel_pd((15, 15, 15))))
    assert colorings(d, 5, budget=0).dimension == 4
    _assert_projective_representatives(d, 5)
    # T(2, n) is p-colorable exactly at the primes p | n
    for n, primes in ((15, (3, 5)), (21, (3, 7)), (23, (23,))):
        d = build_diagram(parse_pd(torus_pd(n)))
        for p in primes:
            _assert_projective_representatives(d, p)


def test_min_colors_lower_bound(catalog):
    for d in catalog.values():
        det = knot_determinant(d)
        for p in dividing_primes(det):
            res = min_colors_diagram(d, p)
            assert res.min_colors is not None
            assert res.min_colors >= theorem_lower_bound(p)


def test_colorability_iff_det_divisible(catalog):
    for d in catalog.values():
        det = knot_determinant(d)
        for p in ODD_PRIMES:
            dim = colorings(d, p, budget=0).dimension
            assert (dim >= 3) == (det % p == 0)


def test_fox_from_dehn(trefoil, catalog):
    t = DehnColoring(5, (2,) * 5)
    assert fox_from_dehn(trefoil, t) == (4, 4, 4)
    cb = checkerboard_coloring(trefoil, 5)
    assert fox_from_dehn(trefoil, cb) == (1, 1, 1)
    nontriv = next(c for c in colorings(trefoil, 3).enumerated
                   if classify(trefoil, c) == NONTRIVIAL)
    assert len(set(fox_from_dehn(trefoil, nontriv))) == 3
    # every coloring of every catalog knot, at every p dividing its
    # determinant, maps to arc colors that solve the Fox relations as the
    # dense reference writes them
    checked = 0
    for d in catalog.values():
        fox_rows = dense_fox_matrix(d)
        for p in dividing_primes(knot_determinant(d)):
            for c in colorings(d, p).enumerated:
                f = fox_from_dehn(d, c)
                assert len(f) == len(set(d.arc_of_semiarc.values()))
                assert all(sum(a * x for a, x in zip(row, f)) % p == 0
                           for row in fox_rows), (d.pd, p, c)
                checked += classify(d, c) == NONTRIVIAL
    assert checked > 0


@pytest.mark.parametrize("name, p", [("3_1", 3), ("4_1", 5), ("5_2", 7)])
def test_fox_from_dehn_refuses_arc_of_two_colors(catalog, name, p):
    # with slots x2 and x4 swapped every relation x1 + x3 = x2 + x4 still
    # holds, so every coloring stays valid, but the incoming under semiarc
    # reads x1 + x4: each coloring of more than one color gives some arc
    # two colors, which fox_from_dehn refuses also under python -O
    d = catalog[name]
    swapped = Diagram(d.pd, tuple((x1, x4, x3, x2) for x1, x2, x3, x4 in d.relations))
    checked = 0
    for c in colorings(d, p).enumerated:
        assert is_valid_coloring(swapped, c)
        if len(set(c.values)) > 1:
            with pytest.raises(NotAColoringError, match="^arc color is not constant"):
                fox_from_dehn(swapped, c)
            checked += 1
    assert checked > 0


def test_one_arc_per_crossing(catalog):
    # the Fox width is n: each arc ends as the incoming under semiarc of
    # one crossing, and each crossing ends one arc
    diagrams = [*catalog.values(), build_diagram(parse_pd("X[1,2,2,1]")),
                build_diagram(PDCode(((1, 1, 2, 2),)))]
    diagrams += [build_diagram(parse_pd(torus_pd(n))) for n in range(3, 202, 2)]
    diagrams += [build_diagram(parse_pd(pretzel_pd(t))) for t in seeded_pretzels(20, 60)]
    checked = 0
    for d in diagrams:
        assert len(set(d.arc_of_semiarc.values())) == d.n, d.pd
        for p in dividing_primes(knot_determinant(d)):
            for c in colorings(d, p, budget=0).basis:
                if classify(d, c) == NONTRIVIAL:
                    assert len(fox_from_dehn(d, c)) == d.n, (d.pd, p)
                    checked += 1
    assert checked > 0


def _reference_fox(ref, c):
    """Arc colors from the reference diagram: the sums of the region colors
    beside every semiarc of each arc, which must agree along the arc."""
    sums = {}
    for a, (r1, r2) in ref.regions_of_semiarc.items():
        sums.setdefault(ref.arc_of_semiarc[a], set()).add((c.values[r1] + c.values[r2]) % c.p)
    assert all(len(s) == 1 for s in sums.values())
    return tuple(s.pop() for _, s in sorted(sums.items()))


def test_fox_from_dehn_matches_reference_arc_sums(catalog):
    # fox_from_dehn reads three semiarcs of each crossing off its relation;
    # the reference sums over both sides of every semiarc
    diagrams = list(catalog.values())
    diagrams += [build_diagram(parse_pd(torus_pd(n)))
                 for n in random.Random(27).sample(range(3, 202, 2), 25)]
    diagrams += [build_diagram(parse_pd(pretzel_pd(t))) for t in seeded_pretzels(27, 30)]
    checked = 0
    for d in diagrams:
        ref = reference_build_diagram(d.pd)
        for p in dividing_primes(knot_determinant(d)):
            for c in colorings(d, p, budget=0).basis:
                assert fox_from_dehn(d, c) == _reference_fox(ref, c), (d.pd, p, c)
                checked += classify(d, c) == NONTRIVIAL
    assert checked > 0


def test_p_to_1_correspondence(catalog):
    for name, d in catalog.items():
        if d.n > 5:
            continue  # keep the brute-force arc solver fast
        for p in (3, 5):
            assert colorings(d, p, budget=0).count == p * brute_fox_count(d, p)
            assert fox_colorings_count(d, p) == brute_fox_count(d, p)


def _assert_sparse_of(m, rows, ncols):
    # entry for entry: each stored entry is a nonzero of the dense rows, and
    # every zero, a cancelled entry too, is absent rather than stored
    assert m.ncols == ncols
    assert m.rows == [{j: v for j, v in enumerate(r) if v} for r in rows]


def test_sparse_builders_match_dense_definitions(catalog):
    # X[1,2,2,1] is a kink: two of its quadrants are one region, whose
    # entries +1 and -1 merge and cancel
    kink = build_diagram(parse_pd("X[1,2,2,1]"))
    assert dense_coloring_matrix(kink) == [[-1, 0, 1]]
    diagrams = [*catalog.values(), kink]
    diagrams += [build_diagram(parse_pd(torus_pd(n))) for n in (3, 9, 15, 51, 201)]
    diagrams += [build_diagram(parse_pd(pretzel_pd(t))) for t in seeded_pretzels(21, 20)]
    variants = set()
    for d in diagrams:
        nreg = d.nregions
        _assert_sparse_of(coloring_matrix(d), dense_coloring_matrix(d), nreg)
        _assert_sparse_of(alexander_matrix_at_minus_one(d), dense_alexander_matrix(d), nreg)
        _assert_sparse_of(fox_matrix(d), dense_fox_matrix(d),
                          len(set(d.arc_of_semiarc.values())))
        for p in dividing_primes(knot_determinant(d)):
            # every coloring of a small diagram (6_2 and 6_3 give variant A),
            # the basis of a larger one
            space = colorings(d, p, budget=10 ** 4)
            for c in space.enumerated if d.n < 8 else space.basis:
                if classify(d, c) == NONTRIVIAL:
                    aug = augmented_matrix(d, c)
                    variants.add(aug.variant)
                    _assert_sparse_of(aug.full(), dense_augmented_matrix(d, c), nreg)
    assert variants == {VARIANT_A, VARIANT_B}


def test_knot_determinants_catalog(catalog, monkeypatch):
    # the determinant is read off the pivots; no Smith form is computed
    def refuse(m):
        raise AssertionError("knot_determinant computed a Smith form")

    monkeypatch.setattr(exactalg, "smith_invariant_factors", refuse)
    for name, d in catalog.items():
        assert knot_determinant(d) == CATALOG_DETERMINANTS[name]


def test_knot_determinant_matches_smith_and_closed_forms(catalog):
    # det T(2, n) = n, and det P(m_1, ..., m_k) is the sum over i of the
    # product of the m_j with j != i: ab + bc + ca for P(a, b, c)
    cases = [(d, CATALOG_DETERMINANTS[name]) for name, d in catalog.items()]
    cases += [(build_diagram(parse_pd(torus_pd(n))), n) for n in range(3, 202, 2)]
    cases += [(build_diagram(parse_pd(pretzel_pd(t))),
               sum(prod(t[:i] + t[i + 1:]) for i in range(len(t))))
              for t in seeded_pretzels(20, 60)]
    # link diagrams, which validation refuses, still build: the Hopf link
    # has determinant 2, and on the two-crossing diagram of the unlink A has
    # rank n, so every maximal minor is 0 though both pivots are nonzero
    cases += [(build_diagram(PDCode(((1, 3, 2, 4), (3, 1, 4, 2)))), 2),
              (build_diagram(PDCode(((3, 1, 2, 4), (2, 1, 3, 4)))), 0)]
    for d, det in cases:
        factors = exactalg.smith_invariant_factors(alexander_matrix_at_minus_one(d))
        assert knot_determinant(d) == prod(factors[:d.n + 1]) == det, d.pd


def test_goeritz_route_matches_coloring_matrix():
    # colorings, coloring_dimension and knot_determinant solve the Goeritz
    # matrix of one checkerboard class; the coloring matrix M and A_D(-1)
    # are the oracles.  The catalog, T(2, n) and positive pretzels are
    # alternating, so every crossing of one has the same sign in G; the
    # crossing-changed diagrams are not, and a wrong sign shows on them
    texts = [*CATALOG.values(), *map(torus_pd, (3, 5, 9, 15, 21, 27))]
    texts += [pretzel_pd(t) for t in seeded_pretzels(30, 10)]
    rng = random.Random(30)
    changed = []
    for _ in range(120):
        text = rng.choice(texts)
        n = text.count("X")
        changed.append(change_crossings(text, rng.sample(range(n), rng.randrange(1, n))))
    diagrams = [build_diagram(parse_pd(t)) for t in texts + changed]
    diagrams += [build_diagram(parse_pd("X[1,2,2,1]")), build_diagram(PDCode(((1, 1, 2, 2),)))]
    signs = [{checkerboard(d)[x1] for x1, _, _, _ in d.relations} for d in diagrams]
    assert sum(len(s) == 2 for s in signs) == len(changed)
    for d in diagrams:
        assert knot_determinant(d) == alexander_determinant(d), d.pd
        m = coloring_matrix(d)
        for p in (3, 5, 7, 11, 101):
            basis = [c.values for c in colorings(d, p, budget=0).basis]
            assert basis == exactalg.nullspace_mod_p(m, p), (d.pd, p)
            assert coloring_dimension(d, p) == d.nregions - exactalg.rank_mod_p(m, p), (d.pd, p)


def test_every_goeritz_cofactor_is_the_determinant():
    # knot_determinant reads a (|S| - 1)-minor of the first |S| - 1 rows of
    # the Goeritz matrix G, whichever columns its elimination picks; that
    # rests on every (|S| - 1)-cofactor of G having absolute value det(K).
    # Checked for each deleted row and column by cofactor expansion, on
    # alternating diagrams and on crossing-changed, non-alternating copies
    texts = [*CATALOG.values(), *map(torus_pd, (3, 5, 7, 9, 11, 13))]
    texts += [pretzel_pd(t) for t in seeded_pretzels(35, 16)]
    rng = random.Random(35)
    texts += [change_crossings(t, rng.sample(range(n), rng.randrange(1, n)))
              for t in texts * 2 for n in [t.count("X")]]
    checked = mixed = 0
    for text in texts:
        d = build_diagram(parse_pd(text))
        regions, g, _ = coloring._goeritz(d, checkerboard(d))
        k = len(regions)
        if k > 7:
            continue
        det = knot_determinant(d)
        assert det == alexander_determinant(d), text
        rows = dense(g)
        for i in range(k):
            for j in range(k):
                minor = [r[:j] + r[j + 1:] for t, r in enumerate(rows) if t != i]
                assert abs(det_cofactor(minor)) == det, (text, i, j)
        checked += 1
        mixed += len({checkerboard(d)[x1] for x1, _, _, _ in d.relations}) == 2
    assert checked >= 90 and mixed >= 60, (checked, mixed)


def test_rank_statements_trefoil(trefoil):
    m = coloring_matrix(trefoil)
    assert exactalg.rank_int(m) == 3
    assert exactalg.rank_mod_p(m, 3) == 2
    assert len(exactalg.nullspace_mod_p(m, 3)) == 3
    assert len(exactalg.nullspace_mod_p(m, 5)) == 2


def test_torus_pd_matches_catalog():
    assert torus_pd(3) == CATALOG["3_1"]
    assert torus_pd(5) == CATALOG["5_1"]


def test_pretzel_pd_determinants():
    # det P(a, b, c) = ab + bc + ca; P(1, 1, 1) is the trefoil and
    # P(1, 1, 1, 1, 1) the torus knot T(2, 5)
    for twists, det in (((1, 1, 1), 3), ((1, 1, 1, 1, 1), 5), ((3, 1, 3), 15),
                        ((5, 7, 9), 143), ((15, 15, 15), 675)):
        d = build_diagram(parse_pd(pretzel_pd(twists)))
        assert d.n == sum(twists)
        assert knot_determinant(d) == det, twists


@pytest.mark.parametrize("n", [51, 101, 201])
def test_ranks_of_large_torus_knots(n):
    # det T(2, n) = n, and the coloring space mod p has dimension 3 when
    # p | n and 2 otherwise; A adds the row e_0, which cuts one dimension
    d = build_diagram(parse_pd(torus_pd(n)))
    m, a = coloring_matrix(d), alexander_matrix_at_minus_one(d)
    assert exactalg.rank_int(m) == n
    assert exactalg.rank_int(a) == n + 1
    assert exactalg.smith_invariant_factors(a) == [1] * n + [n]
    assert knot_determinant(d) == n
    for p in (3, 5, 17, 67, 101):
        drop = 1 if n % p == 0 else 0
        assert exactalg.rank_mod_p(m, p) == n - drop, p
        assert exactalg.rank_mod_p(a, p) == n + 1 - drop, p
        assert len(exactalg.nullspace_mod_p(m, p)) == 2 + drop, p


def test_span_matches_product_order():
    # start plus each combination, coefficients in itertools.product order;
    # the zero start gives the combinations alone
    rng = random.Random(41)
    for p in (3, 5, 7):
        for dim in range(4):
            for _ in range(5):
                width = rng.randint(1, 6)
                basis = [tuple(rng.randrange(p) for _ in range(width))
                         for _ in range(dim)]
                for start in ([0] * width,
                              [rng.randrange(p) for _ in range(width)],
                              tuple(rng.randrange(1, p) for _ in range(width))):
                    expected = [
                        tuple((start[j] + sum(c * b[j] for c, b in zip(coeffs, basis)))
                              % p for j in range(width))
                        for coeffs in product(range(p), repeat=dim)]
                    assert list(_span(basis, p, start)) == expected, (p, basis, start)
