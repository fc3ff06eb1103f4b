import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense, det_cofactor, gcd_of_minors, pretzel_pd, torus_pd
from knotcol import certificates, exactalg
from knotcol.coloring import (
    NONTRIVIAL,
    alexander_matrix_at_minus_one,
    classify,
    coloring_matrix,
    colorings,
    fox_colorings_count,
    fox_matrix,
    knot_determinant,
)
from knotcol.diagram import build_diagram, parse_pd
from knotcol.exactalg import (
    InvalidModulusError,
    NotInvertibleError,
    PRIMALITY_LIMIT,
    SparseMatrix,
    _require_odd_prime,
    det_bareiss_small,
    det_int,
    inv_mod_p,
    is_odd_prime,
    nullspace_mod_p,
    rank_int,
    rank_mod_p,
    smith_invariant_factors,
)


def test_inv_mod_p_examples():
    assert inv_mod_p(2, 7) == 4
    assert inv_mod_p(2, 5) == 3


def test_inv_mod_p_zero_not_invertible():
    with pytest.raises(NotInvertibleError):
        inv_mod_p(0, 5)
    # the message names the value passed, not its residue
    with pytest.raises(NotInvertibleError, match=r"^14 is not invertible mod 7$"):
        inv_mod_p(14, 7)


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_invalid_modulus(p):
    with pytest.raises(InvalidModulusError):
        inv_mod_p(1, p)


def _odd_prime_by_trial_division(n):
    if n < 3 or n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_odd_prime_matches_trial_division():
    assert all(is_odd_prime(n) == _odd_prime_by_trial_division(n)
               for n in range(-3, 10**5))


@pytest.mark.parametrize("n", [
    2047, 3215031751, 3825123056546413051,  # strong pseudoprimes to small bases
    561, 41041,                              # Carmichael numbers
])
def test_is_odd_prime_rejects_pseudoprimes(n):
    assert not is_odd_prime(n)


def test_is_odd_prime_large_prime():
    assert is_odd_prime(2**61 - 1)
    _require_odd_prime(2**61 - 1)


def test_require_odd_prime_refuses_beyond_proven_limit():
    # the limit itself is composite but a strong pseudoprime to all 13 bases
    assert PRIMALITY_LIMIT == 1287836182261 * 2575672364521
    for n in (PRIMALITY_LIMIT, 2**89 - 1):
        with pytest.raises(InvalidModulusError, match="too large"):
            _require_odd_prime(n)


def test_rank_mod_p_basic():
    assert rank_mod_p([[1, 0], [0, 1]], 3) == 2
    assert rank_mod_p([[3, 3], [3, 3]], 3) == 0


def test_rank_int_basic():
    assert rank_int([[1, 0], [0, 1]]) == 2
    assert rank_int([[0] * 4 for _ in range(3)]) == 0


def test_det_int_basic():
    assert det_int([[2, 0], [0, 2]]) == 4
    assert det_int([[-2]]) == -2


@pytest.mark.parametrize("k", range(1, 9))
def test_det_diagonal_twos(k):
    m = [[2 if i == j else 0 for j in range(k)] for i in range(k)]
    assert det_int(m) == 2 ** k


def test_det_nonsquare_rejected():
    with pytest.raises(ValueError):
        det_int([[1, 2, 3], [4, 5, 6]])


def test_det_matches_cofactor_oracle():
    rng = random.Random(20240817)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == det_cofactor(m)
    # orders where Bareiss intermediates of |entry| <= 8 matrices pass 2**63
    for n in range(9, 13):
        for _ in range(30):
            m = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
            assert det_int(m) == det_cofactor(m)


def test_det_large_entries_exact():
    # intermediates far beyond 64 bits
    big = 10 ** 30
    m = [[big, 1], [1, big]]
    assert det_int(m) == big * big - 1


def test_det_permutation_matrices():
    # a permutation matrix has the permutation's sign as determinant
    for n in range(1, 6):
        for perm in permutations(range(n)):
            m = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
            assert det_int(m) == (-1) ** inversions, perm


def test_det_singular_and_empty():
    assert det_int([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
    assert det_int([[1, 2, 3], [4, 5, 6], [1, 2, 3]]) == 0
    # star rows (-1, 1) summing to the zero row
    assert det_int([[1, -1, 0], [0, 1, -1], [-1, 0, 1]]) == 0
    assert det_int([]) == 1


@pytest.mark.parametrize("n", [n for n in range(11, 102) if is_odd_prime(n)])
def test_det_certificate_minors_match_bareiss(n, monkeypatch):
    # T(2, n) at p = n: the minor extract_certificate hands to det_int,
    # for the coloring certify takes, of order up to 100
    d = build_diagram(parse_pd(torus_pd(n)))
    c = next(c for c in reversed(colorings(d, n, budget=0).basis)
             if classify(d, c) == NONTRIVIAL)
    minors = []

    def recording(m):
        minors.append(m)
        return det_int(m)

    monkeypatch.setattr(exactalg, "det_int", recording)
    cert = certificates.extract_certificate(certificates.augmented_matrix(d, c))
    (sub,) = minors
    assert det_int(sub) == det_bareiss_small(sub) == cert.det_value
    assert not cert.violations


@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=2, max_size=5),
       st.sampled_from([3, 5, 7, 11]))
@settings(max_examples=200)
def test_rank_mod_p_at_most_rank_int(rows, p):
    assert rank_mod_p(rows, p) <= rank_int(rows)


@given(st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n)),
       st.sampled_from([3, 5, 7]))
@settings(max_examples=200)
def test_det_zero_mod_p_iff_rank_drops(rows, p):
    n = len(rows)
    assert (det_int(rows) % p == 0) == (rank_mod_p(rows, p) < n)


def test_nullspace_dimension_and_membership():
    m = [[0, 0]]
    basis = nullspace_mod_p(m, 3)
    assert len(basis) == 2
    rng = random.Random(7)
    for _ in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        p = rng.choice([3, 5, 7])
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        basis = nullspace_mod_p(rows, p)
        assert len(basis) == nc - rank_mod_p(rows, p)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) % p == 0


def _random_matrices(seed=20261018, count=300):
    """Matrices up to 5 x 6 with entries in [-3, 3], tall and wide, sparse
    and dense, some with a zero row or a zero column."""
    rng = random.Random(seed)
    for _ in range(count):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        fill = rng.choice((0.3, 0.6, 1.0))
        rows = [[rng.randint(-3, 3) if rng.random() < fill else 0
                 for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.3:
            rows[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.3:
            j = rng.randrange(nc)
            for r in rows:
                r[j] = 0
        yield rows


def _rank_by_minors(rows, p=None):
    """Largest k with a k x k minor that is nonzero (mod p when given)."""
    nr, nc = len(rows), len(rows[0])
    for k in range(min(nr, nc), 0, -1):
        for rsel in combinations(range(nr), k):
            for csel in combinations(range(nc), k):
                det = det_cofactor([[rows[r][c] for c in csel] for r in rsel])
                if det % p if p else det:
                    return k
    return 0


def _nullspace_gauss_jordan(rows, ncols, p):
    """Dense Gauss-Jordan reduction over Z_p to reduced echelon form, then
    one basis vector per free column, in increasing column order."""
    rows = [[e % p for e in r] for r in rows]
    pivots = []
    for c in range(ncols):
        t = len(pivots)
        piv = next((i for i in range(t, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[t], rows[piv] = rows[piv], rows[t]
        inv = pow(rows[t][c], -1, p)
        rows[t] = [x * inv % p for x in rows[t]]
        for i in range(len(rows)):
            if i != t and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[t])]
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            v = [0] * ncols
            v[free] = 1
            for r, c in enumerate(pivots):
                v[c] = -rows[r][free] % p
            basis.append(tuple(v))
    return basis


def test_ranks_match_minor_oracle():
    for rows in _random_matrices():
        assert rank_int(rows) == _rank_by_minors(rows), rows
        for p in (3, 5, 7):
            assert rank_mod_p(rows, p) == _rank_by_minors(rows, p), (rows, p)


def test_nullspace_matches_gauss_jordan():
    for rows in _random_matrices():
        for p in (3, 5, 7):
            got = nullspace_mod_p(rows, p)
            assert got == _nullspace_gauss_jordan(rows, len(rows[0]), p), (rows, p)
    assert rank_mod_p([], 3) == rank_int([]) == 0
    assert nullspace_mod_p([], 3) == []


def test_nullspace_of_catalog_coloring_matrices(catalog):
    for name, d in catalog.items():
        m = coloring_matrix(d)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            got = nullspace_mod_p(m, p)
            assert got == _nullspace_gauss_jordan(dense(m), m.ncols, p), (name, p)


def _nullspace_left_to_right(m, p):
    """The reduced echelon basis read off one reduced elimination of m with
    its columns left to right: free columns are the non-pivot ones."""
    m = exactalg.as_sparse(m)
    ncols = m.ncols
    pivots = exactalg._eliminate_rows(exactalg._reduced(m.rows, p), p, reduced=True)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            v = [0] * ncols
            v[free] = 1
            for c, r in pivots.items():
                v[c] = -r.get(free, 0) % p
            basis.append(tuple(v))
    return basis


def _rank_deficient_matrices(seed=20261019, count=200):
    """Matrices up to 7 x 9 whose rows are integer combinations of fewer
    rows, some with zero columns."""
    rng = random.Random(seed)
    for _ in range(count):
        nr, nc = rng.randint(2, 7), rng.randint(1, 9)
        gens = [[rng.randint(-3, 3) if rng.random() < 0.5 else 0
                 for _ in range(nc)] for _ in range(rng.randint(1, nr - 1))]
        rows = [[sum(rng.randint(-2, 2) * g[j] for g in gens)
                 for j in range(nc)] for _ in range(nr)]
        for j in rng.sample(range(nc), rng.randint(0, nc // 2)):
            for r in rows:
                r[j] = 0
        yield rows


def test_nullspace_matches_left_to_right_reference(catalog):
    # nullspace_mod_p eliminates in reverse Cuthill-McKee order, then makes
    # its basis canonical; the answer must be the left-to-right one, byte
    # for byte
    for rows in list(_random_matrices()) + list(_rank_deficient_matrices()):
        for p in (3, 5, 7):
            assert nullspace_mod_p(rows, p) \
                == _nullspace_left_to_right(rows, p), (rows, p)
    for name, d in catalog.items():
        m = coloring_matrix(d)
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            assert nullspace_mod_p(m, p) == _nullspace_left_to_right(m, p), \
                (name, p)
    m = coloring_matrix(build_diagram(parse_pd(pretzel_pd((15, 15, 15)))))
    got = nullspace_mod_p(m, 5)
    assert len(got) == 4
    assert got == _nullspace_left_to_right(m, 5)


def test_ranks_appending_match_ranks_of_stacked_rows(catalog):
    # each extra row is eliminated with the pivot rows of m alone, which
    # serve every extra row in turn; the ranks must be those of m with each
    # row stacked under it, whichever order the extra rows come in
    def check(m, extra):
        for extra in (extra, extra[::-1]):
            assert exactalg.ranks_appending(m, extra) \
                == [rank_int(m)] + [rank_int(m + [r]) for r in extra], (m, extra)
            for p in (3, 5, 7):
                assert exactalg.ranks_appending(m, extra, p) \
                    == [rank_mod_p(m, p)] + [rank_mod_p(m + [r], p) for r in extra], \
                    (m, extra, p)

    rng = random.Random(41)
    for rows in list(_random_matrices()) + list(_rank_deficient_matrices()):
        k = rng.randint(1, len(rows))
        check(rows[:k], rows[k:] + [[rng.randint(-3, 3) for _ in rows[0]]])
    # over Z, (2, 1) has a smaller |entry| than m = [[4, 2]] in each column,
    # so it takes over the pivot and clears m's row to zero: half that row,
    # it leaves the rank 1, and the rows after it still meet (4, 2)
    m = [[4, 2]]
    check(m, [[2, 1], [3, 1], [0, 0], [4, 2], [-2, -1]])
    assert m == [[4, 2]]
    for d in catalog.values():
        m = dense(coloring_matrix(d))
        nreg = len(m[0])
        extra = []
        for i, j in combinations(range(nreg), 2):
            row = [0] * nreg
            row[i], row[j] = 1, -1
            extra.append(row)
        check(m, [[1] + [0] * (nreg - 1)] + extra)


def _sparse_form(rows, ncols, rng):
    """The SparseMatrix of dense rows, built here rather than by
    `as_sparse`, each row's entries stored in a shuffled order."""
    out = []
    for r in rows:
        items = [(j, v) for j, v in enumerate(r) if v]
        rng.shuffle(items)
        out.append(dict(items))
    return SparseMatrix(out, ncols)


def test_dense_and_sparse_forms_agree(catalog):
    # every public entry point gives one answer on the two forms, with zero
    # rows, zero columns and entries that p divides
    rng = random.Random(2110)
    inputs = list(_random_matrices(seed=5, count=150))
    inputs += list(_rank_deficient_matrices(seed=6, count=100))
    inputs += [dense(coloring_matrix(d)) for d in catalog.values()]
    inputs += [[[0, 0, 0]], [[0] * 4 for _ in range(3)], [[0, 3, 0, 6], [0, 0, 0, 0]]]
    for rows in inputs:
        nc = len(rows[0])
        m = _sparse_form(rows, nc, rng)
        extra = [[rng.choice((-3, -1, 0, 0, 1, 2)) for _ in range(nc)] for _ in range(3)]
        extra_m = _sparse_form(extra, nc, rng)
        assert rank_int(m) == rank_int(rows), rows
        assert smith_invariant_factors(m) == smith_invariant_factors(rows), rows
        assert exactalg.ranks_appending(m, extra_m) == exactalg.ranks_appending(rows, extra)
        for p in (3, 5, 7):
            assert rank_mod_p(m, p) == rank_mod_p(rows, p), (rows, p)
            assert nullspace_mod_p(m, p) == nullspace_mod_p(rows, p), (rows, p)
            assert exactalg.ranks_appending(m, extra_m, p) \
                == exactalg.ranks_appending(rows, extra, p), (rows, extra, p)
    # with no rows only the sparse form keeps its width
    assert rank_int([]) == 0 and smith_invariant_factors([]) == []
    for nc in (0, 1, 4):
        m = SparseMatrix([], nc)
        assert rank_int(m) == rank_mod_p(m, 3) == 0
        assert smith_invariant_factors(m) == []
        units = [tuple(int(i == j) for i in range(nc)) for j in range(nc)]
        assert nullspace_mod_p(m, 5) == units
        assert exactalg.ranks_appending(m, SparseMatrix([{}], nc), 3) == [0, 0]
    assert nullspace_mod_p([], 5) == nullspace_mod_p(SparseMatrix([], 0), 5) == []


def test_matrices_of_large_torus_knot_are_sparse():
    # the builders store no zero and no column past the count: at most 4
    # entries a coloring row, 3 a Fox row
    d = build_diagram(parse_pd(torus_pd(801)))
    for m, shape, most in ((coloring_matrix(d), (801, 803), 4),
                           (alexander_matrix_at_minus_one(d), (802, 803), 4),
                           (fox_matrix(d), (801, 801), 3)):
        assert (len(m.rows), m.ncols) == shape
        for r in m.rows:
            assert 0 < len(r) <= most and 0 not in r.values()
            assert all(0 <= j < m.ncols for j in r)


def test_rcm_rows_renames_columns():
    # the order is a permutation, and column order[k] is renamed k with its
    # entries unchanged (reduced mod p when given)
    for rows in _random_matrices(seed=11, count=100):
        for p in (None, 5):
            sparse, order = exactalg._rcm_rows(exactalg.as_sparse(rows), p)
            assert sorted(order) == list(range(len(rows[0])))
            for r, s in zip(rows, sparse):
                renamed = [r[j] if p is None else r[j] % p for j in order]
                assert s == {k: v for k, v in enumerate(renamed) if v}


def test_input_contract():
    # lists of lists and tuples of tuples give the same answers, no routine
    # changes its input, and nullspace vectors are tuples of residues
    def check(f, rows):
        before = [list(r) for r in rows]
        assert f(rows) == f(tuple(map(tuple, rows))), (f, rows)
        assert rows == before, f

    for rows in _random_matrices(seed=7, count=100):
        for f in (rank_int, smith_invariant_factors,
                  lambda m: rank_mod_p(m, 5), lambda m: nullspace_mod_p(m, 5)):
            check(f, rows)
        k = min(len(rows), len(rows[0]))
        check(det_int, [r[:k] for r in rows[:k]])
        for p in (3, 5, 7):
            for v in nullspace_mod_p(rows, p):
                assert type(v) is tuple and len(v) == len(rows[0])
                assert all(type(x) is int and 0 <= x < p for x in v)


def _permute_columns(rows, rng):
    order = list(range(len(rows[0])))
    rng.shuffle(order)
    return [[r[j] for j in order] for r in rows]


def test_rank_and_smith_ignore_column_order():
    # rank_int, rank_mod_p and smith_invariant_factors take the columns in
    # reverse Cuthill-McKee order; a column permutation is unimodular, so no
    # answer may move
    rng = random.Random(31)
    inputs = list(_random_matrices()) + _smith_inputs()
    for rows in inputs:
        rank, factors = rank_int(rows), smith_invariant_factors(rows)
        ranks = [rank_mod_p(rows, p) for p in (3, 5, 7)]
        for _ in range(3):
            shuffled = _permute_columns(rows, rng)
            assert rank_int(shuffled) == rank, rows
            assert smith_invariant_factors(shuffled) == factors, rows
            assert [rank_mod_p(shuffled, p) for p in (3, 5, 7)] == ranks, rows


def test_row_updates_linear_on_torus_knot(monkeypatch):
    # no timing: count the row updates of the elimination core on T(2, n),
    # which left-to-right column order makes quadratic (n(n-1)/2 for rank
    # over Z, 5,397 for the Fox count at n = 201)
    n = 201
    calls = []
    clear = exactalg._clear

    def counting_clear(*args):
        calls.append(1)
        return clear(*args)

    monkeypatch.setattr(exactalg, "_clear", counting_clear)
    d = build_diagram(parse_pd(torus_pd(n)))
    for f, bound in ((lambda: rank_int(coloring_matrix(d)), 2 * n),
                     (lambda: rank_int(alexander_matrix_at_minus_one(d)), 2 * n),
                     (lambda: knot_determinant(d), 2 * n),
                     (lambda: fox_colorings_count(d, 3), 2 * n),
                     (lambda: rank_mod_p(coloring_matrix(d), 3), 2 * n),
                     (lambda: nullspace_mod_p(coloring_matrix(d), 3), 2 * n)):
        calls.clear()
        f()
        assert 0 < len(calls) <= bound, (len(calls), bound)


def test_smith_basic():
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 0], [0, 4]]) == [2, 4]


def _smith_inputs():
    """Dense 7 x 7 matrices with entries in [-8, 8]: a dense pivot-and-swap
    Smith loop stalls on some."""
    rng = random.Random(77)
    return [[[rng.randint(-8, 8) for _ in range(7)] for _ in range(7)]
            for _ in range(10)]


def test_smith_vs_gcd_of_minors():
    rng = random.Random(123)
    inputs = []
    for _ in range(300):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        inputs.append([[rng.randint(-5, 5) for _ in range(nc)]
                       for _ in range(nr)])
    inputs += _smith_inputs()
    for rows in inputs:
        factors = smith_invariant_factors(rows)
        prod = 1
        for k, f in enumerate(factors, start=1):
            prod *= f
            assert prod == gcd_of_minors(rows, k)


@pytest.mark.parametrize("entries", [
    (12, 18, 8, 27, 5),
    # in each of these four, some prime has its least valuation among the
    # positions >= i at one j > i only, so every pair (i, j) needs its swap
    (210, 105, 70, 42, 30),
    (1, 30, 15, 10, 6),
    (1, 1, 6, 3, 2),
    (1, 1, 1, 2, 1),
])
def test_smith_of_diagonals_needing_swaps(entries):
    rows = [[e if i == j else 0 for j in range(len(entries))]
            for i, e in enumerate(entries)]
    prod = 1
    for k, f in enumerate(smith_invariant_factors(rows), start=1):
        prod *= f
        assert prod == gcd_of_minors(rows, k), entries


def test_smith_divisibility_chain():
    rng = random.Random(99)
    for size in [4] * 100 + [8] * 5:
        rows = [[rng.randint(-8, 8) for _ in range(size)] for _ in range(size)]
        factors = [f for f in smith_invariant_factors(rows) if f]
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0

