import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det_cofactor, gcd_of_minors
from knotcol import exactalg
from knotcol.exactalg import (
    IntMatrix,
    InvalidModulusError,
    NotInvertibleError,
    det_int,
    inv_mod_p,
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


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_invalid_modulus(p):
    with pytest.raises(InvalidModulusError):
        inv_mod_p(1, p)


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
                assert sum(a * b for a, b in zip(row, v.entries)) % p == 0


def test_smith_basic():
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 0], [0, 4]]) == [2, 4]


def test_smith_vs_gcd_of_minors():
    rng = random.Random(123)
    for _ in range(300):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(nc)] for _ in range(nr)]
        factors = smith_invariant_factors(rows)
        prod = 1
        for k, f in enumerate(factors, start=1):
            prod *= f
            assert prod == gcd_of_minors(rows, k)


def test_smith_divisibility_chain():
    rng = random.Random(99)
    for _ in range(100):
        rows = [[rng.randint(-8, 8) for _ in range(4)] for _ in range(4)]
        factors = [f for f in smith_invariant_factors(rows) if f]
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_intmatrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(TypeError):
        IntMatrix(1, 1, (1.5,))
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.rows == 2 and m.cols == 2
    assert det_int(m) == -2
