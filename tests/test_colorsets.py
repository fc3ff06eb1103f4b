import math
from itertools import combinations

import pytest

from knotcol.coloring import theorem_lower_bound
from knotcol.colorsets import (
    EXPECTED_CANDIDATES,
    ODD_PRIMES_BELOW_32,
    affine_equivalent,
    canonical_affine,
    candidates,
    enumerate_classes,
    theorem62_report,
)


def test_canonical_examples():
    assert canonical_affine({3}, 7).elements == (0,)
    assert canonical_affine({2, 5}, 7).elements == (0, 1)
    # {0,1,3} mod 5 maps to {0,1,2} under x -> 2x + 4
    assert canonical_affine({0, 1, 3}, 5).elements == (0, 1, 2)


def test_canonical_idempotent():
    for p in (5, 7, 11):
        for s in combinations(range(p), 3):
            c = canonical_affine(s, p).elements
            assert canonical_affine(c, p).elements == c


def test_canonical_constant_on_orbit():
    p = 7
    s = (0, 2, 3)
    base = canonical_affine(s, p).elements
    for a in range(1, p):
        for b in range(p):
            image = {(a * x + b) % p for x in s}
            assert canonical_affine(image, p).elements == base


def test_affine_equivalent():
    assert affine_equivalent({0, 1, 2}, {3, 5, 7}, 11)
    assert not affine_equivalent({0, 1, 2}, {0, 1, 3}, 7)
    assert not affine_equivalent({0, 1}, {0, 1, 2}, 7)


def test_enumerate_classes_partition_counts():
    # orbit sizes under the affine group sum to C(p, k)
    for p in (5, 7, 11):
        for k in range(1, 5):
            reps = {c.elements for c in enumerate_classes(p, k)}
            orbit_total = 0
            for s in combinations(range(p), k):
                if canonical_affine(s, p).elements in reps:
                    orbit_total += 1
            assert orbit_total == math.comb(p, k)


def _burnside_class_count(p, k):
    """Orbits of AGL(1, p) on k-subsets of Z_p, by Cauchy-Frobenius: the
    mean number of k-subsets fixed by a map x -> a*x + b."""
    fixed = math.comb(p, k)                 # the identity
    fixed += (p - 1) * (k == p)             # translations: one p-cycle
    for a in range(2, p):
        # x -> a*x + b has one fixed point and (p-1)/m cycles of length
        # m = ord(a); a fixed k-subset is a union of such cycles
        m = next(m for m in range(1, p) if pow(a, m, p) == 1)
        cycles = (p - 1) // m
        for point in (0, 1):
            if (k - point) % m == 0:
                fixed += p * math.comb(cycles, (k - point) // m)
    count, rest = divmod(fixed, p * (p - 1))
    assert rest == 0
    return count


def test_enumerate_classes_burnside_count():
    for p in ODD_PRIMES_BELOW_32:
        for k in range(1, min(p, 4) + 1):
            assert len(enumerate_classes(p, k)) == _burnside_class_count(p, k)
    for p in (3, 5, 7, 11, 13):
        for k in range(1, p + 1):
            assert len(enumerate_classes(p, k)) == _burnside_class_count(p, k)


def test_enumerate_classes_distinct_and_sorted():
    classes = enumerate_classes(13, 4)
    elems = [c.elements for c in classes]
    assert elems == sorted(set(elems))
    for e in elems:
        assert e[:2] == (0, 1)


def test_enumerate_classes_bad_size():
    with pytest.raises(ValueError):
        enumerate_classes(7, 0)
    with pytest.raises(ValueError):
        enumerate_classes(7, 8)


def test_critical_size_values():
    assert [theorem_lower_bound(p) for p in ODD_PRIMES_BELOW_32] \
        == [3, 4, 4, 5, 5, 6, 6, 6, 6, 6]


def test_candidates_small_primes():
    assert [c.elements for c in candidates(5, 4)] == [(0, 1, 2, 3)]
    assert [c.elements for c in candidates(7, 4)] == [(0, 1, 2, 4)]
    assert candidates(7, 3) == []


def test_report_small_primes():
    for p in (3, 5, 7, 11, 13):
        r = theorem62_report(p)
        assert r.empty_sizes_ok
        assert r.matches_expected
        assert len(r.found) == len(EXPECTED_CANDIDATES[p])


def test_report_rejects_large_prime():
    with pytest.raises(ValueError):
        theorem62_report(37)
