import math
import tracemalloc
from itertools import combinations

import pytest

from knotcol import colorsets
from knotcol.coloring import theorem_lower_bound
from knotcol.exactalg import InvalidModulusError
from knotcol.colorsets import (
    EXPECTED_CANDIDATES,
    ODD_PRIMES_BELOW_32,
    canonical_affine,
    candidates,
    enumerate_classes,
    theorem62_report,
)
from knotcol.palette import NO_WITNESS, connected_r_witness, palette_graph


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
    # two sets are affinely equivalent when their canonical forms agree
    assert canonical_affine({0, 1, 2}, 11) == canonical_affine({3, 5, 7}, 11)
    assert canonical_affine({0, 1, 2}, 7) != canonical_affine({0, 1, 3}, 7)
    assert canonical_affine({0, 1}, 7) != canonical_affine({0, 1, 2}, 7)
    # the modulus is checked before anything is reduced by it
    with pytest.raises(InvalidModulusError):
        canonical_affine([1], 0)
    with pytest.raises(InvalidModulusError):
        canonical_affine([1, 2], 4)


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


def test_classes_beyond_the_paper():
    # no published table past 31; the Burnside count and "no candidates
    # below the critical size" (7 at these p) still hold
    for p in (37, 41, 43):
        assert theorem_lower_bound(p) == 7
        for k in range(1, 6):
            assert len(enumerate_classes(p, k)) == _burnside_class_count(p, k)
            assert candidates(p, k) == []


def test_enumerate_classes_scan_limit():
    # p = 61 at k = 7 scans C(59, 5), about 5.0M subsets: under the limit
    assert colorsets._scan_size(61, 7) == math.comb(59, 5) <= colorsets.SCAN_LIMIT
    assert colorsets._scan_size(67, 8) > colorsets.SCAN_LIMIT
    # a pool of p - 2 = 10^7 + 17 elements is over the limit even at k = 2
    for p, k in ((10**7 + 19, 2), (67, 8)):
        with pytest.raises(ValueError):
            enumerate_classes(p, k)
    assert enumerate_classes(2**61 - 1, 1)[0].elements == (0,)  # no scan


def test_enumerate_classes_scan_limit_weighs_size():
    # each subset costs O(k^3), so above k = 7 the limit shrinks by (7/k)^3:
    # C(101, 2) = 5,050 subsets at k = 101 would take minutes, C(209, 2) at
    # 209 hours, and C(45, 6), about 8.1M, at k = 8 is over it too
    for p, k in ((103, 101), (211, 209), (47, 8)):
        with pytest.raises(ValueError, match="over the limit"):
            enumerate_classes(p, k)


def test_enumerate_classes_at_size_two_builds_no_pool():
    # the one subset (0, 1) is canonicalized without copying the p - 2
    # further elements into a tuple, which took 40 MB at p = 1,000,003
    tracemalloc.start()
    try:
        classes = enumerate_classes(1_000_003, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.elements for c in classes] == [(0, 1)]
    assert peak < 2 ** 20, peak


def test_enumerate_classes_canonicalizes_each_scanned_subset_once(monkeypatch):
    # the scan looks the kernel up through the module attribute, so a
    # wrapper sees every call: one per k-subset containing {0, 1}
    kernel = colorsets.canonical_affine_min
    calls = 0

    def counted(elems, p):
        nonlocal calls
        calls += 1
        return kernel(elems, p)

    monkeypatch.setattr(colorsets, "canonical_affine_min", counted)
    for p in (3, 5, 7, 11, 13):
        total = 0
        for k in range(1, p + 1):
            calls = 0
            enumerate_classes(p, k)
            assert calls == (math.comb(p - 2, k - 2) if k >= 2 else 0), (p, k)
            total += calls
        assert total == 2 ** (p - 2)
    calls = 0
    assert [c.elements for c in enumerate_classes(1_000_003, 2)] == [(0, 1)]
    assert calls == 1


def test_enumerate_classes_are_their_own_canonical_form():
    # the scan keeps the subsets that are their own canonical form
    for p in (3, 5, 7, 11, 13):
        for k in range(1, p + 1):
            for cs in enumerate_classes(p, k):
                assert colorsets.canonical_affine_min(cs.elements, p) == cs.elements, (p, cs)


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


def test_candidates_empty_below_critical_size():
    # the reference check theorem62_report leaves to upward closure
    for p in ODD_PRIMES_BELOW_32:
        for k in range(1, theorem_lower_bound(p)):
            assert candidates(p, k) == [], (p, k)


def test_candidates_closed_upward():
    # every one-element extension of a candidate passes: at the critical
    # size kc for every p < 32, and at kc + 1 for 5 <= p <= 19
    extended = 0
    for p in ODD_PRIMES_BELOW_32:
        kc = theorem_lower_bound(p)
        for k in (kc, kc + 1) if 5 <= p <= 19 else (kc,):
            for cs in candidates(p, k):
                for x in set(range(p)) - set(cs.elements):
                    g = palette_graph(cs.elements + (x,), p)
                    assert connected_r_witness(g) != NO_WITNESS, (p, cs.elements, x)
                    extended += 1
    assert extended == 449 + 1768


def test_report_rejects_large_prime():
    with pytest.raises(ValueError):
        theorem62_report(37)
