import random
from itertools import combinations

from knotcol import _kernels
from knotcol.coloring import theorem_lower_bound
from knotcol.colorsets import canonical_affine_min
from knotcol.exactalg import det_bareiss_small


def test_backend_reported():
    assert _kernels.BACKEND == "python"


def test_fallback_det_known_values():
    assert det_bareiss_small([[1, 2], [3, 4]]) == -2
    assert det_bareiss_small([[7]]) == 7


def _min_over_all_affine_maps(elems, p):
    return min(tuple(sorted((a * x + b) % p for x in elems))
               for a in range(1, p) for b in range(p))


def _min_over_pair_maps(elems, p):
    """The least sorted image under the k(k-1) maps x -> (x - e) / (f - e),
    each image built and sorted in full."""
    if len(elems) == 1:
        return (0,)
    best = None
    for e in elems:
        diffs = [(x - e) % p for x in elems]
        for d in diffs:
            if d:
                s = pow(d, -1, p)
                img = sorted(s * y % p for y in diffs)
                if best is None or img < best:
                    best = img
    return tuple(best)


def test_canonical_matches_all_maps_every_subset():
    for p in (3, 5, 7, 11):
        for mask in range(1, 2**p):
            elems = tuple(x for x in range(p) if mask >> x & 1)
            assert canonical_affine_min(elems, p) \
                == _min_over_all_affine_maps(elems, p), (elems, p)


def test_canonical_matches_all_maps_random_subsets():
    rng = random.Random(2024)
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    sizes, full_set_seen = set(), False
    for _ in range(500):
        p = rng.choice(primes)
        k = rng.randint(1, min(p, 9))
        sizes.add(k)
        full_set_seen |= k == p
        elems = tuple(sorted(rng.sample(range(p), k)))
        assert canonical_affine_min(elems, p) \
            == _min_over_all_affine_maps(elems, p), (elems, p)
    assert {1, 2} <= sizes and full_set_seen


def test_canonical_matches_pair_maps_scanned_subsets():
    # every subset the class scan meets, up to one past the critical size;
    # at p = 29 and 31, the benchmark's largest tables, up to it
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for k in range(2, min(p, theorem_lower_bound(p) + (p < 29)) + 1):
            for rest in combinations(range(2, p), k - 2):
                elems = (0, 1) + rest
                assert canonical_affine_min(elems, p) \
                    == _min_over_pair_maps(elems, p), (elems, p)


def _progressions(elems, p):
    """The three-term progressions of elems as (end, midpoint, end) with
    ends e < g, found by testing every middle element against every end."""
    return sorted((e, f, g) for f in elems for e in elems for g in elems
                  if e < g and (e + g - 2 * f) % p == 0)


def test_canonical_without_three_term_progression():
    # no pair map's image holds 2, so the walk records nothing at r = 2 and
    # keeps every pair; the decision falls to a later step
    cases = [((0, 1, 3), 7, (0, 1, 3)), ((0, 1, 3), 2**61 - 1, (0, 1, 3)),
             ((0, 1, 4), 13, (0, 1, 4)), ((0, 1, 3, 9), 31, (0, 1, 3, 9)),
             ((5, 6, 8), 31, (0, 1, 3)), ((2, 9, 23), 2**31 - 1, None),
             ((0, 1, 5, 7), 31, None), ((0, 1, 4, 6, 13), 31, None)]
    for elems, p, expected in cases:
        assert not _progressions(elems, p), (elems, p)
        got = canonical_affine_min(elems, p)
        assert got == _min_over_pair_maps(elems, p), (elems, p)
        assert 2 not in got
        if expected is not None:
            assert got == expected, (elems, p)


def _extend_without_progressions(elems, p, size):
    """elems followed by the least further residues that add no
    three-term progression, up to size elements."""
    elems = list(elems)
    count = len(_progressions(elems, p))
    for c in range(p):
        if len(elems) == size:
            break
        if c not in elems and len(_progressions(elems + [c], p)) == count:
            elems.append(c)
    return tuple(elems)


def test_canonical_midpoint_through_inverse_of_two():
    # the one progression 0, (p + 1)/2, 1 has ends of odd sum, so its
    # midpoint is (0 + 1) * 2^{-1} = (p + 1)/2, not an integer midpoint
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
        h = (p + 1) // 2
        elems = _extend_without_progressions((0, 1, h), p, min(p, 7))
        assert _progressions(elems, p) == [(0, h, 1)], (elems, p)
        for k in range(3, len(elems) + 1):
            got = canonical_affine_min(elems[:k], p)
            assert got == _min_over_all_affine_maps(elems[:k], p), (elems[:k], p)
            assert got[:3] == (0, 1, 2)


def test_canonical_midpoint_at_large_prime():
    # at p = 2^31 - 1: progressions whose ends have an odd sum, one of them
    # wrapping past p, and a progression-free set
    p = 2**31 - 1
    h = (p + 1) // 2
    wrapping = [(0, 1, h), (0, 1, h, 5), (7, 8, 7 + h, 1000),
                (p - 3, p - 2, (p - 5) // 2, 12345)]
    for elems in wrapping:
        assert len(_progressions(elems, p)) == 1, elems
        got = canonical_affine_min(elems, p)
        assert got == _min_over_pair_maps(elems, p), elems
        assert got[:3] == (0, 1, 2)
    for elems in ((0, 1, 3, 9, 27, 81), (p - 1, 0, 2, 2**20)):
        assert not _progressions(elems, p), elems
        got = canonical_affine_min(elems, p)
        assert got == _min_over_pair_maps(elems, p), elems
        assert 2 not in got


def test_canonical_matches_pair_maps_large_primes():
    # at these p a random set's pair-map images have no small elements past
    # 0 and 1, so the walk ends at its step cap and the finish step answers
    rng = random.Random(61)
    for p in (2**31 - 1, 2**61 - 1):
        for _ in range(300):
            k = rng.randint(1, 12)
            elems = tuple(rng.sample(range(p), k))
            assert canonical_affine_min(elems, p) \
                == _min_over_pair_maps(elems, p), (elems, p)


def test_canonical_with_several_survivors():
    # sets with many affine self-maps, so several pairs share the least image
    cases = [((1, 2, 4, 8, 16), 31), ((0, 1, 2, 4, 8, 16), 31),
             ((0, 1, 2, 4, 8, 16), 2**61 - 1)]
    cases += [(tuple(range(k)), p) for p in (7, 31, 2**31 - 1) for k in (3, 4, 7)]
    cases += [(tuple(range(p)), p) for p in (3, 5, 7, 11, 13, 31)]
    for elems, p in cases:
        assert canonical_affine_min(elems, p) \
            == _min_over_pair_maps(elems, p), (elems, p)
    assert canonical_affine_min((1, 2, 4, 8, 16), 31) == (0, 1, 3, 7, 15)
    assert canonical_affine_min(tuple(range(31)), 31) == tuple(range(31))
    assert canonical_affine_min((5, 9, 13, 17), 2**31 - 1) == (0, 1, 2, 3)
