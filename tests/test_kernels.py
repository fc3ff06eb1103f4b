import random

from knotcol import _kernels


def test_backend_reported():
    assert _kernels.BACKEND == "python"


def test_fallback_det_known_values():
    assert _kernels.det_bareiss_small([1, 2, 3, 4], 2) == -2
    assert _kernels.det_bareiss_small([7], 1) == 7


def _min_over_all_affine_maps(elems, p):
    return min(tuple(sorted((a * x + b) % p for x in elems))
               for a in range(1, p) for b in range(p))


def test_canonical_matches_all_maps_every_subset():
    for p in (3, 5, 7, 11):
        for mask in range(1, 2**p):
            elems = tuple(x for x in range(p) if mask >> x & 1)
            assert _kernels.canonical_affine_min(elems, p) \
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
        assert _kernels.canonical_affine_min(elems, p) \
            == _min_over_all_affine_maps(elems, p), (elems, p)
    assert {1, 2} <= sizes and full_set_seen
