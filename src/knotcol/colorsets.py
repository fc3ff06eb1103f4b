"""Subsets of Z_p up to affine equivalence, and the candidate color sets
whose palette graph admits a connected label-closed subgraph.

The canonical form of a set is the lexicographically smallest sorted tuple
among all images s*S + t with s a unit.  Published tables are compared up
to affine equivalence, never by literal representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from knotcol.coloring import theorem_lower_bound
from knotcol.exactalg import _require_odd_prime
from knotcol.palette import NO_WITNESS, connected_r_witness, palette_graph


# perfbench/tracer.py counts the calls through this module global, and
# enumerate_classes must make exactly one per scanned subset
def canonical_affine_min(elems, p):
    """Lexicographically smallest sorted image of elems under x -> s*x + t,
    for elems distinct residues in range(p) and s a unit.

    For two or more elements the minimum starts (0, 1), since any map
    sending one element to 0 and another to 1 gives such an image.  A
    minimising map therefore sends some e to 0 and some f to 1, which fixes
    it as the pair map x -> (x - e) / d with d = f - e, held as (d, e); its
    image is {r : e + r*d in elems}.  The k(k-1) pair maps are walked in
    step r = 2, 3, ...: if the point e + r*d of some pair lies in elems, r
    is recorded and every pair whose point does not is dropped.  Every pair
    alive at step r has met exactly the recorded values below r, so its next
    image element is at least r; a dropped pair's is larger than r, and as
    all images have k elements it loses the comparison to every survivor.
    Once k values are recorded they are the minimum, (0, 1, recorded r...).

    The first step is fused into building the pairs: the point at r = 2 is
    2f - e, so 2 is recorded exactly when elems holds a three-term
    progression e, f, g = 2f - e, and only those pairs are built.  Each
    progression is found once, by its midpoint: for each unordered pair
    {e, g} of elems, f = (e + g) * (p + 1)/2 mod p, and when f lies in
    elems the progression read from either end gives the two pairs
    (f - e, e) and (f - g, g).  That is one test per unordered pair.
    All k(k-1) pairs are built only when there is no progression; nothing
    is dropped then, and the walk goes on from r = 3.

    The walk stops after step k + 1, or earlier when at most two pairs are
    left, so it makes O(k^3) multiplications and lookups whatever p is.
    If fewer than k values are recorded by then, the finish step computes
    the full image of each survivor, with one inverse of d each, and takes
    the least; for two survivors that costs less than walking them on.
    """
    k = len(elems)
    if k <= 2:
        return (0, 1)[:k]
    members = set(elems)
    half = (p + 1) // 2
    pairs = []
    for e, g in combinations(elems, 2):
        f = (e + g) * half % p
        if f in members:
            pairs += ((f - e) % p, e), ((f - g) % p, g)
    if pairs:
        if k == 3:
            return (0, 1, 2)
        image = [0, 1, 2]
    else:
        pairs = [((f - e) % p, e) for e in elems for f in elems if e != f]
        image = [0, 1]
    for r in range(3, k + 2):
        if len(pairs) <= 2:
            break
        hits = [(d, e) for d, e in pairs if (e + r * d) % p in members]
        if hits:
            image.append(r)
            if len(image) == k:
                return tuple(image)
            pairs = hits
    images = []
    for d, e in pairs:
        s = pow(d, -1, p)
        images.append(sorted([(y - e) * s % p for y in elems]))
    return tuple(min(images))


@dataclass(frozen=True)
class CanonicalSet:
    p: int
    elements: tuple  # sorted residues


def canonical_affine(s, p: int) -> CanonicalSet:
    _require_odd_prime(p)
    elems = tuple(sorted({x % p for x in s}))
    if not elems:
        raise ValueError("set must be nonempty")
    return CanonicalSet(p, canonical_affine_min(elems, p))


# The most subsets containing {0, 1}, and the largest pool of further
# elements, that enumerate_classes takes on at k <= 7, scaled by (7/k)^3
# above, as each subset costs O(k^3); p = 61 at k = 7 scans C(59, 5), ~5.0M
SCAN_LIMIT = 10**7


def _scan_size(p: int, k: int) -> int:
    """max(p - 2, C(p - 2, k - 2)), or any value above SCAN_LIMIT once that
    is certain, without computing a large binomial."""
    n = p - 2
    size = 1
    for i in range(min(k - 2, n - k + 2)):
        if size > SCAN_LIMIT:
            break
        size = size * (n - i) // (i + 1)
    return max(n, size)


def enumerate_classes(p: int, k: int) -> list:
    """Canonical representatives of the affine classes of k-subsets of Z_p.

    For k >= 2 every class has a member containing both 0 and 1 (map any
    two elements there), so only those subsets are scanned.  A canonical
    form is one of them, as it starts (0, 1), so the classes are the scanned
    subsets that are their own canonical form, each met once, and in
    increasing order, as `combinations` yields the subsets sorted.

    The scan is refused with ValueError, before it starts, when the pool of
    p - 2 further elements or the C(p - 2, k - 2) subsets, times max(k, 7)^3
    for the work on each, exceed SCAN_LIMIT * 7^3.
    """
    _require_odd_prime(p)
    if not 1 <= k <= p:
        raise ValueError(f"size must be between 1 and {p}")
    if k == 1:
        return [CanonicalSet(p, (0,))]
    if _scan_size(p, k) * max(k, 7) ** 3 > SCAN_LIMIT * 7 ** 3:
        raise ValueError(f"p = {p}, size = {k}: the class scan takes C({p - 2}, "
                         f"{k - 2}) subsets of {p - 2} elements at size^3 steps "
                         f"each, over the limit of {SCAN_LIMIT} subsets at size 7")
    classes = []
    # at k = 2 the one subset is (0, 1): no pool, which would be copied whole
    pool = range(2, p) if k > 2 else ()
    for rest in combinations(pool, k - 2):
        elems = (0, 1) + rest
        if canonical_affine_min(elems, p) == elems:
            classes.append(CanonicalSet(p, elems))
    return classes


def candidates(p: int, k: int) -> list:
    """The classes whose palette graph passes the connected-subgraph test."""
    result = []
    for cs in enumerate_classes(p, k):
        g = palette_graph(cs.elements, p)
        if connected_r_witness(g) != NO_WITNESS:
            result.append(cs)
    return result


# Candidate color sets at the critical size, one list per odd prime below
# 32, as published.  Comparison is up to affine equivalence.
EXPECTED_CANDIDATES = {
    3: [(0, 1, 2)],
    5: [(0, 1, 2, 3)],
    7: [(0, 1, 2, 4)],
    11: [(0, 1, 2, 3, 6), (0, 1, 2, 4, 7)],
    13: [(0, 1, 2, 4, 7)],
    17: [(0, 1, 2, 3, 5, 9), (0, 1, 2, 3, 5, 10), (0, 1, 2, 3, 5, 12),
         (0, 1, 2, 3, 6, 9), (0, 1, 2, 3, 6, 10), (0, 1, 2, 3, 6, 11),
         (0, 1, 2, 3, 6, 13), (0, 1, 2, 3, 7, 11), (0, 1, 2, 4, 5, 9),
         (0, 1, 2, 4, 5, 10), (0, 1, 2, 4, 5, 12), (0, 1, 2, 4, 10, 13)],
    19: [(0, 1, 2, 3, 5, 10), (0, 1, 2, 3, 6, 10), (0, 1, 2, 3, 6, 11),
         (0, 1, 2, 3, 6, 12), (0, 1, 2, 3, 6, 13), (0, 1, 2, 3, 6, 14),
         (0, 1, 2, 3, 7, 12), (0, 1, 2, 4, 5, 10), (0, 1, 2, 4, 5, 14),
         (0, 1, 2, 4, 7, 12), (0, 1, 2, 4, 7, 15)],
    23: [(0, 1, 2, 3, 6, 12), (0, 1, 2, 4, 7, 12), (0, 1, 2, 4, 7, 13),
         (0, 1, 2, 4, 7, 14), (0, 1, 2, 4, 9, 14), (0, 1, 2, 4, 10, 19)],
    29: [(0, 1, 2, 4, 8, 15)],
    31: [(0, 1, 2, 4, 8, 16)],
}

ODD_PRIMES_BELOW_32 = tuple(EXPECTED_CANDIDATES)


@dataclass(frozen=True)
class CandidateReport:
    p: int
    empty_sizes_ok: bool        # no candidates at any size below critical
    critical_size: int
    found: tuple                # canonical candidate classes at critical size
    matches_expected: bool      # class-level comparison


def theorem62_report(p: int) -> CandidateReport:
    """Candidates at the critical size kc against the published table, and
    whether sizes below kc have none: checked at kc - 1 alone, as passing
    sets are closed upward.  For S inside S', the palette graph of S is a
    subgraph of that of S' with the same labels, as 2^{-1}(u + v) depends
    only on the ends; so a passing set extends to a passing set one larger,
    and none at kc - 1 means none below."""
    if p not in EXPECTED_CANDIDATES:
        raise ValueError(f"no published table for p = {p}; expected p < 32")
    kc = theorem_lower_bound(p)
    empty_ok = not candidates(p, kc - 1)
    found = tuple(cs.elements for cs in candidates(p, kc))
    expected = sorted(canonical_affine(e, p).elements for e in EXPECTED_CANDIDATES[p])
    return CandidateReport(p, empty_ok, kc, found, sorted(found) == expected)
