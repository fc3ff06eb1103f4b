"""Subsets of Z_p up to affine equivalence, and the candidate color sets
whose palette graph admits a connected label-closed subgraph.

The canonical form of a set is the lexicographically smallest sorted tuple
among all images s*S + t with s a unit.  Published tables are compared up
to affine equivalence, never by literal representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

# perfbench/tracer.py wraps this module attribute to count canonicalizations,
# and perfbench/test_perfbench.py pins that count to the sum of C(p-2, k-2):
# enumerate_classes must call it through this attribute once per scanned subset
from knotcol._kernels import canonical_affine_min
from knotcol.coloring import theorem_lower_bound
from knotcol.exactalg import _require_odd_prime
from knotcol.palette import NO_WITNESS, connected_r_witness, palette_graph


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


def affine_equivalent(s1, s2, p: int) -> bool:
    if len({x % p for x in s1}) != len({x % p for x in s2}):
        return False
    return canonical_affine(s1, p).elements == canonical_affine(s2, p).elements


def enumerate_classes(p: int, k: int) -> list:
    """Canonical representatives of the affine classes of k-subsets of Z_p.

    For k >= 2 every class has a member containing both 0 and 1 (map any
    two elements there), so only those subsets are scanned.
    """
    _require_odd_prime(p)
    if not 1 <= k <= p:
        raise ValueError(f"size must be between 1 and {p}")
    if k == 1:
        return [CanonicalSet(p, (0,))]
    seen = set()
    for rest in combinations(range(2, p), k - 2):
        elems = (0, 1) + rest
        seen.add(canonical_affine_min(elems, p))
    return [CanonicalSet(p, e) for e in sorted(seen)]


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

ODD_PRIMES_BELOW_32 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass(frozen=True)
class CandidateReport:
    p: int
    empty_sizes_ok: bool        # no candidates at any size below critical
    critical_size: int
    found: tuple                # canonical candidate classes at critical size
    expected: tuple             # published classes (as printed)
    matches_expected: bool      # class-level comparison


def theorem62_report(p: int) -> CandidateReport:
    if p not in EXPECTED_CANDIDATES:
        raise ValueError(f"no published table for p = {p}; expected p < 32")
    kc = theorem_lower_bound(p)
    empty_ok = all(not candidates(p, k) for k in range(1, kc))
    found = tuple(cs.elements for cs in candidates(p, kc))
    expected = tuple(EXPECTED_CANDIDATES[p])
    expected_canon = sorted(canonical_affine(e, p).elements for e in expected)
    matches = sorted(found) == expected_canon
    return CandidateReport(p, empty_ok, kc, found, expected, matches)
