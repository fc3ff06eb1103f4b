"""Exact linear algebra over Z and Z_p.

All computations use Python's unbounded integers; nothing here ever touches
floating point.  A matrix is a list of integer rows (tuples are read
alike), and a vector mod p is a tuple of residues in [0, p).  No function
here changes its input.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter

# perfbench/tracer.py wraps this module attribute to count determinant calls
from knotcol._kernels import det_bareiss_small


class NotInvertibleError(ValueError):
    pass


class InvalidModulusError(ValueError):
    pass


# The first 13 primes: trial divisors, then Miller-Rabin bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to the bases above is proven exact below this bound
# (Sorenson and Webster, 2015); above it a strong pseudoprime to all 13
# bases has not been ruled out.
PRIMALITY_LIMIT = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime.

    Trial division by the primes up to 41 settles every p < 43^2; larger p
    get the strong probable-prime test to those 13 bases, which is exact
    for p < PRIMALITY_LIMIT (about 3.3e24).  At or above that limit a True
    is not proven; `_require_odd_prime` refuses such p.
    """
    if p <= 41:
        return p != 2 and p in _SMALL_PRIMES
    if any(p % q == 0 for q in _SMALL_PRIMES):
        return False
    if p < 43 * 43:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_odd_prime(p: int) -> None:
    if p >= PRIMALITY_LIMIT:
        raise InvalidModulusError(
            f"invalid modulus: {p} is too large; primality is proven only "
            f"below {PRIMALITY_LIMIT}")
    if not is_odd_prime(p):
        raise InvalidModulusError(f"invalid modulus: {p} is not an odd prime")


def inv_mod_p(a: int, p: int) -> int:
    """Inverse of a modulo an odd prime p."""
    _require_odd_prime(p)
    a %= p
    if a == 0:
        raise NotInvertibleError(f"{a} is not invertible mod {p}")
    return pow(a, -1, p)


def _eliminate(m, p=None, reduced=False) -> dict:
    """Sparse row reduction of m over Z_p, or over Z when p is None.

    Columns go left to right.  The pivot of column c is the pending row
    with the least |entry| there, then the fewest nonzeros, then the lowest
    index; `_clear` replaces each other row with a nonzero in c by its
    remainder, and a nonzero remainder sends that row and the pivot back to
    c.  Returns {pivot column: row as a dict {column: nonzero}}, pivots
    scaled to 1 over Z_p; `reduced` (over Z_p) back substitutes in
    decreasing pivot column order to reduced echelon form.

    Termination: a nonzero remainder is smaller than the pivot, so the
    least |entry| in column c strictly falls; over Z_p every remainder is 0.
    Invariance: each step adds an integer multiple of one row to another,
    so rank, pivot columns and Smith form stay those of m; on a transpose
    the pivot columns are the greedy row basis that `extract_certificate`
    takes, whatever the pivots.
    """
    rows = [{j: v for j, v in enumerate(r) if v} for r in m]
    if p is not None:
        rows = [{j: x for j, v in r.items() if (x := v % p)} for r in rows]
    lead = {}  # leading column -> indices of the pending rows starting there
    for i, r in enumerate(rows):
        if r:
            lead.setdefault(min(r), []).append(i)
    pivots = {}
    while lead:
        c = min(lead)
        touched = lead.pop(c)
        k = min(touched, key=lambda i: (abs(rows[i][c]), len(rows[i]), i))
        piv = rows[k]
        if p is not None:
            inv = pow(piv[c], -1, p)
            piv = {j: v * inv % p for j, v in piv.items()}
        for i in touched:
            if i != k:
                r = rows[i] = _clear(rows[i], piv, c, p)
                if r:
                    lead.setdefault(min(r), []).append(i)
        if c in lead:
            lead[c].append(k)
        else:
            pivots[c] = piv
    if reduced:
        for c in sorted(pivots, reverse=True):
            for c2 in pivots:
                if c2 < c and c in pivots[c2]:
                    pivots[c2] = _clear(pivots[c2], pivots[c], c, p)
    return pivots


def _clear(r: dict, piv: dict, c: int, p) -> dict:
    """r - (r[c] // piv[c]) * piv, reduced mod p over Z_p: what is left in
    column c is smaller than piv[c] in absolute value, 0 over Z_p."""
    q = r[c] // piv[c]
    out = dict(r)
    for j, v in piv.items():
        x = out.get(j, 0) - q * v
        if p is not None:
            x %= p
        if x:
            out[j] = x
        else:
            del out[j]
    return out


def rank_mod_p(m, p: int) -> int:
    """Rank of m over the field Z_p."""
    _require_odd_prime(p)
    return len(_eliminate(m, p))


def nullspace_mod_p(m, p: int) -> list:
    """Reduced-echelon basis of the solution space of m*x = 0 over Z_p.

    Basis vectors are tuples of residues with a 1 in their free coordinate,
    returned in increasing order of that coordinate, so the output is
    deterministic.
    """
    _require_odd_prime(p)
    ncols = len(m[0]) if m else 0
    pivots = _eliminate(m, p, reduced=True)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for c, r in pivots.items():
            v[c] = -r.get(free, 0) % p
        basis.append(tuple(v))
    return basis


def det_int(m) -> int:
    """Exact determinant of a square integer matrix."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    return det_bareiss_small([e for r in m for e in r], n)


def _sparse_columns_first(m):
    """m with its columns in increasing order of nonzero count, ties by
    index, so that `_eliminate` clears the sparse columns first.

    On T(2, n) the two regions that touch every crossing come first in m;
    taken first over Z they make n(n-1)/2 row updates, taken last n - 1.
    """
    counts = [len(col) - col.count(0) for col in zip(*m)]
    order = sorted(range(len(counts)), key=counts.__getitem__)
    if len(order) < 2:
        return m
    take = itemgetter(*order)
    return [take(r) for r in m]


def rank_int(m) -> int:
    """Rank over the rationals, by Euclid row reduction over Z.

    The columns go sparse first: permuting columns multiplies m on the
    right by a permutation matrix, which is invertible, so the rank stays.
    """
    return len(_eliminate(_sparse_columns_first(m)))


def smith_invariant_factors(m) -> list:
    """Invariant factors d1 | d2 | ... of the Smith normal form over Z.

    Reduces the rows with `_eliminate`, then the transpose of the pivot
    rows, until every pivot row has one entry (Kannan and Bachem, SIAM J.
    Comput. 1979); each pass keeps the Smith form.  The first pivot's
    |entry| is the gcd of a set holding its last value, so it falls until
    it divides its row; the next pass leaves it alone in its row and
    column, and the rest is a smaller matrix.

    The first pass takes the columns sparse first.  A column permutation is
    a unimodular matrix on the right, so the Smith form stays; the later
    passes keep their order, which the argument above needs.

    A sweep of (a, b) -> (gcd, lcm), a Smith equivalence, over the pairs
    i < j gives d1 | d2 | ...: at each prime it puts the lesser valuation
    first, so position i ends with the least among the positions >= i.
    """
    n = min(len(m), len(m[0])) if m else 0
    pivots = _eliminate(_sparse_columns_first(m))
    while any(len(r) > 1 for r in pivots.values()):
        rows = list(pivots.values())
        cols = sorted(set().union(*rows))
        pivots = _eliminate([[r.get(j, 0) for r in rows] for j in cols])
    diag = [abs(v) for r in pivots.values() for v in r.values()]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag + [0] * (n - len(diag))
