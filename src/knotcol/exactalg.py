"""Exact linear algebra over Z and Z_p.

All computations use Python's unbounded integers; nothing here ever touches
floating point.  A matrix is a list of integer rows (tuples are read
alike), and a vector mod p is a tuple of residues in [0, p).  No function
here changes its input.
"""

from __future__ import annotations

from math import gcd

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
    """Sparse row reduction of m over Z_p, or over Q when p is None.

    Columns go left to right; the pivot of column c is the pending row with
    a nonzero there and the fewest nonzeros (the first on a tie), and only
    rows with a nonzero in c change.  Returns {pivot column: row as a dict
    {column: nonzero}}, pivots scaled to 1 over Z_p; `reduced` back
    substitutes in decreasing pivot column order to reduced echelon form.
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
        k = min(touched, key=lambda i: (len(rows[i]), i))
        piv = pivots[c] = rows[k]
        if p is not None:
            inv = pow(piv[c], -1, p)
            piv = pivots[c] = {j: v * inv % p for j, v in piv.items()}
        for i in touched:
            if i != k:
                r = rows[i] = _clear(rows[i], piv, c, p)
                if r:
                    lead.setdefault(min(r), []).append(i)
    if reduced:
        for c in sorted(pivots, reverse=True):
            for c2 in pivots:
                if c2 < c and c in pivots[c2]:
                    pivots[c2] = _clear(pivots[c2], pivots[c], c, p)
    return pivots


def _clear(r: dict, piv: dict, c: int, p) -> dict:
    """(a/g)*r - (f/g)*piv, a = piv[c], f = r[c], g = gcd(a, f): reduced
    mod p over Z_p, divided by its content over Q (exact, no fractions)."""
    g = gcd(piv[c], r[c])
    s, t = piv[c] // g, r[c] // g
    out = dict(r) if s == 1 else {j: s * v for j, v in r.items()}
    for j, v in piv.items():
        x = out.get(j, 0) - t * v
        if p is not None:
            x %= p
        if x:
            out[j] = x
        else:
            del out[j]
    g = gcd(*out.values()) if p is None else 1
    return {j: v // g for j, v in out.items()} if g > 1 else out


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


def rank_int(m) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    return len(_eliminate(m))


def smith_invariant_factors(m) -> list:
    """Invariant factors d1 | d2 | ... of the Smith normal form over Z.

    Pivoting picks the smallest nonzero absolute value, which keeps entry
    growth modest at the matrix sizes used here.
    """
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if a else 0
    t = 0
    diag = []
    while t < min(nr, nc):
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for r in a:
            r[t], r[j0] = r[j0], r[t]
        # clear row/column t; restart if a reduction produces a smaller pivot
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(a[t][t]))
        t += 1
    # enforce divisibility chain
    k = len(diag)
    changed = True
    while changed:
        changed = False
        for i in range(k):
            for j in range(i + 1, k):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    lcm = diag[i] // g * diag[j]
                    diag[i], diag[j] = g, lcm
                    changed = True
    return sorted(diag) + [0] * (min(nr, nc) - k)
