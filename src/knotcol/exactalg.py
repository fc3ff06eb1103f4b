"""Exact linear algebra over Z and Z_p.

All computations use Python's unbounded integers; nothing here ever touches
floating point.  Matrices are lists of rows, each row a list of ints; the
thin `IntMatrix` wrapper validates shape at API boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major, length rows*cols

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if not all(isinstance(e, int) for e in self.entries):
            raise TypeError("entries must be exact integers")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, tuple(e for r in rows for e in r))

    def row_list(self):
        m = self.cols
        return [list(self.entries[i * m:(i + 1) * m]) for i in range(self.rows)]


@dataclass(frozen=True)
class ModVector:
    p: int
    entries: tuple

    def __post_init__(self):
        _require_odd_prime(self.p)
        if any(not (0 <= e < self.p) for e in self.entries):
            raise ValueError("entries must be residues in [0, p)")


def _rows_of(m) -> list:
    if isinstance(m, IntMatrix):
        return m.row_list()
    return [list(r) for r in m]


def inv_mod_p(a: int, p: int) -> int:
    """Inverse of a modulo an odd prime p."""
    _require_odd_prime(p)
    a %= p
    if a == 0:
        raise NotInvertibleError(f"{a} is not invertible mod {p}")
    return pow(a, -1, p)


def rank_mod_p(m, p: int) -> int:
    """Rank of m over the field Z_p."""
    _require_odd_prime(p)
    rows = [[e % p for e in r] for r in _rows_of(m)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def nullspace_mod_p(m, p: int) -> list:
    """Reduced-echelon basis of the solution space of m*x = 0 over Z_p.

    Basis vectors have a 1 in their free coordinate and are returned in
    increasing order of that coordinate, so the output is deterministic.
    """
    _require_odd_prime(p)
    rows = [[e % p for e in r] for r in _rows_of(m)]
    ncols = len(rows[0]) if rows else 0
    if isinstance(m, IntMatrix):
        ncols = m.cols
    pivots = []  # (row, col)
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append((rank, c))
        rank += 1
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, c in pivots:
            v[c] = (-rows[r][free]) % p
        basis.append(ModVector(p, tuple(v)))
    return basis


def det_int(m) -> int:
    """Exact determinant of a square integer matrix."""
    rows = _rows_of(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    return det_bareiss_small([e for r in rows for e in r], n)


def rank_int(m) -> int:
    """Rank over the rationals, by fraction-free elimination."""
    rows = [list(r) for r in _rows_of(m) if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [
                (rows[i][j] * rows[rank][c] - rows[i][c] * rows[rank][j]) // prev
                for j in range(ncols)
            ]
        prev = rows[rank][c]
        rank += 1
        if rank == len(rows):
            break
    return rank


def smith_invariant_factors(m) -> list:
    """Invariant factors d1 | d2 | ... of the Smith normal form over Z.

    Pivoting picks the smallest nonzero absolute value, which keeps entry
    growth modest at the matrix sizes used here.
    """
    a = _rows_of(m)
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
