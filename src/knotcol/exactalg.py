"""Exact linear algebra over Z and Z_p.

All computations use Python's unbounded integers; nothing here ever touches
floating point.  A matrix is a `SparseMatrix`: rows {column: nonzero} and
a column count.  The public rank, nullspace and Smith entry points also
take a dense list of integer rows (tuples are read alike), which
`as_sparse` converts once; `det_int` takes a dense square one.  A
vector mod p is a tuple of residues in [0, p).  No public function here
changes its input.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from math import gcd, prod
from operator import mul
from typing import NamedTuple


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


class SparseMatrix(NamedTuple):
    """A matrix as its rows, each a dict {column: nonzero} that stores no
    zero, and its column count.  The count is explicit because the rows do
    not fix it: a column of zeros, such as the one a kink cancels, appears
    in no row."""
    rows: list
    ncols: int


def as_sparse(m) -> SparseMatrix:
    """m itself when it is a SparseMatrix; else the dense integer rows of m
    as one, `compress` skipping the zeros at C speed.  The type is tested
    first: a SparseMatrix is a tuple too, and would read as two rows."""
    if isinstance(m, SparseMatrix):
        return m
    return SparseMatrix([dict(compress(enumerate(r), r)) for r in m],
                        len(m[0]) if m else 0)


def _reduced(rows, p=None) -> list:
    """A new list of the sparse rows, reduced mod p when p is given: the
    residues in [0, p), and no entry that p divides."""
    if p is None:
        return list(rows)
    return [{j: x for j, v in r.items() if (x := v % p)} for r in rows]


def _rcm_rows(m: SparseMatrix, p=None):
    """The rows of m, reduced mod p when p is given, with their columns
    renamed into reverse Cuthill-McKee order, and that order: column
    order[k] is renamed k.  It reads only the stored entries, so it costs
    time in proportion to the nonzeros and the columns.

    The order is a breadth-first search over "shares a row with", each
    search started at the sparsest column not yet reached, neighbours taken
    in increasing order of nonzero count, ties by index; the finished order
    is reversed (Cuthill and McKee, 1969; George, 1971).  It keeps the
    nonzeros near a band, so eliminating in it fills in little: on T(2, n)
    the coloring, Alexander and Fox matrices take O(n) row updates (the Fox
    matrix of T(2, 201) at 3 takes 333, and 5,397 left to right).  Renaming
    the columns multiplies m on the right by a permutation matrix, which is
    unimodular, so the rank and the Smith form stay.  An entry that p
    divides joins no columns, so the order is that of the rows reduced mod
    p; each row is reduced and renamed in one pass.
    """
    rows = m.rows
    ncols = m.ncols
    rows_of = [[] for _ in range(ncols)]
    pattern = rows  # row i's columns, as the order reads them
    for i, r in enumerate(rows):
        if p is None:
            for j in r:
                rows_of[j].append(i)
            continue
        for j, v in r.items():
            if v % p:
                rows_of[j].append(i)
            else:
                if pattern is rows:
                    pattern = list(rows)
                pattern[i] = [j for j, v in r.items() if v % p]
    by_count = sorted(range(ncols), key=list(map(len, rows_of)).__getitem__)
    place = [0] * ncols  # column -> its place in by_count
    for k, j in enumerate(by_count):
        place[j] = k
    seen = [False] * ncols
    row_seen = [False] * len(rows)
    order = []
    head = 0
    for start in by_count:
        if seen[start]:
            continue
        seen[start] = True
        order.append(start)
        while head < len(order):
            reached = []
            for i in rows_of[order[head]]:
                if not row_seen[i]:
                    row_seen[i] = True
                    for j in pattern[i]:
                        if not seen[j]:
                            seen[j] = True
                            reached.append(j)
            reached.sort(key=place.__getitem__)
            order += reached
            head += 1
    order.reverse()
    new = [0] * ncols  # column -> its renamed column
    for k, j in enumerate(order):
        new[j] = k
    if p is None:
        return [{new[j]: v for j, v in r.items()} for r in rows], order
    return [{new[j]: x for j, v in r.items() if (x := v % p)} for r in rows], order


def _eliminate(m, p=None) -> dict:
    """`_eliminate_rows` on the rows of m, columns left to right."""
    return _eliminate_rows(_reduced(as_sparse(m).rows, p), p)


def _echelon(m, p=None):
    """The pivots of `_eliminate_rows` on the rows of m in `_rcm_rows`
    order, over Z_p when p is given, else over Z, and that order: the one
    elimination behind the rank, nullspace, Smith and determinant paths."""
    rows, order = _rcm_rows(as_sparse(m), p)
    return _eliminate_rows(rows, p), order


def _eliminate_rows(rows, p=None, reduced=False) -> dict:
    """Sparse row reduction over Z_p, or over Z when p is None, of a list
    of rows {column: nonzero}; it replaces the list's entries but never
    changes a row dict, so pivot rows it returns may be eliminated again.
    Over Z it never swaps or rescales rows and never changes a pivot row
    again, so the list ends with each pivot at its own index, the rest empty.

    The columns go in increasing order of name, the next one taken from a
    heap of the pending rows' leading columns.  The pivot of column c is
    the pending row with the least |entry| there, then the fewest nonzeros,
    then the lowest index; `_clear` replaces each other row with a nonzero
    in c by its remainder, and a nonzero remainder sends that row and the
    pivot back to c.  Returns {pivot column: row as a dict}, pivots scaled
    to 1 over Z_p; `reduced` (over Z_p) back substitutes in decreasing
    pivot column order to reduced echelon form.

    Termination: a nonzero remainder is smaller than the pivot, so the
    least |entry| in column c strictly falls; over Z_p every remainder is 0.
    Invariance: each step adds an integer multiple of one row to another,
    so rank, pivot columns and Smith form stay those of the rows.  The
    pivot columns, whatever the pivots, are the greedy column basis: the
    columns outside the span of the columns before them.
    """
    lead = {}  # leading column -> indices of the pending rows starting there
    for i, r in enumerate(rows):
        if r:
            lead.setdefault(min(r), []).append(i)
    heap = sorted(lead)
    pivots = {}
    while heap:
        c = heappop(heap)
        touched = lead.pop(c)
        k = touched[0] if len(touched) == 1 else min(
            touched, key=lambda i: (abs(rows[i][c]), len(rows[i]), i))
        piv = rows[k]
        if p is not None and piv[c] != 1:
            inv = pow(piv[c], -1, p)
            piv = {j: v * inv % p for j, v in piv.items()}
        for i in touched:
            if i != k:
                r = rows[i] = _clear(rows[i], piv, c, p)
                if r:
                    j = min(r)
                    if j in lead:
                        lead[j].append(i)
                    else:
                        lead[j] = [i]
                        heappush(heap, j)
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
    """Rank of m over the field Z_p, columns in `_rcm_rows` order."""
    _require_odd_prime(p)
    return len(_echelon(m, p)[0])


def ranks_appending(m, extra, p: int) -> tuple:
    """(over_q, over_p): [rank of m] followed by the rank of m with each
    row of extra appended, over Q and over Z_p, from one elimination of m
    over Z; extra is a matrix of m's width.

    m is eliminated over Z as in `rank_int`.  That elimination only adds
    integer multiples of one row to another, so its pivot rows generate
    the lattice of integer combinations of the rows of m, as a Hermite
    basis does (Cohen, A Course in Computational Algebraic Number Theory,
    1993, section 2.4).  Reduced mod p, they therefore span the row space
    of m over Z_p, and they are already in echelon form there, except the
    few whose pivot p divides; `_eliminate_rows` over Z_p finishes them.
    Each extra row, renamed into the same column order, is then reduced
    against the pivot rows of each ring alone: appending it adds 1 to the
    rank exactly when it is not reduced to zero.
    """
    _require_odd_prime(p)
    pivots, order = _echelon(m)
    pivots_p = _eliminate_rows(_reduced(pivots.values(), p), p)
    new = dict(zip(order, range(len(order))))  # m column -> renamed column
    extra = [{new[j]: v for j, v in r.items()} for r in as_sparse(extra).rows]
    return ([len(pivots)] + [len(pivots) + _adds_rank(r, pivots, None)
                             for r in extra],
            [len(pivots_p)] + [len(pivots_p) + _adds_rank(r, pivots_p, p)
                               for r in _reduced(extra, p)])


def _adds_rank(r: dict, pivots: dict, p) -> int:
    """1 when the row r is outside the span of the echelon rows pivots
    over Z_p, or over Q when p is None, else 0.  r is cleared at its
    leading column by the pivot row there until it is zero or leads in a
    column with no pivot row, where no combination of them can lead.
    Over Z it is cleared fraction free: scaled so that the pivot divides
    it there, then divided by the gcd of its entries."""
    while r:
        c = min(r)
        piv = pivots.get(c)
        if piv is None:
            return 1
        if p is None:
            scale = piv[c] // gcd(piv[c], r[c])
            r = _clear({j: scale * v for j, v in r.items()}, piv, c, None)
            if r:
                g = gcd(*r.values())
                r = {j: v // g for j, v in r.items()}
        else:
            r = _clear(r, piv, c, p)
    return 0


def nullspace_mod_p(m, p: int) -> list:
    """Reduced-echelon basis of the solution space of m*x = 0 over Z_p.

    Basis vectors are tuples of residues with a 1 in their free coordinate
    (a non-pivot column of m taken left to right), returned in increasing
    order of that coordinate, so the output is deterministic.

    m is eliminated in `_rcm_rows` order, and one null vector per free
    column of that order is back solved from the echelon rows.  That basis
    is then made canonical: the reduced echelon basis above depends only on
    the null space N, and its free coordinates are the last nonzero
    positions of the vectors of N, so one reduced elimination of the basis
    with its columns reversed gives it, pivots last coordinate first.
    """
    _require_odd_prime(p)
    pivots, order = _echelon(m, p)
    ncols = len(order)
    back = sorted(pivots, reverse=True)
    reverse = [ncols - 1 - j for j in order]  # renamed k -> reversed m column
    solved = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [0] * ncols
        x[free] = 1
        for c in back:
            # row c has 1 at c, where x is still 0, and the rest further on
            r = pivots[c]
            x[c] = -sum(map(mul, r.values(), map(x.__getitem__, r))) % p
        solved.append(dict(zip(compress(reverse, x), filter(None, x))))
    return _canonical_basis(solved, ncols, p)


def _canonical_basis(vectors, ncols, p) -> list:
    """The reduced echelon basis of the span over Z_p of vectors of length
    ncols, each given as a dict {ncols - 1 - j: nonzero x_j}, that is, with
    its coordinates reversed; it is the basis `nullspace_mod_p` returns
    when the span is a null space.  One reduced elimination of the
    reversed vectors puts the pivots at the last nonzero positions, and the
    basis is read off it in increasing order of those."""
    canon = _eliminate_rows(vectors, p, reduced=True)
    basis = []
    for c in sorted(canon, reverse=True):
        v = [0] * ncols
        for j, x in canon[c].items():
            v[j] = x
        basis.append(tuple(reversed(v)))
    return basis


# the tests' reference determinant; perfbench/tracer.py wraps the name
def det_bareiss_small(rows):
    """Fraction-free (Bareiss) determinant of a k x k integer matrix given
    as its k rows, k >= 1; exact for any order and entry size."""
    k = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for col in range(k - 1):
        if a[col][col] == 0:
            piv = next((i for i in range(col + 1, k) if a[i][col]), None)
            if piv is None:
                return 0
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for i in range(col + 1, k):
            for j in range(col + 1, k):
                a[i][j] = (a[i][j] * a[col][col] - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = a[col][col]
    return sign * a[k - 1][k - 1]


def det_int(m) -> int:
    """Exact determinant of a square integer matrix.  `_eliminate_rows` over
    Z keeps det and leaves each pivot row at its own index, so det is the
    pivots' product times the sign of sorting the rows by leading column."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant requires a square matrix")
    rows = as_sparse(m).rows
    pivots = _eliminate_rows(rows)
    if len(pivots) < n:
        return 0
    lead = [min(r) for r in rows]
    sign = 1
    for i in range(n):
        while (j := lead[i]) != i:  # each swap puts one leading column home
            lead[i], lead[j], sign = lead[j], j, -sign
    return sign * prod(r[c] for c, r in pivots.items())


def rank_int(m) -> int:
    """Rank over the rationals, by Euclid row reduction over Z, columns in
    `_rcm_rows` order."""
    return len(_echelon(m)[0])


def smith_invariant_factors(m) -> list:
    """Invariant factors d1 | d2 | ... of the Smith normal form over Z.

    Reduces the rows with `_eliminate_rows`, then the transpose of the pivot
    rows, until every pivot row has one entry (Kannan and Bachem, SIAM J.
    Comput. 1979); each pass keeps the Smith form.  The first pivot's
    |entry| is the gcd of a set holding its last value, so it falls until
    it divides its row; the next pass leaves it alone in its row and
    column, and the rest is a smaller matrix.

    The first pass takes the columns in `_rcm_rows` order, which keeps the
    Smith form; the later passes transpose the pivot rows as they stand and
    go left to right, which the argument above needs.

    A sweep of (a, b) -> (gcd, lcm), a Smith equivalence, over the pairs
    i < j gives d1 | d2 | ...: at each prime it puts the lesser valuation
    first, so position i ends with the least among the positions >= i.
    """
    m = as_sparse(m)
    n = min(len(m.rows), m.ncols)
    pivots = _echelon(m)[0]
    while any(len(r) > 1 for r in pivots.values()):
        columns = {}
        for i, r in enumerate(pivots.values()):
            for j, v in r.items():
                columns.setdefault(j, {})[i] = v
        pivots = _eliminate_rows([columns[j] for j in sorted(columns)])
    diag = [abs(v) for r in pivots.values() for v in r.values()]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag + [0] * (n - len(diag))
