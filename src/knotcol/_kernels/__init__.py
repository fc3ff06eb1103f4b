"""The hot kernels: affine canonicalization of color sets and the exact
Bareiss determinant.  Pure Python, exact for any integer input."""

# perfbench/run.py reads this name at run time to label its results
BACKEND = "python"


def canonical_affine_min(elems, p):
    """Lexicographically smallest sorted image of elems under x -> s*x + t,
    for elems distinct residues mod p and s a unit.

    For two or more elements the minimum starts (0, 1), since any map
    sending one element to 0 and another to 1 gives such an image.  A
    minimising map therefore sends some e to 0 and some f to 1, which fixes
    it as x -> (x - e) / (f - e).  Only these k(k-1) pair maps are scanned,
    so the cost is O(k^3 log k) whatever p is.
    """
    if len(elems) == 1:
        return (0,)
    best = None
    for e in elems:
        diffs = [(x - e) % p for x in elems]
        for d in diffs:
            if d:
                s = pow(d, -1, p)
                img = [s * y % p for y in diffs]
                img.sort()
                if best is None or img < best:
                    best = img
    return tuple(best)


def det_bareiss_small(flat, k):
    """Fraction-free (Bareiss) determinant of a k x k integer matrix given
    row-major as flat; exact for any order and entry size."""
    a = [list(flat[i * k:(i + 1) * k]) for i in range(k)]
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


__all__ = ["canonical_affine_min", "det_bareiss_small", "BACKEND"]
