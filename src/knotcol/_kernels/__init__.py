"""The hot kernels: affine canonicalization of color sets and the exact
Bareiss determinant.  Pure Python, exact for any integer input."""

from itertools import combinations

# perfbench/run.py reads this name at run time to label its results
BACKEND = "python"


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


__all__ = ["canonical_affine_min", "det_bareiss_small", "BACKEND"]
