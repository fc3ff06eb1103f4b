"""The hot kernels: affine canonicalization of color sets and the exact
Bareiss determinant.  Pure Python, exact for any integer input."""

# perfbench/run.py reads this name at run time to label its results
BACKEND = "python"


def canonical_affine_min(elems, p):
    """Lexicographically smallest sorted image of elems under x -> s*x + t,
    for elems distinct residues in range(p) and s a unit.

    For two or more elements the minimum starts (0, 1), since any map
    sending one element to 0 and another to 1 gives such an image.  A
    minimising map therefore sends some e to 0 and some f to 1, which fixes
    it as x -> (x - e) / d with d = f - e, and the image of that pair map is
    {r : e + r*d in elems}.  All k(k-1) pair maps are walked in step: each
    pair carries its point x = e + r*d, which advances by one addition mod p
    per step r = 2, 3, ...  If some pair's point lies in elems, r is
    recorded and every pair whose point does not is dropped.  Every pair
    alive at step r has met exactly the recorded values below r, so its next
    image element is at least r; a dropped pair's is larger than r, and as
    all images have k elements it loses the comparison to every survivor.
    Once k values are recorded they are the minimum, (0, 1, recorded r...).

    The walk stops after k steps, or earlier when one pair is left, so it
    makes O(k^3) additions and lookups whatever p is.  If fewer than k
    values are recorded by then, the finish step computes the full image of
    each survivor, with one inverse of d each, and takes the least.
    """
    k = len(elems)
    if k <= 2:
        return (0, 1)[:k]
    members = set(elems)
    pairs = [((f - e) % p, f) for e in elems for f in elems if f != e]
    image = [0, 1]
    for r in range(2, k + 2):
        pairs = [(d, (x + d) % p) for d, x in pairs]
        hits = [dx for dx in pairs if dx[1] in members]
        if hits:
            image.append(r)
            if len(image) == k:
                return tuple(image)
            pairs = hits
            if len(hits) == 1:
                break
    best = None
    for d, x in pairs:
        e = (x - r * d) % p
        s = pow(d, -1, p)
        img = sorted((y - e) * s % p for y in elems)
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
