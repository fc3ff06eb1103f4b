"""Determinant certificates for the minimum-color lower bound.

Given a nontrivially colored diagram, augment the coloring matrix with a
unit row (variant A) or a difference row (variant B), merge columns that
share a color, and extract a square submatrix whose exact determinant is a
nonzero multiple of p bounded by 2^(colors-1).  Together these force
#colors >= log2(p) + 1.

The rank checks eliminate M once, over Z, and read its ranks over Z_p off
that echelon form (`exactalg.ranks_appending`).  The merged matrix stays
sparse rows, so a certificate with k + 1 colors costs time in proportion
to the nonzeros and k^2: only its k x k minor is ever dense.
"""

from __future__ import annotations

from typing import NamedTuple

from knotcol import exactalg
from knotcol.coloring import (
    NONTRIVIAL,
    DehnColoring,
    checkerboard_coloring,
    classify,
    coloring_matrix,
)
from knotcol.diagram import Diagram
from knotcol.exactalg import SparseMatrix

VARIANT_A = "A"  # unit extra row, colors refine the checkerboard shading
VARIANT_B = "B"  # difference row e_i - e_j across the shading


class TrivialColoringError(ValueError):
    pass


class CertificateError(RuntimeError):
    pass


class AugmentedMatrix(NamedTuple):
    variant: str
    base: SparseMatrix       # the n x (n+2) coloring matrix M
    extra_row: dict          # {column: nonzero}: e_0, or e_i - e_j
    coloring: DehnColoring   # variant A: shifted so region 0 has color 0

    def full(self) -> SparseMatrix:
        return SparseMatrix(self.base.rows + [self.extra_row], self.base.ncols)


class Certificate(NamedTuple):
    ell: int                 # number of colors
    row_indices: tuple
    col_indices: tuple
    det_value: int
    violations: tuple        # human-readable invariant violations, if any


def augmented_matrix(d: Diagram, c: DehnColoring) -> AugmentedMatrix:
    """M with the extra row of variant A or B for c, the one matrix that
    `rank_checks` and `extract_certificate` read; c must be nontrivial."""
    if classify(d, c) != NONTRIVIAL:
        raise TrivialColoringError("certificate requires nontrivial coloring")
    p = c.p
    shading = checkerboard_coloring(d, p).values
    base = coloring_matrix(d)
    # variant B applies when some color class crosses the shading; it takes
    # the least pair i < j of one color and two shades, and i is the first
    # region whose color's last region of the other shade comes after it
    classes = list(zip(c.values, shading))
    last = {key: i for i, key in enumerate(classes)}
    i = next((i for i, (v, s) in enumerate(classes) if last.get((v, 1 - s), -1) > i),
             None)
    if i is None:
        shifted = DehnColoring(p, tuple((v - c.values[0]) % p for v in c.values))
        return AugmentedMatrix(VARIANT_A, base, {0: 1}, shifted)
    v, s = classes[i]
    j = classes.index((v, 1 - s), i + 1)
    return AugmentedMatrix(VARIANT_B, base, {i: 1, j: -1}, c)


class RankCheck(NamedTuple):
    claim: str
    ok: bool
    detail: str


def rank_checks(aug: AugmentedMatrix) -> list:
    """Verify the rank statements for M, A_D(-1), and B on this instance."""
    p = aug.coloring.p
    m = aug.base
    n = len(m.rows)
    # A_D(-1) is M with the unit row e1 appended, and B is M with the
    # augmented matrix's extra row appended: one elimination of M over Z
    # ranks all three over both rings
    extra = SparseMatrix([{0: 1}, aug.extra_row], m.ncols)
    (rz, rza, rzb), (rp, rpa, rpb) = exactalg.ranks_appending(m, extra, p)
    report = [
        RankCheck("rank_Z M = n", rz == n, f"rank_Z M = {rz}, n = {n}"),
        RankCheck("rank_p M <= n-1", rp <= n - 1, f"rank_{p} M = {rp}, n-1 = {n - 1}"),
        RankCheck("rank_Z A = n+1", rza == n + 1, f"rank_Z A = {rza}, n+1 = {n + 1}"),
        RankCheck("rank_p A <= n", rpa <= n, f"rank_{p} A = {rpa}, n = {n}"),
    ]
    if aug.variant == VARIANT_B:
        report += [
            RankCheck("rank_Z B = n+1", rzb == n + 1, f"rank_Z B = {rzb}, n+1 = {n + 1}"),
            RankCheck("rank_p B <= n", rpb <= n, f"rank_{p} B = {rpb}, n = {n}"),
        ]
    return report


def merge_columns(m: AugmentedMatrix) -> SparseMatrix:
    """Sum together the columns of regions sharing a color, reading only the
    stored entries of the full matrix.

    Merged column j is the j-th smallest color used, so the merged matrix
    has one column per color; a sum that cancels is not stored.
    """
    values = m.coloring.values
    column = {color: j for j, color in enumerate(sorted(set(values)))}
    target = [column[v] for v in values]
    merged = []
    for row in m.full().rows:
        out = {}
        for j, e in row.items():
            t = target[j]
            out[t] = out.get(t, 0) + e
        if 0 in out.values():
            out = {j: e for j, e in out.items() if e}
        merged.append(out)
    return SparseMatrix(merged, len(column))


def extract_certificate(aug: AugmentedMatrix) -> Certificate:
    """The lex-first nonsingular (ell-1)-minor of the merged matrix: its
    columns are the first ell-1 pivot columns of one left-to-right
    elimination over Z, its rows the pivot columns of the block's
    transpose, since the first k greedy elements of a matroid are
    componentwise at most any independent k-set (Gale, 1968).  Both
    eliminations read sparse rows, and only the k x k minor is dense."""
    p = aug.coloring.p
    merged = merge_columns(aug)
    rows = merged.rows
    ell = merged.ncols
    k = ell - 1
    cols = tuple(sorted(exactalg._eliminate(merged)))[:k]
    if len(cols) < k:
        raise CertificateError(
            "certificate extraction failed: no nonsingular submatrix found"
        )
    # the transposed block: its row t holds the entries of column cols[t]
    place = dict(zip(cols, range(k)))
    block = [{} for _ in cols]
    for i, row in enumerate(rows):
        for j, e in row.items():
            if j in place:
                block[place[j]][i] = e
    rsel = tuple(sorted(exactalg._eliminate_rows(block)))
    sub = [[rows[r].get(cc, 0) for cc in cols] for r in rsel]
    det = exactalg.det_int(sub)
    violations = []
    if det % p != 0:
        violations.append(f"det {det} not divisible by p={p}")
    if not (p <= abs(det) <= 2 ** k):
        violations.append(
            f"|det| = {abs(det)} outside [{p}, 2^{k} = {2 ** k}]"
        )
    if not all(check_star(sub)):
        violations.append("a selected row violates the multiset condition")
    return Certificate(ell, rsel, cols, det, tuple(violations))


# admissible nonzero-entry multisets; rows drawn from these keep the
# determinant of an order-k matrix within 2**k in absolute value
STAR_MULTISETS = frozenset({
    (-2,), (-1,), (1,), (2,),
    (-2, 1), (-2, 2), (-1, -1), (-1, 1), (-1, 2), (1, 1),
    (-2, 1, 1), (-1, -1, 1), (-1, -1, 2), (-1, 1, 1),
    (-1, -1, 1, 1),
})


def check_star(m) -> list:
    """Per-row test: nonzero entries form one of the admissible multisets.

    A zero row passes vacuously (its determinant contribution is 0).
    """
    result = []
    for row in m:
        nonzero = tuple(sorted(e for e in row if e))
        result.append(nonzero == () or nonzero in STAR_MULTISETS)
    return result

