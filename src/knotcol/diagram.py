"""PD codes and the combinatorial structure of knot diagrams.

A PD code lists one quadruple of semiarc labels per crossing, given
counterclockwise starting at the incoming under-strand; positions 0 and 2
carry the under-strand, positions 1 and 3 the over-strand.  From the code
we recover the regions (faces of the 4-valent plane graph) at the corners
of each crossing relation, the over-arcs and the checkerboard shading.

A dart is one of the two slot occurrences of a semiarc, written
(crossing index, position), and numbered 4 * crossing + position inside
this module, where the per-dart data are flat lists.  The darts are
paired once per PD code, on first read, for the parser and the builder
both.  Faces are the orbits of "cross the semiarc, then rotate one
position counterclockwise", which for a planar code yields exactly n + 2
faces.

A `Diagram` is its PD code, the regions of each crossing relation and,
built on first read and kept, the arc of each semiarc and the checkerboard
shading.  Every dart lies in one corner of a relation, so the regions
beside a semiarc, and the Fox colors a Dehn coloring gives, are read off
the relations.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property


class PDError(ValueError):
    pass


@dataclass(frozen=True)
class PDCode:
    crossings: tuple  # tuple of 4-tuples of semiarc labels

    @property
    def n(self) -> int:
        return len(self.crossings)

    @cached_property
    def _darts(self):
        """The label of each dart, the other dart of its semiarc, and each
        label's first dart, the lists indexed by dart id, computed on first
        read.  Raises PDError unless the 4n darts carry 2n labels, each
        exactly twice."""
        labels = [a for q in self.crossings for a in q]
        m = len(labels)
        first = {}
        other = [-1] * m
        for d, a in enumerate(labels):
            f = first.setdefault(a, d)
            if f != d:
                other[f] = d
                other[d] = f
        # with 2n labels on 4n darts and none seen once, none is seen 3 times
        if 2 * len(first) != m or m != 4 * self.n or -1 in other:
            counts = {}
            for a in labels:
                counts[a] = counts.get(a, 0) + 1
            bad = [a for a, c in counts.items() if c != 2]
            if bad:
                raise PDError(
                    f"invalid PD code: labels {sorted(bad)} do not appear exactly twice")
            raise PDError(
                f"invalid PD code: {len(counts)} semiarc labels for {self.n} crossings"
            )
        return labels, other, first


def parse_pd(text: str) -> PDCode:
    """Parse `X[a,b,c,d] ...` or a JSON array of 4-element arrays."""
    text = text.strip()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise PDError(f"cannot parse PD JSON: {e}") from e
        if not isinstance(data, list) or not all(isinstance(q, list) for q in data):
            raise PDError("PD JSON must be an array of 4-element arrays")
        for q in data:
            if len(q) != 4:
                raise PDError(f"crossing {q} does not have 4 semiarc labels")
            if not all(type(x) is int for x in q):  # bool is an int subclass
                raise PDError(f"non-integer semiarc label in {q}")
        quads = tuple(map(tuple, data))
    else:
        # the text between the groups, then the 4 labels of each group
        parts = re.split(_PD_QUAD, text)
        try:
            if len(parts) == 1 or not re.fullmatch(r"[\s,;]*", "".join(parts[::5])):
                raise ValueError
            del parts[::5]
            labels = list(map(int, parts))
        except ValueError:
            raise _pd_text_refusal(text) from None
        quads = tuple(zip(*[iter(labels)] * 4))
    return validate_pd(PDCode(quads))


# one X[a,b,c,d] group, its four labels captured; `re` compiles it on
# first use, so importing the module compiles nothing
_PD_QUAD = r"X\s*\[([^\],]*),([^\],]*),([^\],]*),([^\],]*)\]"


def _pd_text_refusal(text: str) -> PDError:
    """Why `parse_pd` cannot read text as X[a,b,c,d] groups of integers:
    the first group that is not 4 integers, or else the text as a whole."""
    found = re.findall(r"X\s*\[([^\]]*)\]", text)
    if found and not re.sub(r"X\s*\[[^\]]*\]|[\s,;]", "", text):
        for grp in found:
            try:
                q = list(map(int, grp.split(",")))
            except ValueError:
                return PDError(f"non-integer semiarc label in X[{grp}]")
            if len(q) != 4:
                return PDError(f"crossing {q} does not have 4 semiarc labels")
    return PDError("cannot parse PD text")


def _cycles(succ):
    """The number of cycles of the permutation succ of range(len(succ)),
    and the index of the cycle of each element, cycles numbered in
    increasing order of their least element."""
    cycle_of = [-1] * len(succ)
    k = 0
    for start in range(len(succ)):
        if cycle_of[start] < 0:
            d = start
            while cycle_of[d] < 0:
                cycle_of[d] = k
                d = succ[d]
            k += 1
    return k, cycle_of


def validate_pd(pd: PDCode) -> PDCode:
    if not pd.crossings:
        raise PDError("PD code has no crossings")
    other = pd._darts[1]
    # the strand entering at dart d leaves at d ^ 2 (0-2 under, 1-3 over)
    # and enters the next crossing at other[d ^ 2]; each component is two
    # cycles of that map, one per direction, as long as its passages through
    # crossings, so the cycle of dart 0 has all 2n passages only on a knot
    steps, d = 1, other[2]
    while d:
        steps, d = steps + 1, other[d ^ 2]
    if steps != 2 * pd.n:
        count = _cycles([other[d ^ 2] for d in range(len(other))])[0] // 2
        raise PDError(
            f"PD code describes a link with {count} components; only knots are supported"
        )
    return pd


def components(items, pairs) -> dict:
    """Union-find: {item: root of its class}.

    Each pair (a, b) is joined in the given order by pointing the root of
    a at the root of b, so the roots, and any order built on them, are
    fixed by the order of the pairs.  Finds halve the path, inline; a last
    walk points every item straight at its root, in the same dict.
    """
    parent = {a: a for a in items}
    # x = parent[x] = ... would assign x first; parent[x] = x = ... assigns
    # parent[x], then x, which halves the path
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    for a in parent:
        r = a
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        parent[a] = r
    return parent


@dataclass(frozen=True)
class Diagram:
    """A knot diagram: its PD code and the regions of each crossing
    relation; the arc of each semiarc and the checkerboard shading are
    built on first read and kept."""
    pd: PDCode
    relations: tuple     # per crossing: regions (x1, x2, x3, x4), x1+x3 = x2+x4

    @property
    def n(self) -> int:
        return self.pd.n

    @property
    def nregions(self) -> int:
        """The region count n + 2, which `build_diagram` checks."""
        return self.pd.n + 2

    @cached_property
    def arc_of_semiarc(self) -> dict:
        """Semiarc label -> arc index.  The semiarcs at positions 1 and 3
        of a crossing belong to one over-arc; arcs go in increasing order
        of their union-find root.  A knot diagram has one arc per crossing,
        the arc ending there as its under-strand."""
        root = components(self.pd._darts[2], ((q[1], q[3]) for q in self.pd.crossings))
        index = {r: i for i, r in enumerate(sorted(set(root.values())))}
        return dict(zip(root, map(index.__getitem__, root.values())))

    @cached_property
    def _shading(self) -> tuple:
        """The shading that `checkerboard` returns, built on first read."""
        root = components(range(self.nregions), (
            pair for x1, x2, x3, x4 in self.relations for pair in ((x1, x4), (x2, x3))))
        if len(set(root.values())) != 2:
            raise PDError("disconnected region adjacency; corrupt input")
        if any(root[x1] == root[x2] for x1, x2, _, _ in self.relations):
            raise PDError("diagram not checkerboard-colorable; corrupt input")
        return tuple(int(root[r] != root[0]) for r in range(self.nregions))

    def semiarc_regions(self, semiarc: int):
        """The regions of the two darts of a semiarc, in dart order; KeyError
        for a label that is not in the code.  Dart (c, k) lies in relation
        slot (1, 0, 2, 3)[k] of crossing c (see build_diagram)."""
        _, other, first = self.pd._darts
        d = first[semiarc]
        return tuple(self.relations[e >> 2][(1, 0, 2, 3)[e & 3]] for e in (d, other[d]))


def build_diagram(pd: PDCode) -> Diagram:
    n = pd.n
    labels, other, _ = pd._darts
    # the face orbit step: the other dart, rotated one position
    nfaces, face_of = _cycles([o - (o & 3) + ((o + 1) & 3) for o in other])
    if nfaces != n + 2:
        raise PDError(
            f"non-planar or corrupt PD code: {nfaces} faces, expected {n + 2}"
        )

    # regions in increasing order of their least (label, side) over their
    # darts, side 0 at the label's first dart: a stable sort of the darts
    # by label puts them in (label, side) order, and each face is placed
    # where its first dart comes
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    order = dict.fromkeys(map(face_of.__getitem__, by_label))
    rank = dict(zip(order, range(len(order))))
    region = list(map(rank.__getitem__, face_of))

    # the face orbit reaching dart (c, p+1) turns through the corner between
    # positions p and p+1, so that corner lies in its face: the corners q01,
    # q12, q23 and q30 of crossing c are the regions of darts 4c + 1, 4c + 2,
    # 4c + 3 and 4c.  q30 and q01 flank the incoming under semiarc; q01/q12
    # lie on one side of the under-strand and q23/q30 on the other.  The
    # relation regions (x1, x2, x3, x4) of crossing c are (q01, q30, q12, q23)
    relations = tuple(zip(region[1::4], region[0::4], region[2::4], region[3::4]))
    return Diagram(pd, relations)


def checkerboard(d: Diagram) -> tuple:
    """Proper 2-shading of the regions, region index -> 0 or 1, with region
    0 shaded 0: the Tait graphs' vertex sets, classes of the opposite corners
    x1 ~ x4, x2 ~ x3, so x1 !~ x2 checks all four adjacent corner pairs.
    The diagram keeps the shading on first read, so the coloring solve and
    the certificate of one diagram shade it once."""
    return d._shading


# Small-knot PD codes from standard tables.  The tests check each entry:
# test_catalog_regions_and_names its region count, and
# test_catalog_determinants with test_knot_determinants_catalog its
# classical determinant.
CATALOG = {
    "3_1": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",
    "4_1": "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]",
    "5_1": "X[1,6,2,7] X[3,8,4,9] X[5,10,6,1] X[7,2,8,3] X[9,4,10,5]",
    "5_2": "X[1,4,2,5] X[3,8,4,9] X[5,10,6,1] X[9,6,10,7] X[7,2,8,3]",
    "6_1": "X[1,4,2,5] X[7,10,8,11] X[3,9,4,8] X[9,3,10,2] X[5,12,6,1] X[11,6,12,7]",
    "6_2": "X[1,4,2,5] X[5,10,6,11] X[3,9,4,8] X[9,3,10,2] X[7,12,8,1] X[11,6,12,7]",
    "6_3": "X[4,2,5,1] X[8,4,9,3] X[12,9,1,10] X[10,5,11,6] X[6,11,7,12] X[2,8,3,7]",
    "7_1": ("X[1,8,2,9] X[3,10,4,11] X[5,12,6,13] X[7,14,8,1] "
            "X[9,2,10,3] X[11,4,12,5] X[13,6,14,7]"),
    # 7_4 written as the pretzel P(3,1,3)
    "7_4": ("X[14,9,1,10] X[8,1,9,2] X[2,7,3,8] X[10,3,11,4] "
            "X[4,13,5,14] X[12,5,13,6] X[6,11,7,12]"),
}

# classical determinants, used to validate the catalog
CATALOG_DETERMINANTS = {
    "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7, "6_1": 9,
    "6_2": 11, "6_3": 13, "7_1": 7, "7_4": 15,
}


def catalog_diagram(name: str) -> Diagram:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog knot {name!r}; available: {sorted(CATALOG)}")
    return build_diagram(parse_pd(CATALOG[name]))
