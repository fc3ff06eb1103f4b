"""PD codes and the combinatorial structure of knot diagrams.

A PD code lists one quadruple of semiarc labels per crossing, given
counterclockwise starting at the incoming under-strand; positions 0 and 2
carry the under-strand, positions 1 and 3 the over-strand.  From the code
we recover the regions (faces of the 4-valent plane graph) at the corners
of each crossing relation, the over-arcs and the checkerboard shading.

A dart is one of the two slot occurrences of a semiarc, written
(crossing index, position), and numbered 4 * crossing + position inside
this module, where the per-dart data are flat lists.  The darts are
sorted by label once per PD code, on first read: consecutive darts of
that order are the pairs, and the builder numbers the regions in it.
Faces are the orbits of "cross the semiarc, then rotate one position
counterclockwise", which for a planar code yields exactly n + 2 faces.

`parse_pd` reads the syntax only; `build_diagram` is the one gate that
decides what a diagram is.  It numbers the faces, then takes one walk
along the knot from dart 0, which counts the passages and shades the
regions.  It refuses a code with no crossings, labels that do not pair up,
a link, whose walk from dart 0 misses some passage, and a code that is not
planar, in that order.

A `Diagram` is its PD code, the regions of each crossing relation and the
checkerboard shading that the walk gives; the arc of each semiarc is built
on first read and kept.  Every dart lies in one corner of a relation, so
the regions beside a semiarc, and the Fox colors a Dehn coloring gives,
are read off the relations.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from typing import NamedTuple


class PDError(ValueError):
    pass


class _PDCodeFields(NamedTuple):
    crossings: tuple  # tuple of 4-tuples of semiarc labels


# PDCode and Diagram leave out __slots__: the instance dict holds their
# cached views, and the fields stay read-only in the tuple
class PDCode(_PDCodeFields):
    @property
    def n(self) -> int:
        return len(self.crossings)

    @cached_property
    def _darts(self):
        """The other dart of each dart's semiarc, a list indexed by dart id;
        each label's first dart; and the darts in a stable sort by label;
        computed on first read.  Raises PDError unless the 4n darts carry
        2n labels, each exactly twice.

        The one sort pairs the darts: when each label appears twice, places
        2i and 2i + 1 of the sorted darts carry one label, the label's first
        dart at 2i, and the labels at the even places are distinct."""
        labels = [a for q in self.crossings for a in q]
        m = len(labels)
        by_label = sorted(range(m), key=labels.__getitem__)
        sorted_labels = list(map(labels.__getitem__, by_label))
        firsts, seconds = by_label[0::2], by_label[1::2]
        first = dict(zip(sorted_labels[0::2], firsts))
        if (m != 4 * self.n or sorted_labels[0::2] != sorted_labels[1::2]
                or 2 * len(first) != m):
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
        other = [0] * m
        for a, b in zip(firsts, seconds):
            other[a] = b
            other[b] = a
        return other, first, by_label


def parse_pd(text: str) -> PDCode:
    """Parse `X[a,b,c,d] ...` or a JSON array of 4-element arrays.  Only
    the syntax is checked; `build_diagram` decides whether the code is a
    knot diagram."""
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
    return PDCode(quads)


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


def _cycles(succ, starts):
    """The number of cycles of the permutation succ of range(len(succ)),
    and the index of the cycle of each element, cycles numbered in the
    order in which starts, a sequence of all the elements, first meets
    them."""
    cycle_of = [-1] * len(succ)
    k = 0
    for start in starts:
        if cycle_of[start] < 0:
            d = start
            while cycle_of[d] < 0:
                cycle_of[d] = k
                d = succ[d]
            k += 1
    return k, cycle_of


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


# indexed by a position k, the relation slot (x1, x2, x3, x4) of the corner
# between positions k - 1 and k of a crossing (see build_diagram)
_CORNER_BEFORE = (1, 0, 2, 3)


class _DiagramFields(NamedTuple):
    pd: PDCode
    relations: tuple     # per crossing: regions (x1, x2, x3, x4), x1+x3 = x2+x4
    shading: tuple       # per region: 0 or 1, unequal across a semiarc, region 0 is 0


class Diagram(_DiagramFields):
    """A knot diagram: its PD code, the regions of each crossing relation
    and the checkerboard shading, which `build_diagram` reads off its walk
    along the knot; the arc of each semiarc is built on first read and
    kept."""

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
        root = components(self.pd._darts[1], ((q[1], q[3]) for q in self.pd.crossings))
        index = {r: i for i, r in enumerate(sorted(set(root.values())))}
        return dict(zip(root, map(index.__getitem__, root.values())))

    def semiarc_regions(self, semiarc: int):
        """The regions of the two darts of a semiarc, in dart order; KeyError
        for a label that is not in the code.  Dart (c, k) lies in the corner
        between positions k - 1 and k of crossing c."""
        other, first, _ = self.pd._darts
        d = first[semiarc]
        return tuple(self.relations[e >> 2][_CORNER_BEFORE[e & 3]] for e in (d, other[d]))


def build_diagram(pd: PDCode) -> Diagram:
    """The diagram of a knot's PD code; PDError unless the code has
    crossings, its labels pair up, it has one component and it is planar,
    checked in that order.

    The faces are numbered first; then one walk along the knot from dart 0
    counts the passages and shades the regions.  A passage that enters at
    dart d, position k, has the corner between k and k + 1, the region of
    dart turn[d], on one side of its semiarc and the corner between k - 1
    and k, the region of d, on the other.  Across the strand through k + 1,
    the corner between k + 1 and k + 2 borders the leaving semiarc, so it
    lies in the region of the next passage's first corner: the first
    corners alternate shade along the walk, and the second corners take the
    other shade.  The walk enters every semiarc once, and every region
    borders some semiarc, so every region is shaded.

    No check of the shading follows.  A walk through all 2n passages meets
    every crossing, so the graph is connected, and with n vertices, 2n
    edges and n + 2 faces its Euler characteristic is 2: it is a plane
    graph.  The faces of a plane graph whose degrees are all even have
    exactly two proper 2-colorings, and every shade the walk gives after
    its first is the opposite of one it gave across a strand, so it
    follows one of them.  Region 0 is shaded 0.
    """
    n = pd.n
    if not n:
        raise PDError("PD code has no crossings")
    other, _, by_label = pd._darts
    # the face orbit step: the other dart, rotated one position by turn,
    # which sends 4c + k to 4c + (k + 1) % 4
    turn = list(range(1, 4 * n + 1))
    turn[3::4] = range(0, 4 * n, 4)
    # regions in increasing order of their least (label, side) over their
    # darts, side 0 at the label's first dart: the darts' stable sort by
    # label puts them in (label, side) order, so the faces are numbered in
    # the order in which it meets them
    nfaces, region = _cycles(list(map(turn.__getitem__, other)), by_label)
    # the strand entering at dart d leaves at d ^ 2 (0-2 under, 1-3 over)
    # and enters the next crossing at other[d ^ 2]; each component is two
    # cycles of that map, one per direction, as long as its passages through
    # crossings, so the cycle of dart 0 has all 2n passages only on a knot
    shade = [0] * nfaces
    steps, d = 0, 0
    while True:
        s = steps & 1
        shade[region[turn[d]]] = s
        shade[region[d]] = s ^ 1
        steps += 1
        d = other[d ^ 2]
        if not d:
            break
    if steps != 2 * n:
        darts = range(4 * n)
        count = _cycles([other[d ^ 2] for d in darts], darts)[0] // 2
        raise PDError(
            f"PD code describes a link with {count} components; only knots are supported"
        )
    if nfaces != n + 2:
        raise PDError(
            f"non-planar or corrupt PD code: {nfaces} faces, expected {n + 2}"
        )

    # the face orbit reaching dart (c, p+1) turns through the corner between
    # positions p and p+1, so that corner lies in its face: the corners q01,
    # q12, q23 and q30 of crossing c are the regions of darts 4c + 1, 4c + 2,
    # 4c + 3 and 4c.  q30 and q01 flank the incoming under semiarc; q01/q12
    # lie on one side of the under-strand and q23/q30 on the other.  The
    # relation regions (x1, x2, x3, x4) of crossing c are (q01, q30, q12, q23)
    relations = tuple(zip(region[1::4], region[0::4], region[2::4], region[3::4]))
    return Diagram(pd, relations, tuple(map(shade[0].__xor__, shade)))


def checkerboard(d: Diagram) -> tuple:
    """Proper 2-shading of the regions, region index -> 0 or 1, with region
    0 shaded 0: the Tait graphs' vertex sets.  `build_diagram` reads it off
    the walk with which it refuses links, and the diagram keeps it as its
    field `shading`."""
    return d.shading


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
