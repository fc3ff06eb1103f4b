import random
import re

import pytest
from conftest import (
    pretzel_pd,
    reference_build_diagram,
    reference_checkerboard,
    reference_validate_pd,
    seeded_pretzels,
    semiarcs,
    torus_pd,
)

from knotcol import diagram
from knotcol.certificates import augmented_matrix, extract_certificate, rank_checks
from knotcol.coloring import (
    NONTRIVIAL,
    classify,
    colorings,
    fox_colorings_count,
    knot_determinant,
    min_colors_diagram,
)
from knotcol.diagram import (
    CATALOG,
    CATALOG_DETERMINANTS,
    PDCode,
    PDError,
    build_diagram,
    catalog_diagram,
    checkerboard,
    components,
    parse_pd,
    validate_pd,
)

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
FIG8_JSON = "[[4,2,5,1],[8,6,1,5],[6,3,7,4],[2,7,3,8]]"
KINK = "X[1,2,2,1]"


def test_parse_pd_text():
    pd = parse_pd(TREFOIL)
    assert pd.n == 3
    assert semiarcs(pd) == [1, 2, 3, 4, 5, 6]


def test_parse_pd_json():
    pd = parse_pd(FIG8_JSON)
    assert pd.n == 4


def test_parse_pd_rejects_arity():
    with pytest.raises(PDError):
        parse_pd("X[1,2,3]")


def test_parse_pd_rejects_bad_labels():
    # JSON true and false are Python bools, an int subclass equal to 1 and 0;
    # with 1 in place of true the first JSON code is the trefoil
    for text in ("X[1,2,3,4] X[1,2,3,5]",
                 "[[true,4,2,5],[3,6,4,1],[5,2,6,3]]",
                 "[[false,4,2,5],[3,6,4,false],[5,2,6,3]]",
                 "X[a,1,2,3]", "X[1,,2,3]", "X[1,2,3,4,]"):
        with pytest.raises(PDError):
            parse_pd(text)


def test_parse_pd_names_a_non_integer_text_label():
    with pytest.raises(PDError, match=r"non-integer semiarc label in X\[1,,2,3\]"):
        parse_pd("X[1,2,3,4] X[1,,2,3]")


@pytest.mark.parametrize("text,message", [
    ("X[1,2,3]", "crossing [1, 2, 3] does not have 4 semiarc labels"),
    ("X[1,4,2,5] X[3,6,4,1,7]", "crossing [3, 6, 4, 1, 7] does not have 4 semiarc labels"),
    ("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]; X[1, 2]",
     "crossing [1, 2] does not have 4 semiarc labels"),
    ("X[a,1,2,3]", "non-integer semiarc label in X[a,1,2,3]"),
    ("X[1,2,3,4,]", "non-integer semiarc label in X[1,2,3,4,]"),
    ("X[X[1,2,3,4]", "non-integer semiarc label in X[X[1,2,3,4]"),
    # the first group that is not 4 integers is the one named
    ("X[1,2] X[a,b,c,d]", "crossing [1, 2] does not have 4 semiarc labels"),
    ("X[a,b,c,d] X[1,2]", "non-integer semiarc label in X[a,b,c,d]"),
    ("X[1,4,2,5] junk", "cannot parse PD text"),
    (" ,; ", "cannot parse PD text"),
])
def test_parse_pd_text_refusals(text, message):
    with pytest.raises(PDError, match="^" + re.escape(message) + "$"):
        parse_pd(text)


def test_parse_pd_rejects_no_crossings():
    with pytest.raises(PDError, match="^PD code has no crossings$"):
        parse_pd("[]")


def test_parse_pd_rejects_links():
    # Hopf link: two components
    with pytest.raises(PDError):
        parse_pd("X[1,3,2,4] X[3,1,4,2]")


def test_region_counts():
    # the region count against the faces the reference walks
    for text, count in ((TREFOIL, 5), (FIG8_JSON, 6), (KINK, 3)):
        pd = parse_pd(text)
        assert build_diagram(pd).nregions == len(reference_build_diagram(pd).regions) == count


def test_arc_counts():
    for text, count in ((TREFOIL, 3), (FIG8_JSON, 4), (KINK, 1)):
        assert len(set(build_diagram(parse_pd(text)).arc_of_semiarc.values())) == count


def test_arcs_ordered_by_root_label():
    # over 4-5, 6-1 and 2-3: each pair joins into its second label, and arcs
    # are sorted by that root; output such as `fox` lists arcs in this order
    arc = build_diagram(parse_pd(TREFOIL)).arc_of_semiarc
    assert arc == {1: 0, 6: 0, 2: 1, 3: 1, 4: 2, 5: 2}


def test_components_join_direction():
    # each pair points the root of a at the root of b; the arc numbering,
    # and with it the order of `fox` output, rests on these roots
    assert components("ab", [("a", "b")]) == {"a": "b", "b": "b"}
    assert components("abcd", [("a", "b"), ("c", "d"), ("b", "d")]) == dict.fromkeys("abcd", "d")
    assert components("xyz", []) == {"x": "x", "y": "y", "z": "z"}
    # chains, joined each way
    assert components(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)]) == dict.fromkeys(range(5), 4)
    assert components(range(5), [(4, 3), (3, 2), (2, 1), (1, 0)]) == dict.fromkeys(range(5), 0)
    # a star joined from its center: the center's root moves on to each leaf
    assert components(range(4), [(0, 1), (0, 2), (0, 3)]) == dict.fromkeys(range(4), 3)
    # and joined into its center
    assert components(range(4), [(1, 0), (2, 0), (3, 0)]) == dict.fromkeys(range(4), 0)
    assert components(range(6), [(0, 1), (2, 3), (1, 3), (4, 5)]) == \
        {0: 3, 1: 3, 2: 3, 3: 3, 4: 5, 5: 5}


def test_components_match_reachability():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        root = components(range(n), pairs)
        for v in range(n):
            seen, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for a, b in pairs:
                    for x, y in ((a, b), (b, a)):
                        if x == u and y not in seen:
                            seen.add(y)
                            stack.append(y)
            assert {w for w in range(n) if root[w] == root[v]} == seen
            assert root[root[v]] == root[v]


def test_semiarcs_border_two_regions():
    for text in (TREFOIL, FIG8_JSON, KINK):
        d = build_diagram(parse_pd(text))
        faces = reference_build_diagram(d.pd).regions
        region_of_dart = {dart: ri for ri, face in enumerate(faces) for dart in face}
        for s in semiarcs(d.pd):
            assert len(d.semiarc_regions(s)) == 2
            darts = sorted(dart for dart in region_of_dart
                           if d.pd.crossings[dart[0]][dart[1]] == s)
            assert d.semiarc_regions(s) == tuple(region_of_dart[x] for x in darts)


def test_semiarc_regions_rejects_unknown_label():
    d = build_diagram(parse_pd(TREFOIL))
    with pytest.raises(KeyError, match="999"):
        d.semiarc_regions(999)


def test_relations_match_semiarc_regions():
    # x1, x2 flank the under semiarc at position 0 and x3, x4 the one at
    # position 2; x1, x3 flank the over semiarc at position 1 and x2, x4 the
    # one at position 3.  Swapping any two slots of a relation breaks one of
    # the four
    pds = [parse_pd(text) for text in CATALOG.values()]
    pds += [parse_pd(KINK), PDCode(((1, 1, 2, 2),))]
    pds += [parse_pd(pretzel_pd(t)) for t in seeded_pretzels(23, 6)]
    for pd in pds:
        d = build_diagram(pd)
        assert len(d.relations) == d.n
        for (x1, x2, x3, x4), quad in zip(d.relations, pd.crossings):
            a0, a1, a2, a3 = (set(d.semiarc_regions(a)) for a in quad)
            assert ({x1, x2}, {x3, x4}, {x1, x3}, {x2, x4}) == (a0, a2, a1, a3), pd


def test_checkerboard_proper():
    for text in (TREFOIL, FIG8_JSON, KINK):
        d = build_diagram(parse_pd(text))
        shading = checkerboard(d)
        assert shading[0] == 0
        for s in semiarcs(d.pd):
            r1, r2 = d.semiarc_regions(s)
            assert shading[r1] != shading[r2]


def test_checkerboard_matches_reference():
    # the classes of opposite corners against a search over the regions
    # that share a semiarc
    texts = [*CATALOG.values(), KINK]
    texts += [torus_pd(n) for n in range(3, 102, 2)]
    texts += [pretzel_pd(t) for t in seeded_pretzels(5, 20)]
    for text in texts:
        d = build_diagram(parse_pd(text))
        assert checkerboard(d) == reference_checkerboard(d), text


def test_checkerboard_refusals():
    d = build_diagram(parse_pd(TREFOIL))
    with pytest.raises(PDError, match="disconnected region adjacency"):
        checkerboard(d._replace(relations=()))
    shading = checkerboard(d)
    r, s = [i for i, x in enumerate(shading) if x == shading[0]][:2]
    bad = d._replace(relations=d.relations + ((r, r, s, s),))
    with pytest.raises(PDError, match="not checkerboard-colorable"):
        checkerboard(bad)


def test_catalog_regions_and_names():
    for name in CATALOG:
        d = catalog_diagram(name)
        assert len(reference_build_diagram(d.pd).regions) == d.n + 2
        assert len(semiarcs(d.pd)) == 2 * d.n


def test_catalog_determinants():
    # catalog validation happens in test_coloring via knot_determinant;
    # here just pin the expected classical values
    assert [CATALOG_DETERMINANTS[k] for k in
            ("3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_1", "7_4")] \
        == [3, 5, 5, 7, 9, 11, 13, 7, 15]


def test_unknown_catalog_name():
    with pytest.raises(KeyError):
        catalog_diagram("8_19")


def _relabeled(pd, rng):
    """The same knot with its crossings shuffled and its labels sent to
    distinct integers of either sign, so labels no longer follow the
    crossing order."""
    labels = semiarcs(pd)
    new = dict(zip(labels, rng.sample(range(-10 * len(labels), 10 * len(labels)), len(labels))))
    quads = [tuple(new[a] for a in q) for q in pd.crossings]
    rng.shuffle(quads)
    return PDCode(tuple(quads))


# every public view of a Diagram but the semiarc regions, a method
VIEWS = ("pd", "n", "relations", "arc_of_semiarc")


def _assert_matches_reference(pd):
    ours, theirs = build_diagram(pd), reference_build_diagram(pd)
    for view in VIEWS:
        assert getattr(ours, view) == getattr(theirs, view), (view, pd)
    assert ours.nregions == len(theirs.regions), pd
    for a in semiarcs(pd):
        assert ours.semiarc_regions(a) == theirs.semiarc_regions(a), (a, pd)


def test_queries_on_relations_build_no_other_view(monkeypatch):
    # det, color-count, mincol and certify read the relations, the region
    # count and the shading, which the diagram builds once, on first read,
    # and keeps; fox builds the arc index on first read and keeps it
    runs = []

    def counted(items, pairs):
        runs.append(items)
        return components(items, pairs)
    monkeypatch.setattr(diagram, "components", counted)
    d = build_diagram(parse_pd(torus_pd(51)))
    assert knot_determinant(d) == 51
    space = colorings(d, 3)
    assert min_colors_diagram(d, 3).min_colors == 3
    c = next(c for c in space.enumerated if classify(d, c) == NONTRIVIAL)
    aug = augmented_matrix(d, c)
    assert all(r.ok for r in rank_checks(aug))
    assert not extract_certificate(aug).violations
    assert set(vars(d)) == {"_shading"} and len(runs) == 1
    assert fox_colorings_count(d, 3) == 9
    arc = vars(d)["arc_of_semiarc"]
    assert d.arc_of_semiarc is arc and len(set(arc.values())) == 51


def test_build_diagram_matches_reference():
    pds = [parse_pd(text) for text in CATALOG.values()]
    pds += [parse_pd(KINK), PDCode(((1, 1, 2, 2),))]
    pds += [parse_pd(torus_pd(n)) for n in range(3, 202, 2)]
    pds += [parse_pd(pretzel_pd(t)) for t in seeded_pretzels(11, 40)]
    rng = random.Random(12)
    pds += [_relabeled(pd, rng) for pd in pds[:] for _ in range(2)]
    for pd in pds:
        _assert_matches_reference(pd)
        assert validate_pd(pd) == reference_validate_pd(pd)


def _unvalidated(text):
    return PDCode(tuple(tuple(map(int, g.split(",")))
                        for g in re.findall(r"\[([^\]]*)\]", text)))


def test_pd_errors_match_reference():
    texts = ["X[1,3,2,4] X[3,1,4,2]",  # Hopf link
             "X[1,2,3,4] X[1,3,2,4]",  # one component, two faces: not planar
             "X[1,2,3,4] X[1,2,3,5]",  # 4 and 5 appear once
             "X[1,2,1,2]",
             "X[1,1,1,1]",
             f"{CATALOG['3_1']} X[7,8,7,8]"]
    texts += [torus_pd(n) for n in (2, 4, 6)]  # 2, 4 and 6 components
    for text in texts:
        pd = _unvalidated(text)
        with pytest.raises(PDError) as ours:
            build_diagram(parse_pd(text))
        with pytest.raises(PDError) as theirs:
            reference_build_diagram(reference_validate_pd(pd))
        assert str(ours.value) == str(theirs.value), text
    # a code with no crossings is refused by name, not as a 0-component link
    for validate in (validate_pd, reference_validate_pd):
        with pytest.raises(PDError, match="^PD code has no crossings$"):
            validate(PDCode(()))
    for pd in (PDCode(()), PDCode(((1, 2, 3),))):
        with pytest.raises(PDError) as ours:
            validate_pd(pd)
        with pytest.raises(PDError) as theirs:
            reference_validate_pd(pd)
        assert str(ours.value) == str(theirs.value)
    # validation refuses a link, but its diagram builds
    hopf = _unvalidated(texts[0])
    _assert_matches_reference(hopf)
