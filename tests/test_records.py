"""The contract of the library's twelve records: their fields in order,
read-only, compared and hashed by value, and the cached views of PDCode
and Diagram built once."""

import pytest

from knotcol.certificates import (
    AugmentedMatrix,
    Certificate,
    RankCheck,
    augmented_matrix,
    extract_certificate,
    rank_checks,
)
from knotcol.coloring import (
    ColoringSpace,
    DehnColoring,
    MinColorsResult,
    coloring_matrix,
    colorings,
    min_colors_diagram,
)
from knotcol.colorsets import (
    CandidateReport,
    CanonicalSet,
    canonical_affine,
    theorem62_report,
)
from knotcol.diagram import CATALOG, Diagram, PDCode, build_diagram, parse_pd
from knotcol.exactalg import SparseMatrix
from knotcol.palette import PaletteGraph, palette_graph


def trefoil():
    return build_diagram(parse_pd(CATALOG["3_1"]))


def trefoil_augmented():
    d = trefoil()
    return augmented_matrix(d, min_colors_diagram(d, 3).witness)


# record, its fields in order, a builder of a fresh instance, and the
# cached views it keeps
RECORDS = [
    (SparseMatrix, ("rows", "ncols"), lambda: coloring_matrix(trefoil()), ()),
    (PDCode, ("crossings",), lambda: parse_pd(CATALOG["3_1"]), ("_darts",)),
    (Diagram, ("pd", "relations", "shading"), trefoil, ("arc_of_semiarc",)),
    (DehnColoring, ("p", "values"), lambda: DehnColoring(3, (0, 1, 2, 0, 1)), ()),
    (ColoringSpace, ("p", "basis", "dimension", "count", "enumerated"),
     lambda: colorings(trefoil(), 3), ()),
    (MinColorsResult, ("min_colors", "witness", "lower_bound"),
     lambda: min_colors_diagram(trefoil(), 3), ()),
    (PaletteGraph, ("p", "vertices", "edges"), lambda: palette_graph({0, 1, 3}, 7), ()),
    (CanonicalSet, ("p", "elements"), lambda: canonical_affine({0, 1, 3}, 7), ()),
    (CandidateReport, ("p", "empty_sizes_ok", "critical_size", "found",
                       "matches_expected"), lambda: theorem62_report(3), ()),
    (AugmentedMatrix, ("variant", "base", "extra_row", "coloring"), trefoil_augmented, ()),
    (Certificate, ("ell", "row_indices", "col_indices", "det_value", "violations"),
     lambda: extract_certificate(trefoil_augmented()), ()),
    (RankCheck, ("claim", "ok", "detail"),
     lambda: rank_checks(trefoil_augmented())[0], ()),
]

# the records with a list or dict field: SparseMatrix.rows,
# PaletteGraph.edges and AugmentedMatrix.extra_row
UNHASHABLE = {SparseMatrix, PaletteGraph, AugmentedMatrix}


@pytest.mark.parametrize("record,fields,build,views", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(record, fields, build, views):
    a, b = build(), build()
    assert type(a) is record and record._fields == fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert a == b and a is not b
    if record in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in views:
        assert getattr(a, name) is getattr(a, name) and name in vars(a)
