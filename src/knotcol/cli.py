"""Command-line interface.

Subcommands cover coloring counts, per-diagram minimum colors, palette
graphs, candidate color-set tables, the published-table report, rank and
determinant certificates, the Fox correspondence, and knot determinants.

The shared options `--p`, `--pd`/`--knot` and `--format table|json` are
each declared once, in a parent parser that the subcommands list.

Each `cmd_*` returns (exit code, JSON document, table lines) and writes
nothing; `run` alone writes, one rendering per call to stdout.  `det`, and
`certify` when there is no nontrivial coloring, print plain text in every
format.  Errors go to stderr with exit 2.  Output ordering is deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from knotcol import certificates, colorsets, palette
from knotcol.coloring import (
    NONTRIVIAL,
    classify,
    coloring_dimension,
    colorings,
    fox_colorings_count,
    fox_from_dehn,
    knot_determinant,
    min_colors_diagram,
)
from knotcol.diagram import CATALOG, build_diagram, catalog_diagram, parse_pd

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _get_diagram(args):
    if args.knot:
        return catalog_diagram(args.knot)
    return build_diagram(parse_pd(args.pd))


def _int_list(text):
    """The integers of a comma-separated list, for `--set`."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as e:  # its message quotes the bad element
        raise argparse.ArgumentTypeError(str(e)) from None


def _jsonify(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def cmd_color_count(args):
    dim = coloring_dimension(_get_diagram(args), args.p)
    doc = {"p": args.p, "dimension": dim, "count": args.p ** dim}
    return EXIT_OK, doc, [f"{key} = {doc[key]}" for key in ("p", "dimension", "count")]


def cmd_mincol(args):
    res = min_colors_diagram(_get_diagram(args), args.p)
    doc = {"p": args.p, "lower_bound": res.lower_bound, "min_colors": None}
    lines = [f"p = {args.p}", f"lower bound = {res.lower_bound}"]
    if res.min_colors is None:
        lines.append("no nontrivial coloring")
    else:
        doc.update(min_colors=res.min_colors, witness=list(res.witness.values))
        lines += [f"minimum colors (this diagram) = {res.min_colors}",
                  f"witness = {doc['witness']}"]
    return EXIT_OK, doc, lines


def cmd_palette(args):
    g = palette.palette_graph(args.set, args.p)
    if args.format == "dot":  # dot output never shows the witness
        return EXIT_OK, None, [palette.to_dot(g)]
    witness = palette.connected_r_witness(g)
    edges = sorted(g.edges.items())
    doc = {"p": args.p, "vertices": sorted(g.vertices),
           "edges": [{"u": u, "v": v, "label": label} for (u, v), label in edges],
           "witness": None if witness == palette.NO_WITNESS else sorted(witness)}
    lines = [f"vertices: {doc['vertices']}"]
    lines += [f"edge {u} -- {v} [label {label}]" for (u, v), label in edges]
    lines.append("no connected R-subgraph with >= 3 vertices" if doc["witness"] is None
                 else f"connected R-subgraph witness: {doc['witness']}")
    return EXIT_OK, doc, lines


def cmd_candidates(args):
    found = [c.elements for c in colorsets.candidates(args.p, args.size)]
    lines = [f"p = {args.p}, size = {args.size}: {len(found)} class(es)"]
    lines += ["  " + ",".join(map(str, c)) for c in found]
    doc = {"p": args.p, "k": args.size, "classes": [list(c) for c in found]}
    return EXIT_OK, doc, lines


def cmd_theorem62(args):
    primes = [args.p] if args.p is not None else colorsets.ODD_PRIMES_BELOW_32
    doc, lines = [], []
    for r in map(colorsets.theorem62_report, primes):
        doc.append({"p": r.p, "k": r.critical_size,
                    "classes": [list(c) for c in r.found],
                    "empty_below": r.empty_sizes_ok,
                    "expected_match": r.matches_expected})
        status = "ok" if (r.empty_sizes_ok and r.matches_expected) else "FAIL"
        lines.append(f"p = {r.p}: sizes < {r.critical_size} empty: "
                     f"{'yes' if r.empty_sizes_ok else 'NO'}; "
                     f"{len(r.found)} class(es) at size {r.critical_size}, "
                     f"match published: {'yes' if r.matches_expected else 'NO'} "
                     f"[{status}]")
        lines += ["  " + ",".join(map(str, c)) for c in r.found]
    ok = all(r["empty_below"] and r["expected_match"] for r in doc)
    return (EXIT_OK if ok else EXIT_FAILURE), doc, lines


def _first_nontrivial(d, space):
    """The first nontrivial coloring of `space` in enumeration order, or None.

    The trivial colorings form a subspace, and the span is enumerated in
    `itertools.product` order of the basis coefficients, the last basis
    vector being the fastest digit.  So the first enumerated coloring
    outside that subspace is the last basis vector outside it.
    """
    for c in reversed(space.basis):
        if classify(d, c) == NONTRIVIAL:
            return c
    return None


def cmd_certify(args):
    d = _get_diagram(args)
    c = _first_nontrivial(d, colorings(d, args.p, budget=0))
    if c is None:
        return EXIT_FAILURE, None, [f"no nontrivial coloring mod {args.p}"]
    aug = certificates.augmented_matrix(d, c)
    checks = certificates.rank_checks(aug)
    cert = certificates.extract_certificate(aug)
    ok = all(r.ok for r in checks) and not cert.violations
    doc = {
        "p": args.p,
        "coloring": list(c.values),
        "rank_checks": [{"claim": r.claim, "ok": r.ok, "detail": r.detail}
                        for r in checks],
        "certificate": {
            "colors": cert.ell,
            "rows": list(cert.row_indices),
            "cols": list(cert.col_indices),
            "det": cert.det_value,
            "violations": list(cert.violations),
        },
    }
    lines = [f"coloring = {doc['coloring']}"]
    lines += [f"{'ok ' if r.ok else 'FAIL'} {r.claim}  ({r.detail})" for r in checks]
    lines.append(f"certificate: {cert.ell} colors, submatrix rows "
                 f"{list(cert.row_indices)} cols {list(cert.col_indices)}, "
                 f"det = {cert.det_value}")
    lines += [f"violation: {v}" for v in cert.violations]
    return (EXIT_OK if ok else EXIT_FAILURE), doc, lines


def cmd_fox(args):
    d = _get_diagram(args)
    space = colorings(d, args.p, budget=0)
    n_dehn, n_fox = space.count, fox_colorings_count(d, args.p)
    relation_ok = n_dehn == args.p * n_fox
    c = _first_nontrivial(d, space)
    doc = {"p": args.p, "dehn_colorings": n_dehn, "fox_colorings": n_fox,
           "p_to_1_ok": relation_ok}
    lines = [f"Dehn colorings: {n_dehn}", f"Fox colorings:  {n_fox}",
             f"p-to-1 relation: {'ok' if relation_ok else 'FAIL'}"]
    if c is not None:
        doc["example_dehn"] = list(c.values)
        doc["example_fox"] = list(fox_from_dehn(d, c))
        lines += [f"example Dehn coloring: {doc['example_dehn']}",
                  f"  maps to Fox coloring: {doc['example_fox']}"]
    return (EXIT_OK if relation_ok else EXIT_FAILURE), doc, lines


def cmd_det(args):
    return EXIT_OK, None, [str(knot_determinant(_get_diagram(args)))]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotcol",
        description="Dehn p-colorings, palette graphs, and minimum-color tables",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    modulus = argparse.ArgumentParser(add_help=False)
    modulus.add_argument("--p", type=int, required=True)
    diagram = argparse.ArgumentParser(add_help=False)
    source = diagram.add_mutually_exclusive_group(required=True)
    source.add_argument("--pd", help="PD code, X[a,b,c,d] ... or JSON")
    source.add_argument("--knot", choices=sorted(CATALOG), help="catalog knot name")
    table_json = argparse.ArgumentParser(add_help=False)
    table_json.add_argument("--format", choices=("table", "json"), default="table")
    on_diagram = [modulus, diagram, table_json]

    subs.add_parser("color-count", help="dimension and count of the coloring space",
                    parents=on_diagram).set_defaults(func=cmd_color_count)
    subs.add_parser("mincol", help="per-diagram minimum colors and lower bound",
                    parents=on_diagram).set_defaults(func=cmd_mincol)
    s = subs.add_parser("palette", help="palette graph of a color set", parents=[modulus])
    s.add_argument("--set", type=_int_list, required=True,
                   help="comma-separated residues; a set with a negative first "
                        "element is written --set=-3,9")
    s.add_argument("--format", choices=("table", "json", "dot"), default="table")
    s.set_defaults(func=cmd_palette)
    s = subs.add_parser("candidates", help="candidate color-set classes",
                        parents=[modulus, table_json])
    s.add_argument("--size", type=int, required=True)
    s.set_defaults(func=cmd_candidates)
    s = subs.add_parser("theorem62", help="full candidate-table report, p < 32",
                        parents=[table_json])
    s.add_argument("--p", type=int)
    s.set_defaults(func=cmd_theorem62)
    subs.add_parser("certify", help="rank checks and determinant certificate",
                    parents=on_diagram).set_defaults(func=cmd_certify)
    subs.add_parser("fox", help="Dehn-Fox correspondence summary",
                    parents=on_diagram).set_defaults(func=cmd_fox)
    subs.add_parser("det", help="knot determinant",
                    parents=[diagram]).set_defaults(func=cmd_det)
    return parser


def run(argv, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        with contextlib.redirect_stdout(out):  # --help goes to `out`
            args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code, doc, lines = args.func(args)
    except (ValueError, KeyError) as e:  # PDError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    json_out = doc is not None and args.format == "json"  # det has no --format
    print(_jsonify(doc) if json_out else "\n".join(lines), file=out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
