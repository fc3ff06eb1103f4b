"""Command-line interface.

Subcommands cover coloring counts, per-diagram minimum colors, palette
graphs, candidate color-set tables, the published-table report, rank and
determinant certificates, the Fox correspondence, and knot determinants.
Output ordering is deterministic everywhere.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from knotcol import certificates, colorsets, palette
from knotcol.coloring import (
    NO_NONTRIVIAL,
    NONTRIVIAL,
    classify,
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


def _add_input_args(sub):
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--pd", help="PD code, X[a,b,c,d] ... or JSON")
    grp.add_argument("--knot", choices=sorted(CATALOG), help="catalog knot name")


def _jsonify(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "))


def cmd_color_count(args, out):
    d = _get_diagram(args)
    sp = colorings(d, args.p, budget=0)  # only the dimension and count are read
    if args.format == "json":
        print(_jsonify({"p": args.p, "dimension": sp.dimension, "count": sp.count}),
              file=out)
    else:
        print(f"p = {args.p}", file=out)
        print(f"dimension = {sp.dimension}", file=out)
        print(f"count = {sp.count}", file=out)
    return EXIT_OK


def cmd_mincol(args, out):
    d = _get_diagram(args)
    res = min_colors_diagram(d, args.p)
    if args.format == "json":
        doc = {"p": args.p, "lower_bound": res.lower_bound}
        if res.min_colors == NO_NONTRIVIAL:
            doc["min_colors"] = None
        else:
            doc["min_colors"] = res.min_colors
            doc["witness"] = list(res.witness.values)
        print(_jsonify(doc), file=out)
    else:
        print(f"p = {args.p}", file=out)
        print(f"lower bound = {res.lower_bound}", file=out)
        if res.min_colors == NO_NONTRIVIAL:
            print("no nontrivial coloring", file=out)
        else:
            print(f"minimum colors (this diagram) = {res.min_colors}", file=out)
            print(f"witness = {list(res.witness.values)}", file=out)
    return EXIT_OK


def cmd_palette(args, out):
    colors = [int(x) for x in args.set.split(",")]
    g = palette.palette_graph(colors, args.p)
    witness = palette.connected_r_witness(g)
    if args.format == "dot":
        print(palette.to_dot(g), file=out)
    elif args.format == "json":
        doc = json.loads(palette.to_json(g))
        doc["witness"] = sorted(witness) if witness != palette.NO_WITNESS else None
        print(_jsonify(doc), file=out)
    else:
        print(f"vertices: {sorted(g.vertices)}", file=out)
        for (u, v), label in sorted(g.edges.items()):
            print(f"edge {u} -- {v} [label {label}]", file=out)
        if witness == palette.NO_WITNESS:
            print("no connected R-subgraph with >= 3 vertices", file=out)
        else:
            print(f"connected R-subgraph witness: {sorted(witness)}", file=out)
    return EXIT_OK


def cmd_candidates(args, out):
    found = colorsets.candidates(args.p, args.size)
    if args.format == "json":
        doc = {"p": args.p, "k": args.size,
               "classes": [list(c.elements) for c in found]}
        print(_jsonify(doc), file=out)
    else:
        print(f"p = {args.p}, size = {args.size}: {len(found)} class(es)", file=out)
        for c in found:
            print("  " + ",".join(str(x) for x in c.elements), file=out)
    return EXIT_OK


def cmd_theorem62(args, out):
    primes = [args.p] if args.p is not None else list(colorsets.ODD_PRIMES_BELOW_32)
    ok = True
    reports = []
    for p in primes:
        r = colorsets.theorem62_report(p)
        reports.append(r)
        ok = ok and r.empty_sizes_ok and r.matches_expected
    if args.format == "json":
        doc = [{"p": r.p, "k": r.critical_size,
                "classes": [list(c) for c in r.found],
                "empty_below": r.empty_sizes_ok,
                "expected_match": r.matches_expected} for r in reports]
        print(_jsonify(doc), file=out)
    else:
        for r in reports:
            status = "ok" if (r.empty_sizes_ok and r.matches_expected) else "FAIL"
            print(f"p = {r.p}: sizes < {r.critical_size} empty: "
                  f"{'yes' if r.empty_sizes_ok else 'NO'}; "
                  f"{len(r.found)} class(es) at size {r.critical_size}, "
                  f"match published: {'yes' if r.matches_expected else 'NO'} "
                  f"[{status}]", file=out)
            for c in r.found:
                print("  " + ",".join(str(x) for x in c), file=out)
    return EXIT_OK if ok else EXIT_FAILURE


def _first_nontrivial(d, space):
    """The first nontrivial coloring of `space` in enumeration order, or None.

    The trivial colorings form a subspace, and the span is enumerated in
    `itertools.product` order of the basis coefficients, the last basis
    vector being the fastest digit.  So the first enumerated coloring
    outside that subspace is the last basis vector outside it.
    """
    for c in reversed(space.basis):
        if classify(d, c).kind == NONTRIVIAL:
            return c
    return None


def cmd_certify(args, out):
    d = _get_diagram(args)
    c = _first_nontrivial(d, colorings(d, args.p, budget=0))
    if c is None:
        print(f"no nontrivial coloring mod {args.p}", file=out)
        return EXIT_FAILURE
    aug = certificates.augmented_matrix(d, c)
    checks = certificates.rank_checks(aug)
    cert = certificates.extract_certificate(aug)
    ok = all(r.ok for r in checks) and not cert.violations
    if args.format == "json":
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
        print(_jsonify(doc), file=out)
    else:
        print(f"coloring = {list(c.values)}", file=out)
        for r in checks:
            print(f"{'ok ' if r.ok else 'FAIL'} {r.claim}  ({r.detail})", file=out)
        print(f"certificate: {cert.ell} colors, submatrix rows "
              f"{list(cert.row_indices)} cols {list(cert.col_indices)}, "
              f"det = {cert.det_value}", file=out)
        for v in cert.violations:
            print(f"violation: {v}", file=out)
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_fox(args, out):
    d = _get_diagram(args)
    space = colorings(d, args.p, budget=0)
    n_dehn, n_fox = space.count, fox_colorings_count(d, args.p)
    relation_ok = n_dehn == args.p * n_fox
    c = _first_nontrivial(d, space)
    doc = {"p": args.p, "dehn_colorings": n_dehn, "fox_colorings": n_fox,
           "p_to_1_ok": relation_ok}
    if c is not None:
        doc["example_dehn"] = list(c.values)
        doc["example_fox"] = list(fox_from_dehn(d, c).values)
    if args.format == "json":
        print(_jsonify(doc), file=out)
    else:
        print(f"Dehn colorings: {n_dehn}", file=out)
        print(f"Fox colorings:  {n_fox}", file=out)
        print(f"p-to-1 relation: {'ok' if relation_ok else 'FAIL'}", file=out)
        if c is not None:
            print(f"example Dehn coloring: {doc['example_dehn']}", file=out)
            print(f"  maps to Fox coloring: {doc['example_fox']}", file=out)
    return EXIT_OK if relation_ok else EXIT_FAILURE


def cmd_det(args, out):
    d = _get_diagram(args)
    print(knot_determinant(d), file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotcol",
        description="Dehn p-colorings, palette graphs, and minimum-color tables",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def fmt(sub, choices=("table", "json")):
        sub.add_argument("--format", choices=choices, default="table")

    s = subs.add_parser("color-count", help="dimension and count of the coloring space")
    s.add_argument("--p", type=int, required=True)
    _add_input_args(s)
    fmt(s)
    s.set_defaults(func=cmd_color_count)

    s = subs.add_parser("mincol", help="per-diagram minimum colors and lower bound")
    s.add_argument("--p", type=int, required=True)
    _add_input_args(s)
    fmt(s)
    s.set_defaults(func=cmd_mincol)

    s = subs.add_parser("palette", help="palette graph of a color set")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--set", required=True, help="comma-separated residues")
    fmt(s, ("table", "json", "dot"))
    s.set_defaults(func=cmd_palette)

    s = subs.add_parser("candidates", help="candidate color-set classes")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--size", type=int, required=True)
    fmt(s)
    s.set_defaults(func=cmd_candidates)

    s = subs.add_parser("theorem62", help="full candidate-table report, p < 32")
    s.add_argument("--p", type=int)
    fmt(s)
    s.set_defaults(func=cmd_theorem62)

    s = subs.add_parser("certify", help="rank checks and determinant certificate")
    s.add_argument("--p", type=int, required=True)
    _add_input_args(s)
    fmt(s)
    s.set_defaults(func=cmd_certify)

    s = subs.add_parser("fox", help="Dehn-Fox correspondence summary")
    s.add_argument("--p", type=int, required=True)
    _add_input_args(s)
    fmt(s)
    s.set_defaults(func=cmd_fox)

    s = subs.add_parser("det", help="knot determinant")
    _add_input_args(s)
    s.set_defaults(func=cmd_det)

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
        return args.func(args, out)
    except (ValueError, KeyError) as e:  # PDError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
