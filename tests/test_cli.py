import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import ODD_PRIMES, pretzel_pd, torus_pd
import knotcol
from knotcol import exactalg
from knotcol.certificates import augmented_matrix, check_star, merge_columns
from knotcol.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, _first_nontrivial, run
from knotcol.coloring import NONTRIVIAL, DehnColoring, classify, colorings
from knotcol.diagram import CATALOG, build_diagram, parse_pd

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def test_color_count_table():
    code, text = invoke(["color-count", "--knot", "3_1", "--p", "3"])
    assert code == EXIT_OK
    assert "dimension = 3" in text
    assert "count = 27" in text


def test_color_count_json():
    code, text = invoke(["color-count", "--pd", TREFOIL, "--p", "5",
                         "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(text) == {"count": 25, "dimension": 2, "p": 5}


def test_mincol():
    code, text = invoke(["mincol", "--knot", "4_1", "--p", "5"])
    assert code == EXIT_OK
    assert "lower bound = 4" in text
    assert "minimum colors (this diagram) = 4" in text

    code, text = invoke(["mincol", "--knot", "3_1", "--p", "5",
                         "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(text)["min_colors"] is None

    code, text = invoke(["mincol", "--knot", "3_1", "--p", str(2**61 - 1),
                         "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(text)["lower_bound"] == 62


def test_palette_table_and_json():
    code, text = invoke(["palette", "--p", "7", "--set", "0,1,2,4"])
    assert code == EXIT_OK
    assert "connected R-subgraph witness" in text

    code, text = invoke(["palette", "--p", "7", "--set", "0,1,2,3"])
    assert code == EXIT_OK
    assert "no connected R-subgraph" in text

    code, text = invoke(["palette", "--p", "5", "--set", "0,1",
                         "--format", "json"])
    doc = json.loads(text)
    assert doc["p"] == 5
    assert doc["vertices"] == [0, 1, 2]
    assert doc["witness"] is None
    assert doc["edges"] == [{"label": 1, "u": 0, "v": 2}]


def test_palette_set_with_negative_first_element():
    # argparse would read "--set -3,9" as an option; "--set=-3,9" is the
    # set {-3, 9}, which is {4, 2} mod 7
    code, text = invoke(["palette", "--p", "7", "--set=-3,9", "--format", "json"])
    assert code == EXIT_OK
    assert text == invoke(["palette", "--p", "7", "--set", "2,4", "--format", "json"])[1]


def test_palette_dot():
    code, text = invoke(["palette", "--p", "5", "--set", "0,1",
                         "--format", "dot"])
    assert code == EXIT_OK
    assert text.startswith("graph palette {")


def test_candidates():
    code, text = invoke(["candidates", "--p", "7", "--size", "4"])
    assert code == EXIT_OK
    assert "1 class(es)" in text
    assert "0,1,2,4" in text

    code, text = invoke(["candidates", "--p", "7", "--size", "3",
                         "--format", "json"])
    assert json.loads(text)["classes"] == []


def test_theorem62_single_prime():
    code, text = invoke(["theorem62", "--p", "7"])
    assert code == EXIT_OK
    assert "[ok]" in text

    code, text = invoke(["theorem62", "--p", "11", "--format", "json"])
    doc = json.loads(text)
    assert doc[0]["expected_match"] is True
    assert doc[0]["empty_below"] is True
    assert len(doc[0]["classes"]) == 2


def test_certify():
    code, text = invoke(["certify", "--knot", "3_1", "--p", "3"])
    assert code == EXIT_OK
    assert "det = " in text
    assert "FAIL" not in text

    code, text = invoke(["certify", "--knot", "3_1", "--p", "3",
                         "--format", "json"])
    doc = json.loads(text)
    assert doc["certificate"]["violations"] == []
    assert doc["certificate"]["det"] % 3 == 0
    assert all(r["ok"] for r in doc["rank_checks"])


def test_certify_builds_one_augmented_matrix(monkeypatch):
    # every module that holds one of these functions gets a counting
    # wrapper, so both the cli's calls and the certificates' imports count.
    # The colorings are solved on the Goeritz matrix, so the coloring
    # matrix is built once, by augmented_matrix
    names = ("augmented_matrix", "coloring_matrix", "checkerboard_coloring",
             "alexander_matrix_at_minus_one")
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for key, m in sys.modules.items() if key.startswith("knotcol.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr in names:
                monkeypatch.setattr(module, attr, counting(attr, value))
    code, text = invoke(["certify", "--pd", torus_pd(201), "--p", "3",
                         "--format", "json"])
    assert code == EXIT_OK
    assert all(r["ok"] for r in json.loads(text)["rank_checks"])
    assert {name: calls[name] for name in names} == {
        "augmented_matrix": 1, "coloring_matrix": 1,
        "checkerboard_coloring": 1, "alexander_matrix_at_minus_one": 0}


@pytest.mark.parametrize("n,p", [(35, 7), (51, 17), (101, 101)])
def test_certify_large_torus_knot(n, p):
    pd = torus_pd(n)
    code, text = invoke(["certify", "--pd", pd, "--p", str(p), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    cert = doc["certificate"]
    ell, det = cert["colors"], cert["det"]
    assert ell == len(set(doc["coloring"]))
    assert det % p == 0
    assert p <= abs(det) <= 2 ** (ell - 1)
    assert cert["violations"] == []
    assert all(r["ok"] for r in doc["rank_checks"])
    # recompute the selected submatrix from the reported coloring
    d = build_diagram(parse_pd(pd))
    c = DehnColoring(p, tuple(doc["coloring"]))
    rows = merge_columns(augmented_matrix(d, c)).rows
    sub = [[rows[r].get(j, 0) for j in cert["cols"]] for r in cert["rows"]]
    assert len(sub) == ell - 1
    assert all(check_star(sub))
    assert exactalg.det_int(sub) == det


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_first_nontrivial_is_first_enumerated(catalog, name):
    d = catalog[name]
    for p in ODD_PRIMES:
        expected = next((c for c in colorings(d, p).enumerated
                         if classify(d, c) == NONTRIVIAL), None)
        assert _first_nontrivial(d, colorings(d, p, budget=0)) == expected, p


def test_certify_ignores_budget_variable(monkeypatch):
    argv = ["certify", "--knot", "3_1", "--p", "3"]
    expected = invoke(argv)
    assert expected[0] == EXIT_OK
    monkeypatch.setenv("KNOTCOL_BUDGET", "1")
    assert invoke(argv) == expected


def test_certify_no_coloring():
    # plain text in JSON format too: there is no document to render
    for fmt in ("table", "json"):
        code, text = invoke(["certify", "--knot", "3_1", "--p", "5", "--format", fmt])
        assert (code, text) == (EXIT_FAILURE, "no nontrivial coloring mod 5\n"), fmt


def test_fox():
    code, text = invoke(["fox", "--knot", "3_1", "--p", "3",
                         "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["dehn_colorings"] == 27
    assert doc["fox_colorings"] == 9
    assert doc["p_to_1_ok"] is True


def test_fox_example_on_large_torus_knot():
    # 101^3 Dehn colorings: the example comes from the basis, not a scan
    code, text = invoke(["fox", "--pd", torus_pd(101), "--p", "101",
                         "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["dehn_colorings"] == 101 ** 3
    assert len(set(doc["example_dehn"])) >= 3
    assert len(doc["example_fox"]) == 101


def test_det():
    code, text = invoke(["det", "--knot", "7_4"])
    assert code == EXIT_OK
    assert text.strip() == "15"


def test_json_output_is_stable():
    a = invoke(["theorem62", "--p", "7", "--format", "json"])[1]
    b = invoke(["theorem62", "--p", "7", "--format", "json"])[1]
    assert a == b


def test_usage_errors():
    assert invoke(["color-count", "--p", "3"])[0] == EXIT_USAGE  # no input
    assert invoke(["color-count", "--pd", "X[1,2,3]", "--p", "3"])[0] \
        == EXIT_USAGE  # malformed PD
    assert invoke(["color-count", "--knot", "3_1", "--p", "4"])[0] \
        == EXIT_USAGE  # modulus not an odd prime
    assert invoke(["mincol", "--knot", "3_1", "--p", str(2**89 - 1)])[0] \
        == EXIT_USAGE  # prime, but beyond the proven primality limit
    assert invoke(["theorem62", "--p", "0"])[0] == EXIT_USAGE  # no table for 0
    # mincol on P(5^11) at 5 would scan (5^11 - 1) / 4, about 12.2M, vectors
    assert invoke(["mincol", "--pd", pretzel_pd((5,) * 11), "--p", "5"])[0] \
        == EXIT_USAGE
    # the class scan's pool of p - 2 elements is over the limit, so it is
    # refused before anything is allocated; a pool of 10^6 is not
    for size in ("3", "2"):
        assert invoke(["candidates", "--p", str(2**61 - 1), "--size", size])[0] \
            == EXIT_USAGE
    assert invoke(["candidates", "--p", "1000003", "--size", "2"])[0] == EXIT_OK
    # few subsets, but each costs O(size^3): minutes at 101, hours at 209
    for p, size in (("103", "101"), ("211", "209")):
        assert invoke(["candidates", "--p", p, "--size", size])[0] == EXIT_USAGE
    # about 10.7M pairs of sums to join in the palette graph
    assert invoke(["palette", "--p", "1000003", "--set",
                   ",".join(map(str, range(400)))])[0] == EXIT_USAGE
    assert invoke(["det", "--pd", "[[true,4,2,5],[3,6,4,1],[5,2,6,3]]"])[0] \
        == EXIT_USAGE  # boolean semiarc label
    assert invoke(["det", "--pd", "[]"])[0] == EXIT_USAGE  # no crossings
    assert invoke(["nope"])[0] == EXIT_USAGE
    # each required option left out, and both diagram inputs at once
    for argv in (["mincol", "--knot", "3_1"],
                 ["palette", "--p", "7"],
                 ["candidates", "--p", "7"],
                 ["det"],
                 ["fox", "--knot", "3_1", "--pd", TREFOIL, "--p", "3"]):
        assert invoke(argv)[0] == EXIT_USAGE, argv
    # an empty or non-integer element of --set
    for elems in ("0,,1", "0,x"):
        assert invoke(["palette", "--p", "7", "--set", elems])[0] == EXIT_USAGE


DIAGRAM_OPTIONS = ("--p", "--pd", "--knot", "--format")
OPTIONS = {
    "color-count": DIAGRAM_OPTIONS,
    "mincol": DIAGRAM_OPTIONS,
    "palette": ("--p", "--set", "--format"),
    "candidates": ("--p", "--size", "--format"),
    "theorem62": ("--p", "--format"),
    "certify": DIAGRAM_OPTIONS,
    "fox": DIAGRAM_OPTIONS,
    "det": ("--pd", "--knot"),
}


# the top-level and mincol help come first, so they keep the ids argv0, argv1
@pytest.mark.parametrize("argv", [["--help"], ["mincol", "--help"]] + [
    [cmd, "--help"] for cmd in OPTIONS if cmd != "mincol"])
def test_help_goes_to_out(capsys, argv):
    code, text = invoke(argv)
    assert code == EXIT_OK
    assert text.startswith("usage: knotcol")
    assert capsys.readouterr() == ("", "")
    # each subcommand's help names exactly its own options; the top-level
    # help names every subcommand
    options = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    if argv[0] in OPTIONS:
        assert options == {"--help", *OPTIONS[argv[0]]}
    else:
        assert options == {"--help"}
        assert all(cmd in text for cmd in OPTIONS)


def test_usage_error_goes_to_stderr(capsys):
    code, text = invoke(["mincol", "--p", "3"])
    assert (code, text) == (EXIT_USAGE, "")
    assert "usage: knotcol mincol" in capsys.readouterr().err

    # a bad --set element is named, with the option, by the parser
    code, text = invoke(["palette", "--p", "7", "--set", ",1"])
    assert (code, text) == (EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert "--set" in err and "''" in err


def test_cli_import_stays_light():
    # each query runs in a fresh process, which pays for every module the
    # CLI imports; the records are named tuples, so neither dataclasses nor
    # the inspect module it pulls in is loaded.  -S keeps site-packages'
    # .pth files from importing anything
    src = Path(knotcol.__file__).parents[1]
    code = ("import sys, knotcol.cli; "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == []
