import io
import json

from knotcol.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, run

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
    assert doc["witness"] is None
    assert doc["edges"] == [{"label": 1, "u": 0, "v": 2}]


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


def test_certify_no_coloring():
    code, text = invoke(["certify", "--knot", "3_1", "--p", "5"])
    assert code == EXIT_FAILURE
    assert "no nontrivial coloring" in text


def test_fox():
    code, text = invoke(["fox", "--knot", "3_1", "--p", "3",
                         "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["dehn_colorings"] == 27
    assert doc["fox_colorings"] == 9
    assert doc["p_to_1_ok"] is True


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
    assert invoke(["nope"])[0] == EXIT_USAGE
