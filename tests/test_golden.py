"""Golden CLI outputs: the exit code and stdout of a fixed set of commands,
byte for byte.

The cases are `det`, and `color-count`, `mincol`, `fox` and `certify` in
table and JSON format at p in {3, 5, 7, 11, 13}, on every catalog knot,
T(2,35), P(5,3,7), P(5,5,5) and P(5,5,5,5,5); `theorem62` in both formats;
`palette` in table, JSON and dot format on every published critical-size set
with p <= 13, and on {0,1} and {0,1,2,3} at 7; and `candidates` in table and
JSON format at p in {7, 11, 13} for every size k from 3 to the critical
size.  When an output is meant to change, regenerate the file with

    PYTHONPATH=src python3 tests/test_golden.py

and review the diff of tests/data/cli_golden.json.
"""

import io
import json
from pathlib import Path

import pytest

from conftest import pretzel_pd, torus_pd
from knotcol.cli import run
from knotcol.coloring import theorem_lower_bound
from knotcol.colorsets import EXPECTED_CANDIDATES
from knotcol.diagram import CATALOG

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

SOURCES = {name: ["--knot", name] for name in sorted(CATALOG)}
SOURCES["T(2,35)"] = ["--pd", torus_pd(35)]
SOURCES["P(5,3,7)"] = ["--pd", pretzel_pd((5, 3, 7))]
# at p = 5 the coloring spaces have dimension 4 and 6: mincol scans 31 and
# 781 affine class representatives
SOURCES["P(5,5,5)"] = ["--pd", pretzel_pd((5, 5, 5))]
SOURCES["P(5,5,5,5,5)"] = ["--pd", pretzel_pd((5, 5, 5, 5, 5))]

CASES = {}
for _name, _source in SOURCES.items():
    CASES[f"det {_name}"] = ["det", *_source]
    for _cmd in ("color-count", "mincol", "fox", "certify"):
        for _p in (3, 5, 7, 11, 13):
            for _fmt in ("table", "json"):
                CASES[f"{_cmd} {_name} p={_p} {_fmt}"] = [
                    _cmd, *_source, "--p", str(_p), "--format", _fmt]
for _fmt in ("table", "json"):
    CASES[f"theorem62 {_fmt}"] = ["theorem62", "--format", _fmt]
PALETTE_SETS = [(_p, _s) for _p in (3, 5, 7, 11, 13)
                for _s in EXPECTED_CANDIDATES[_p]]
PALETTE_SETS += [(7, (0, 1)), (7, (0, 1, 2, 3))]
for _p, _s in PALETTE_SETS:
    _set = ",".join(map(str, _s))
    for _fmt in ("table", "json", "dot"):
        CASES[f"palette {_set} p={_p} {_fmt}"] = [
            "palette", "--p", str(_p), "--set", _set, "--format", _fmt]
for _p in (7, 11, 13):
    for _k in range(3, theorem_lower_bound(_p) + 1):
        for _fmt in ("table", "json"):
            CASES[f"candidates p={_p} k={_k} {_fmt}"] = [
                "candidates", "--p", str(_p), "--size", str(_k), "--format", _fmt]


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_has_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("label", list(CASES))
def test_cli_output_matches_golden(golden, label, capsys):
    assert invoke(CASES[label]) == golden[label]
    # run writes only to the stream it is given
    assert capsys.readouterr() == ("", "")


if __name__ == "__main__":
    doc = {label: invoke(argv) for label, argv in CASES.items()}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} cases to {GOLDEN}")
