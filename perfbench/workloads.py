"""Seeded inputs and independent oracles for the three benchmark workloads.

Every operation is an `Op`: a call into the public `knotcol` API plus a
check of its output against an oracle that does not run the code path it
checks (closed-form determinants, the published candidate tables, the
Burnside class count, brute-force palette graphs, and the criterion
"p divides the determinant <=> a nontrivial p-coloring exists").

The library only ever sees the generated PD codes, primes and color sets.
"""

from __future__ import annotations

import io
import json
import random
from dataclasses import dataclass
from math import comb, gcd
from typing import Callable

from knotcol import cli, colorsets
from knotcol.colorsets import EXPECTED_CANDIDATES
from knotcol.diagram import CATALOG, CATALOG_DETERMINANTS

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
DIAGRAM_COMMANDS = ("color-count", "mincol", "fox", "certify")

# Per-operation deadline in reference-speed CPU seconds (see speed.py).  Each
# is about five times the slowest correct operation of its workload or more,
# with the pure-Python backend, so only a stall or a large regression trips it.
DEADLINE_S = {"tables": 30.0, "catalog": 2.0, "families": 10.0}

# Operations that fail at the seed commit.  They are built with the rest of
# the workload but are not part of it: run.py leaves them out of every
# measured run, and `run.py --defects` runs just them and reports whether
# each still fails.  A failure of any other operation makes the run incorrect.
KNOWN_DEFECTS = {
    "families/T(2,101)/certify/p=101":
        "false 'no nontrivial coloring' (exit 1): 101^3 exceeds KNOTCOL_BUDGET",
    "families/T(2,51)/certify/p=17":
        "extract_certificate scans row sets for more than 10 s",
}


@dataclass(frozen=True)
class Op:
    id: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    deadline_s: float


# ---------------------------------------------------------------- generators

def torus_pd(n: int) -> str:
    """PD code of the (2, n) torus knot, n odd; matches the catalog's 3_1
    and 5_1 for n = 3 and 5."""
    if n < 3 or n % 2 == 0:
        raise ValueError("T(2, n) needs odd n >= 3")
    m = 2 * n

    def w(x):
        return (x - 1) % m + 1

    return " ".join(
        f"X[{w(2 * i + 1)},{w(2 * i + n + 1)},{w(2 * i + 2)},{w(2 * i + n + 2)}]"
        for i in range(n))


def pretzel_pd(params) -> str:
    """PD code of the pretzel knot P(a, b, c, ...) with odd positive twists.

    Column t is a vertical twist region of params[t] crossings.  Crossing
    slots are listed counterclockwise NW, SW, SE, NE; the NW-SE strand is
    over.  The right top (bottom) end of each column joins the left top
    (bottom) end of the next, the last one around the outside.
    """
    if len(params) % 2 == 0 or any(m < 1 or m % 2 == 0 for m in params):
        raise ValueError("pretzel knots here take an odd number of odd twists")
    cols = len(params)

    def edge(t, side, level):
        if level == 0:
            return ("top", t if side == "R" else (t - 1) % cols)
        if level == params[t]:
            return ("bot", t if side == "R" else (t - 1) % cols)
        return (t, side, level)

    quads = [[edge(t, "L", j), edge(t, "L", j + 1), edge(t, "R", j + 1), edge(t, "R", j)]
             for t, m in enumerate(params) for j in range(m)]
    ends = {}
    for ci, quad in enumerate(quads):
        for slot, e in enumerate(quad):
            ends.setdefault(e, []).append((ci, slot))
    # walk the knot from the under-strand of crossing 0, numbering edges
    label = {}
    under_entry = {}
    ci, slot = 0, 3
    while True:
        if slot % 2 == 1:
            under_entry.setdefault(ci, slot)
        out = (ci, (slot + 2) % 4)
        e = quads[ci][out[1]]
        if e in label:
            break
        label[e] = len(label) + 1
        a, b = ends[e]
        ci, slot = b if a == out else a
    if len(label) != 2 * len(quads):
        raise ValueError("pretzel parameters describe a link, not a knot")
    return " ".join(
        "X[" + ",".join(str(label[quad[(under_entry[ci] + r) % 4]]) for r in range(4)) + "]"
        for ci, quad in enumerate(quads))


# ------------------------------------------------------------------- oracles

def critical_size(p: int) -> int:
    """floor(log2 p) + 2 in exact integer arithmetic."""
    return p.bit_length() + 1


def affine_canon(s, p: int) -> tuple:
    """Smallest sorted image of s under all p(p-1) maps x -> a*x + b."""
    return min(tuple(sorted((a * x + b) % p for x in s))
               for a in range(1, p) for b in range(p))


def _phi(d: int) -> int:
    return sum(1 for i in range(1, d + 1) if gcd(i, d) == 1)


def burnside_classes(p: int, k: int) -> int:
    """Number of AGL(1, p) orbits on k-subsets of Z_p (Cauchy-Frobenius).

    The p - 1 translations fix only the whole of Z_p.  A map with
    multiplier of order d > 1 fixes one point and permutes the other p - 1
    in cycles of length d; there are p * phi(d) such maps.
    """
    fixed = comb(p, k) + (p - 1 if k == p else 0)
    for d in range(2, p):
        if (p - 1) % d:
            continue
        cycles = (p - 1) // d
        f = (comb(cycles, k // d) if k % d == 0 else 0) + \
            (comb(cycles, (k - 1) // d) if (k - 1) % d == 0 else 0)
        fixed += p * _phi(d) * f
    total, rem = divmod(fixed, p * (p - 1))
    if rem:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return total


def _published(p: int) -> list:
    return sorted(affine_canon(e, p) for e in EXPECTED_CANDIDATES[p])


def palette_oracle(colors, p: int):
    """Vertices and labelled edges of the palette graph, from the definition:
    b1 -- b2 when a1+a2 = b1, a3+a4 = b2 and a1+a3 = a2+a4 for a1..a4 in S."""
    s = sorted({x % p for x in colors})
    vertices = sorted({(a + b) % p for a in s for b in s})
    half = (p + 1) // 2
    edges = {}
    for a1 in s:
        for a2 in s:
            for a3 in s:
                for a4 in s:
                    if (a1 + a3 - a2 - a4) % p == 0:
                        b1, b2 = (a1 + a2) % p, (a3 + a4) % p
                        if b1 != b2:
                            u, v = min(b1, b2), max(b1, b2)
                            edges[(u, v)] = half * (u + v) % p
    return vertices, edges


def _is_witness(w, edges) -> bool:
    """w spans a connected subgraph whose edges all carry labels in w."""
    w = set(w)
    inside = [(u, v) for (u, v), label in edges.items()
              if u in w and v in w and label in w]
    if len(w) < 3:
        return False
    start = min(w)
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for u, v in inside:
            for y, z in ((u, v), (v, u)):
                if y == x and z not in seen:
                    seen.add(z)
                    todo.append(z)
    return seen == w


def goeritz_corank(params, p: int) -> int:
    """Dimension over Z_p of H1 of the double branched cover of P(a, b, c).

    Its presentation is the Goeritz matrix [[a+b, -b], [-b, b+c]] of the
    regions between the columns (det = ab + bc + ca).
    """
    a, b, c = params
    m = [[(a + b) % p, -b % p], [-b % p, (b + c) % p]]
    if not any(m[0] + m[1]):
        return 2
    return 1 if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p == 0 else 0


# ---------------------------------------------------------------- operations

def _cli_call(argv):
    def call():
        out = io.StringIO()
        code = cli.run(argv, out=out)
        return code, out.getvalue()
    return call


def _expect(cond, message):
    return None if cond else message


def _check_diagram_command(command, p, det, corank, n):
    """Oracle for one diagram subcommand at prime p.

    corank is the Z_p-dimension of the coloring module beyond the trivial
    colorings, so there are p^(2+corank) Dehn and p^(1+corank) Fox
    colorings, and a nontrivial coloring exists exactly when p | det.
    """
    colorable = det % p == 0
    if colorable != (corank > 0):
        raise ValueError("oracle inconsistency: corank disagrees with det")
    dim = 2 + corank
    bound = critical_size(p)

    def check(result):
        code, text = result
        if command == "certify" and not colorable:
            return _expect(code == 1 and text.strip() == f"no nontrivial coloring mod {p}",
                           f"expected 'no nontrivial coloring' exit 1, got exit {code}")
        if code != 0:
            return f"exit {code}: {text.strip()[:80]}"
        doc = json.loads(text)
        if doc.get("p") != p:
            return "wrong p echoed"
        if command == "color-count":
            return _expect((doc["dimension"], doc["count"]) == (dim, p ** dim),
                           f"dimension/count {doc['dimension']}/{doc['count']} != {dim}/{p ** dim}")
        if command == "mincol":
            if doc["lower_bound"] != bound:
                return f"lower bound {doc['lower_bound']} != {bound}"
            if not colorable:
                return _expect(doc["min_colors"] is None, "nontrivial coloring reported for p not dividing det")
            mc, wit = doc["min_colors"], doc.get("witness") or []
            return _expect(mc is not None and bound <= mc <= p and len(wit) == n + 2
                           and len(set(wit)) == mc,
                           f"min_colors {mc} outside [{bound}, {p}] or witness malformed")
        if command == "fox":
            if (doc["dehn_colorings"], doc["fox_colorings"]) != (p ** dim, p ** (dim - 1)):
                return "Dehn/Fox counts differ from p^dim / p^(dim-1)"
            if not doc["p_to_1_ok"]:
                return "p-to-1 relation reported false"
            if "example_dehn" in doc and (not colorable or len(set(doc["example_dehn"])) < 3
                                          or len(doc["example_fox"]) != n):
                return "example coloring malformed"
            return None
        # certify with p | det
        cert = doc["certificate"]
        det_c, colors = cert["det"], cert["colors"]
        return _expect(
            all(r["ok"] for r in doc["rank_checks"]) and not cert["violations"]
            and det_c != 0 and det_c % p == 0 and abs(det_c) <= 2 ** (colors - 1)
            and len(set(doc["coloring"])) == colors >= 3 and len(doc["coloring"]) == n + 2,
            f"certificate fails its bounds: det {det_c}, {colors} colors")
    return check


def _diagram_ops(workload, label, argv_input, det, n, corank_of, primes):
    deadline = DEADLINE_S[workload]
    ops = [Op(f"{workload}/{label}/det", _cli_call(["det"] + argv_input),
              lambda r, det=det: _expect(r[0] == 0 and r[1].strip() == str(det),
                                         f"det {r[1].strip()} != {det}"),
              deadline)]
    for p in primes:
        for command in DIAGRAM_COMMANDS:
            argv = [command, "--p", str(p), "--format", "json"] + argv_input
            ops.append(Op(f"{workload}/{label}/{command}/p={p}", _cli_call(argv),
                          _check_diagram_command(command, p, det, corank_of(p), n),
                          deadline))
    return ops


def tables_ops(seed: int) -> list:
    """candidates(p, k) for every odd prime p < 32 and 1 <= k <= critical size.

    The seed only shuffles the order, so every seed does the same work.
    """
    ops = []
    for p in ODD_PRIMES:
        kc = critical_size(p)
        published = _published(p)
        for k in range(1, kc + 1):
            def check(found, p=p, k=k, kc=kc, published=published):
                if k < kc:
                    return _expect(not found, f"{len(found)} candidates below the critical size")
                canon = sorted(affine_canon(e, p) for e in found)
                return _expect(canon == published and len(set(canon)) == len(found),
                               "candidate classes differ from the published table")
            ops.append(Op(f"tables/p={p}/k={k}",
                          lambda p=p, k=k: tuple(c.elements for c in colorsets.candidates(p, k)),
                          check, DEADLINE_S["tables"]))
    random.Random(seed).shuffle(ops)
    return ops


def _check_palette(colors, p):
    vertices, edges = palette_oracle(colors, p)
    has_witness = affine_canon(colors, p) in _published(p)

    def check(result):
        code, text = result
        if code != 0:
            return f"exit {code}"
        doc = json.loads(text)
        got = {(e["u"], e["v"]): e["label"] for e in doc["edges"]}
        if doc["vertices"] != vertices or got != edges:
            return "palette graph differs from the brute-force graph"
        w = doc["witness"]
        if (w is not None) != has_witness:
            return f"witness {'found' if w else 'missing'}, published table says otherwise"
        return _expect(w is None or _is_witness(w, edges), "witness is not a connected R-subgraph")
    return check


def catalog_ops(seed: int) -> list:
    """Every catalog knot x odd prime < 32 x {color-count, mincol, fox,
    certify}, det per knot, and two palette queries per prime: a random
    set of the critical size and a random affine image of a published
    candidate (which must have a witness)."""
    rng = random.Random(seed)
    ops = []
    for name in sorted(CATALOG):
        det = CATALOG_DETERMINANTS[name]
        # all catalog knots are 2-bridge, so the coloring module is cyclic
        ops += _diagram_ops("catalog", name, ["--knot", name], det, _crossings(CATALOG[name]),
                            lambda p, det=det: int(det % p == 0), ODD_PRIMES)
    for p in ODD_PRIMES:
        kc = critical_size(p)
        base = rng.choice(EXPECTED_CANDIDATES[p])
        a, b = rng.randrange(1, p), rng.randrange(p)
        for tag, colors in (("random", sorted(rng.sample(range(p), kc))),
                            ("published", sorted((a * x + b) % p for x in base))):
            argv = ["palette", "--p", str(p), "--set", ",".join(map(str, colors)),
                    "--format", "json"]
            ops.append(Op(f"catalog/palette/p={p}/{tag}", _cli_call(argv),
                          _check_palette(colors, p), DEADLINE_S["catalog"]))
    rng.shuffle(ops)
    return ops


def _crossings(pd_text: str) -> int:
    return pd_text.count("X")


def _smallest_non_divisor(n: int) -> int:
    return next(q for q in ODD_PRIMES if n % q)


def families_specs(seed: int) -> list:
    """(family, params, p_divisor, p_non_divisor) for the generated diagrams.

    Fixed inputs: T(2,201) is the largest; T(2,101) and T(2,51) carry the
    known defects; T(2,35) at 7 and P(15,15,15) at 5 (a coloring space of
    dimension 4) cover certificates with more than three colors; T(2,69) is
    a mid-sized torus knot.  The seed draws four pretzels of 45 crossings
    with 3 | det, so every seed does about the same work.  The seeded
    divisor is 3 because certificate extraction at p = 5 or 7 stalls on many
    such diagrams (for example P(19,29,19) at 7); that defect is kept as the
    known defect T(2,51) at 17.
    """
    rng = random.Random(seed)
    specs = [("T", (201,), 3, 5), ("T", (101,), 101, 3), ("T", (51,), 17, 5),
             ("T", (35,), 7, 3), ("P", (15, 15, 15), 5, 7), ("T", (69,), 3, 5)]
    while len(specs) < 10:
        a, b = rng.randrange(5, 36, 2), rng.randrange(5, 36, 2)
        params = (a, b, 45 - a - b)
        det = a * b + b * params[2] + params[2] * a
        if params[2] >= 5 and det % 3 == 0 and all(params != s[1] for s in specs):
            specs.append(("P", params, 3, _smallest_non_divisor(det)))
    return specs


def families_ops(seed: int) -> list:
    ops = []
    for fam, params, p_div, p_non in families_specs(seed):
        if fam == "T":
            (n,) = params
            pd, det, label = torus_pd(n), n, f"T(2,{n})"
            corank = lambda p, n=n: int(n % p == 0)  # noqa: E731
        else:
            a, b, c = params
            pd, det, label = pretzel_pd(params), a * b + b * c + c * a, f"P({a},{b},{c})"
            corank = lambda p, params=params: goeritz_corank(params, p)  # noqa: E731
        ops += _diagram_ops("families", label, ["--pd", pd], det, sum(params),
                            corank, (p_div, p_non))
    random.Random(seed).shuffle(ops)
    return ops


BUILDERS = {"tables": tables_ops, "catalog": catalog_ops, "families": families_ops}


def expected_canonical_calls(ops) -> int:
    """sum of C(p-2, k-2) over the tables operations with k >= 2."""
    total = 0
    for op in ops:
        _, p, k = op.id.split("/")
        p, k = int(p[2:]), int(k[2:])
        if k >= 2:
            total += comb(p - 2, k - 2)
    return total

