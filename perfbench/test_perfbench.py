"""Self-tests of the benchmark: generators, oracles, failure accounting and
tracing.  Run with `python3 -m pytest perfbench`."""

import signal
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from knotcol import cli  # noqa: E402
from knotcol.coloring import colorings, knot_determinant  # noqa: E402
from knotcol.colorsets import enumerate_classes  # noqa: E402
from knotcol.diagram import CATALOG, build_diagram, parse_pd  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGVTALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGVTALRM, previous)


def test_torus_generator_matches_catalog():
    assert workloads.torus_pd(3) == CATALOG["3_1"]
    assert workloads.torus_pd(5) == CATALOG["5_1"]


def test_pretzel_generator_determinants():
    # P(3,1,3) is the catalog's 7_4
    assert knot_determinant(build_diagram(parse_pd(workloads.pretzel_pd((3, 1, 3))))) == 15
    for a, b, c in [(5, 3, 7), (9, 9, 27), (1, 1, 1)]:
        d = build_diagram(parse_pd(workloads.pretzel_pd((a, b, c))))
        assert d.n == a + b + c
        assert knot_determinant(d) == a * b + b * c + c * a


@pytest.mark.parametrize("params", [(15, 15, 15), (9, 27, 9), (5, 3, 7)])
def test_goeritz_corank_matches_coloring_dimension(params):
    d = build_diagram(parse_pd(workloads.pretzel_pd(params)))
    for p in (3, 5, 7):
        assert colorings(d, p, budget=0).dimension == 2 + workloads.goeritz_corank(params, p)


def test_burnside_matches_brute_force_and_library():
    for p in (5, 7, 11):
        for k in range(1, 6):
            brute = {workloads.affine_canon(s, p) for s in combinations(range(p), k)}
            assert workloads.burnside_classes(p, k) == len(brute)
            assert len(enumerate_classes(p, k)) == len(brute)


def _op(call, check, deadline=1.0):
    return workloads.Op("test/op", call, check, deadline)


def test_failures_are_counted_by_reason(alarm):
    right = _op(lambda: 4, lambda out: None if out == 4 else "not 4")
    wrong = _op(lambda: 5, lambda out: None if out == 4 else "not 4")
    error = _op(lambda: int("x"), lambda out: None)
    _, results = run.run_pass([right, wrong, error], speed.SpeedSampler())
    assert [r.failure for r in results] == [None, "wrong", "error"]


def test_stalled_operation_hits_deadline(alarm):
    def stall():
        end = time.perf_counter() + 5
        while time.perf_counter() < end:
            pass
    sampler = speed.SpeedSampler()
    _, (res,) = run.run_pass([_op(stall, lambda out: None, deadline=0.2)], sampler)
    assert res.failure == "deadline"
    assert res.end - res.start < 1.0 and res.latency_s == 0.2


def test_traced_outputs_equal_untraced(alarm):
    ops = [op for op in workloads.catalog_ops(3) if "/3_1/" in op.id or "palette" in op.id]
    ops += [op for op in workloads.tables_ops(3) if op.id.startswith("tables/p=7/")]
    tracer = Tracer()
    _, plain = run.run_pass(ops, speed.SpeedSampler())
    _, traced = run.run_pass(ops, speed.SpeedSampler(), tracer)
    assert all(r.failure is None for r in plain + traced)
    assert [r.output for r in plain] == [r.output for r in traced]
    # the wrappers are gone again after the pass
    assert cli.run.__module__ == "knotcol.cli" and not hasattr(cli.run, "__wrapped__")
    metrics = tracer.metrics(0.0)
    assert metrics["cli.calls"]["value"] == sum(1 for op in ops if op.id.startswith("catalog"))
    assert metrics["kernels.canonical_calls"]["value"] == \
        workloads.expected_canonical_calls([op for op in ops if op.id.startswith("tables")])


def test_oracles_reject_wrong_answers():
    (op,) = [op for op in workloads.catalog_ops(0) if op.id == "catalog/3_1/color-count/p=3"]
    assert op.check(op.call()) is None
    assert op.check((0, '{"count": 9, "dimension": 2, "p": 3}')) is not None
    (op,) = [op for op in workloads.tables_ops(0) if op.id == "tables/p=7/k=4"]
    assert op.check(op.call()) is None
    assert op.check(((0, 1, 2, 3),)) is not None


def test_known_defects_are_families_operations():
    ids = {op.id for op in workloads.families_ops(7)}
    assert set(workloads.KNOWN_DEFECTS) <= ids


def test_known_defects_are_left_out_of_measured_runs(monkeypatch, capsys):
    measured = []

    def fake_untraced(ops, sampler, seconds):
        measured.extend(op.id for op in ops)
        return []
    monkeypatch.setattr(run, "run_untraced", fake_untraced)
    monkeypatch.setattr(run, "end_to_end_metrics", lambda *a: {})
    assert run.main(["--workload", "families", "--seed", "7", "--seconds", "1"]) == 0
    assert measured and not set(workloads.KNOWN_DEFECTS) & set(measured)
    assert '"failed": 0' in capsys.readouterr().out.splitlines()[-1]


def test_sampler_covers_passes_shorter_than_a_tick(alarm):
    op = _op(lambda: sum(range(20000)), lambda out: None)
    sampler = speed.SpeedSampler()
    sampler.start()
    try:
        for _ in range(300):
            run.run_pass([op], sampler)
    finally:
        sampler.stop()
    assert len(sampler.at) > 0


def test_tail_is_harrell_davis_estimate():
    assert run.harrell_davis(range(1, 102), 0.5) == pytest.approx(51)
    assert run.harrell_davis([5.0] * 20, 0.9) == pytest.approx(5)
    # 30 samples: the 66th percentile leaves ten above, and the estimate
    # weighs the values on both sides of it
    values = list(range(1, 21)) + [100] * 10
    pct, value = run.tail(values)
    assert pct == 66 and 20 < value < 100
