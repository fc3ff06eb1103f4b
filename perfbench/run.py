#!/usr/bin/env python3
"""knotcol benchmark: closed-loop workloads with every answer checked.

    python3 perfbench/run.py --workload {tables,catalog,families} \\
        --seed N --seconds S --trace {0,1}

One process, one caller: each operation starts when the previous one has
returned.  A pass runs operations in a seeded order.  The first pass runs
every operation of the workload once; each further pass reruns as many as
fit in an eighth of the rest of --seconds, cheapest first, so that every
latency is the median of as many runs as the time allows.  Operations are
timed in CPU time at reference speed (see speed.py).  Answers are checked
after each pass, outside the timed region.

Operations listed in workloads.KNOWN_DEFECTS are not part of the workload;
--defects runs just them, once, and reports whether each still fails.

--trace 0 prints the end-to-end metrics; --trace 1 alternates full untraced
and traced passes and prints the per-layer metrics.  The last line of stdout is
the JSON result; the lines before it give the run's identity and a
readable report.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import thread_time as clock

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9
# further passes every untraced run makes, however slow the machine, so that
# the cheap operations never rest on one cold run
MIN_RERUNS = 4

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))


class DeadlineExceeded(BaseException):
    """Raised by SIGVTALRM inside an operation that passed its deadline.

    A BaseException, so that no handler in the library can swallow it.
    """


@dataclass
class OpResult:
    op_id: str
    output: object
    failure: str | None   # None, "wrong", "error" or "deadline"
    detail: str
    start: float          # thread CPU time at call and return
    end: float
    stolen: float         # speed-sample time inside [start, end]
    latency_s: float = 0.0  # reference-speed seconds, set by run_pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(op, sampler, tracer=None) -> OpResult:
    """Run one operation under its deadline; the answer is checked later.

    The deadline counts this process's CPU time (ITIMER_VIRTUAL), so time
    in which the machine runs other work does not use it up.
    """
    if tracer is not None:
        tracer.op = op.id
    output, failure, detail = None, None, ""
    stolen = sampler.stolen
    start = clock()
    try:
        signal.setitimer(signal.ITIMER_VIRTUAL, op.deadline_s * sampler.recent_slowdown())
        try:
            output = op.call()
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    except DeadlineExceeded:
        failure, detail = "deadline", f"no answer within {op.deadline_s} reference CPU s"
    except Exception as e:  # any library error is a failed operation
        failure, detail = "error", f"{type(e).__name__}: {e}"
    end = clock()
    if tracer is not None:
        tracer.stack.clear()
    return OpResult(op.id, output, failure, detail, start, end, sampler.stolen - stolen)


def check_result(op, res: OpResult) -> None:
    if res.failure is not None:
        return
    try:
        reason = op.check(res.output)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        reason = f"unreadable output ({type(e).__name__}: {e})"
    if reason is not None:
        res.failure, res.detail = "wrong", reason


def run_pass(ops, sampler, tracer=None):
    """Run every operation once; return (pass seconds, results).

    Pass time is the sum of the operations' reference-speed latencies.
    """
    if tracer is not None:
        tracer.install()
    try:
        results = [run_op(op, sampler, tracer) for op in ops]
    finally:
        if tracer is not None:
            tracer.uninstall()
    for op, res in zip(ops, results):
        # the alarm was set to the deadline at the current speed
        res.latency_s = (op.deadline_s if res.failure == "deadline"
                         else sampler.normalise(res.start, res.end, res.stolen))
        check_result(op, res)
    total = sum(r.latency_s for r in results)
    raw = sum(r.end - r.start for r in results)
    print(f"  pass: {len(ops)} operations, {raw:.3f} CPU s, {total:.3f} s at reference speed",
          file=sys.stderr)
    if tracer is not None:
        tracer.end_pass(raw, total / raw)
    return total, results


def run_untraced(ops, sampler, seconds):
    """A full pass, then further passes, each over as many operations as fit
    in an eighth of the (wall-clock) time left, those with the fewest runs
    first and, among them, the cheapest.  Shrinking the budget of each pass
    gives sub-millisecond operations dozens of runs even when a few
    multi-second ones fill most of the time, and filling it by run count
    gives the operations in the tail as many runs as the cheap ones where
    they fit.  At least MIN_RERUNS further passes of at least a hundredth of
    --seconds each run even when the first pass used up the time.  A failed
    operation is not run again."""
    start = time.perf_counter()
    _, results = run_pass(ops, sampler)
    cost = {r.op_id: r.end - r.start for r in results}
    runs = {r.op_id: 1 for r in results}
    failed = {r.op_id for r in results if r.failure}
    reruns = 0
    while True:
        left = seconds - (time.perf_counter() - start)
        if left <= 0 and reruns >= MIN_RERUNS:
            return results
        budget = max(left / 8, seconds / 100)
        chosen, total = set(), 0.0
        for op in sorted(ops, key=lambda o: (runs[o.id], cost[o.id])):
            if op.id not in failed and total + cost[op.id] <= budget:
                total += cost[op.id]
                chosen.add(op.id)
        if not chosen:
            return results
        _, more = run_pass([op for op in ops if op.id in chosen], sampler)
        reruns += 1
        results += more
        for r in more:
            cost[r.op_id] = r.end - r.start
            runs[r.op_id] += 1
        failed.update(r.op_id for r in more if r.failure)


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics, weighted by the Beta((n+1)q, (n+1)(1-q)) mass over each
    1/n interval (midpoint rule).  Unlike a single order statistic it does
    not jump when two operations near the quantile swap places, nor follow
    the noise of the one operation that lands there."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32
    weights = [sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)
                   for t in ((i + (j + 0.5) / steps) / n for j in range(steps)))
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(values):
    """(percentile, value): the highest whole percentile that leaves at
    least ten samples above it, and its Harrell-Davis estimate."""
    n = len(values)
    pct = 100 * max(n - 10, 0) // n
    return pct, harrell_davis(values, pct / 100) if pct else min(values)


def identity(args, op_count):
    import knotcol._kernels
    from knotcol.coloring import DEFAULT_BUDGET

    backend = knotcol._kernels.BACKEND
    budget = int(os.environ.get("KNOTCOL_BUDGET", DEFAULT_BUDGET))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    py = platform.python_version()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": backend, "python": py,
        "nproc": os.cpu_count(), "knotcol_budget": budget, "commit": commit,
        "operations": op_count,
        # runs compare only when this key is equal
        "comparable": f"backend={backend} python={py.rsplit('.', 1)[0]} "
                      f"nproc={os.cpu_count()} budget={budget}",
    }


def measure_setup(args) -> float:
    """Median set-up time of fresh interpreters that import knotcol and build
    the inputs, in reference-speed CPU seconds.  Each child reports its own CPU
    time, scaled by the speed samples it took while it imported and built."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        reply = proc.stdout.split()
        if proc.returncode != 0 or len(reply) != 2 or reply[0] != "ready":
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}: {proc.stderr}")
        times.append(float(reply[1]))
    print("  setup probes (s): " + " ".join(f"{t:.4f}" for t in times), file=sys.stderr)
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("tables", "catalog", "families"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", action="store_true",
                        help="run only the workload's known defects, once, and report them")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sampler = speed.SpeedSampler()
    if args.setup_probe:
        sampler.start()

    if not (SRC / "knotcol" / "__init__.py").is_file():
        print(f"error: no knotcol sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import knotcol
    if Path(knotcol.__file__).resolve().parent != (SRC / "knotcol").resolve():
        print(f"error: imported knotcol from {knotcol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.BUILDERS[args.workload](args.seed)
    if args.setup_probe:
        sampler.stop()
        used = resource.getrusage(resource.RUSAGE_SELF)
        cpu = used.ru_utime + used.ru_stime - sampler.stolen
        print(f"ready {cpu / sampler.slowdown(0.0, clock())!r}", flush=True)
        return 0
    signal.signal(signal.SIGVTALRM, _on_alarm)
    if args.defects:
        return report_defects([op for op in ops if op.id in workloads.KNOWN_DEFECTS], sampler)
    ops = [op for op in ops if op.id not in workloads.KNOWN_DEFECTS]
    ident = identity(args, len(ops))

    sampler.start()
    try:
        if args.trace:
            results, metrics, problems = run_traced(ops, sampler, args)
        else:
            results = run_untraced(ops, sampler, args.seconds)
    finally:
        sampler.stop()
    if not args.trace:
        metrics = end_to_end_metrics(ops, results, args, ident)
        problems = []

    failures = [r for r in results if r.failure]
    problems += [f"failed: {op_id}" for op_id in sorted({r.op_id for r in failures})]
    print(json.dumps({"identity": ident}))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    for r in {r.op_id: r for r in failures}.values():
        print(f"  failed [{r.failure}] {r.op_id}: {r.detail}")
    for p in problems:
        print(f"  PROBLEM {p}")
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def report_defects(defect_ops, sampler) -> int:
    """Run each known defect once and print whether it still fails."""
    import workloads

    sampler.start()
    try:
        _, results = run_pass(defect_ops, sampler)
    finally:
        sampler.stop()
    for r in results:
        status = f"still fails [{r.failure}]: {r.detail}" if r.failure else "now passes"
        print(f"known defect {r.op_id} ({workloads.KNOWN_DEFECTS[r.op_id]}): {status}")
    if not results:
        print("no known defects in this workload")
    return 0


def end_to_end_metrics(ops, results, args, ident) -> dict:
    """The --trace 0 metrics; adds the tail percentile and a few
    per-operation facts to the identity record."""
    per_op = {}
    for r in results:
        per_op.setdefault(r.op_id, []).append(r.latency_s)
    # an operation's first run warms caches; when it ran again, only the
    # later runs count (the first run of a multi-second operation is all
    # there is, and there warming up is negligible)
    median = {op_id: statistics.median(v[1:] or v) for op_id, v in per_op.items()}
    pct, tail_s = tail(median.values())
    ident["op_tail_percentile"], ident["op_samples"] = pct, len(median)
    ident["runs_per_op"] = statistics.median(len(v) for v in per_op.values())
    slowest = sorted(median, key=median.get, reverse=True)[:5]
    ident["slowest_ms"] = {op_id: round(median[op_id] * 1000, 1) for op_id in slowest}
    values = {
        "setup_s": measure_setup(args), "pass_s": sum(median.values()),
        "op_p50_ms": harrell_davis(median.values(), 0.5) * 1000, "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_traced(ops, sampler, args):
    """Alternate full untraced and traced passes; return the results, the
    per-layer metrics and any problems the traced passes revealed."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = [], []   # full passes: (pass seconds, results)
    start = time.perf_counter()
    while True:
        plain.append(run_pass(ops, sampler))
        traced.append(run_pass(ops, sampler, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    traced_s = statistics.median(t for t, _ in traced)
    metrics = tracer.metrics(traced_s / statistics.median(t for t, _ in plain) - 1)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump_last_pass(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")

    problems = []
    reference = {r.op_id: r.output for r in plain[0][1]}
    for _, rs in traced:
        problems += [f"traced output differs: {r.op_id}" for r in rs
                     if r.failure != "deadline" and r.output != reference[r.op_id]]
    for p, k, n in set(tracer.class_counts):
        expected = workloads.burnside_classes(p, k)
        if n != expected:
            problems.append(f"enumerate_classes({p}, {k}) gave {n} classes, "
                            f"Burnside count is {expected}")
    covered = metrics["trace.covered_frac"]["value"]
    if covered < 0.9:
        print(f"  note: spans cover only {covered:.1%} of operation time", file=sys.stderr)
    if args.workload == "tables":
        share = metrics["kernels.self_s"]["value"] / traced_s
        print(f"  note: canonical_affine_min calls per pass "
              f"{metrics['kernels.canonical_calls']['value']:g} (sum of C(p-2, k-2) = "
              f"{workloads.expected_canonical_calls(ops)}); share of traced pass time "
              f"{share:.1%} (ROADMAP profile: about 95%)", file=sys.stderr)
    return [r for _, rs in plain + traced for r in rs], metrics, problems


if __name__ == "__main__":
    sys.exit(main())
