"""Benchmark of the opalg library: one seeded workload, one process, one thread.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Load model: a closed loop with one client; the next operation starts only
after the previous one returns.  Set-up (a fresh import of ``opalg``, catalog
parsing and input generation) is timed several times and reported as its
median.  The timed phase runs as many rounds as ``--seconds`` holds at the
workload's nominal round length, at least one.  Every round repeats the same
operations on the same seeded inputs, and each operation reports its median
latency over the rounds.  Every output is checked after the timed phase.

Set-up and the timed phase run under the host speed probe of ``speed.py``;
every time reported with ``--trace 0`` is brought to the probe's nominal
host speed, and the raw figures are printed before the result.

With ``--trace 1`` one round runs untraced and the same round, built afresh
from the seed, runs under the per-layer tracer; the run reports per-layer
metrics, the tracing overhead and the share of traced wall time the spans
cover, fails if the two passes disagree, and writes the spans to
``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output was correct.
"""

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 25

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "latency_p50_ms": "ms", "latency_p99_ms": "ms",
                    "peak_rss_mb": "MiB"}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.span_coverage": "ratio"}


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def import_fresh():
    """Import the library from ``src`` as if for the first time."""
    for name in [m for m in sys.modules
                 if m == "opalg" or m.startswith("opalg.")]:
        del sys.modules[name]
    return importlib.import_module("opalg")


def setup(name: str, seed: int, size: str, expected: dict):
    """Import, catalog parsing and generation of the first round's inputs."""
    lib = import_fresh()
    workload = workloads.build(name, lib, seed, size, expected)
    return workload, workload.ops()


class Round(NamedTuple):
    ops: list
    wall: float         # seconds, the probe's time taken out
    latencies: list     # seconds per operation, the probe's time taken out
    summaries: list
    errors: list
    scale: float = 1.0  # brings the round's times to the nominal host speed


def run_ops(ops, tracer=None, probe=None) -> Round:
    """Run operations in order.  A summary is None when its operation
    raised.  Time the probe spends inside an operation is taken out."""
    latencies, summaries, errors = [], [], []
    clock = time.perf_counter
    paused = (lambda: probe.spent) if probe else (lambda: 0.0)
    start, start_paused = clock(), paused()
    for job, op in enumerate(ops):
        if tracer is not None:
            tracer.job = job
        t0, p0 = clock(), paused()
        try:
            result = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            latencies.append(clock() - t0 - (paused() - p0))
            summaries.append(None)
            errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - t0 - (paused() - p0))
        summaries.append(op.summarize(result))
    wall = clock() - start - (paused() - start_paused)
    return Round(ops, wall, latencies, summaries, errors)


def op_latencies(rounds, scaled=True):
    """Each operation's median latency over the rounds, at the nominal host
    speed unless ``scaled`` is false.

    Every round repeats the same operations in the same order.  The host
    speed also swings within seconds, both up and down; the median over
    rounds spread through the run is steady against both."""
    per_op = zip(*([lat * (r.scale if scaled else 1.0) for lat in r.latencies]
                   for r in rounds))
    return [statistics.median(lat) for lat in per_op]


def percentile(values, q: float):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_phase(workload, first_ops, seconds: float, probe):
    """As many rounds as fit ``seconds`` at the workload's nominal round
    length: the count depends on ``seconds`` alone, so every commit does the
    same work.  Each round gets its operations built afresh from the seed,
    and its scale from the probe samples taken while it ran."""
    count = max(1, int(seconds // workload.round_s))
    rounds, ops = [], first_ops
    while len(rounds) < count:
        first = len(probe.samples)
        probe.sample()  # at least one sample, however short the round
        done = run_ops(ops, probe=probe)
        rounds.append(done._replace(scale=probe.scale(first)))
        ops = workload.ops()
    return rounds


def check(workload, rounds):
    """Failures and undecided verdicts over every round, gated untimed."""
    failures, undecided = [], 0
    for r in rounds:
        failures.extend(r.errors)
        bad, unsure = workload.gate(r.ops, r.summaries)
        failures.extend(bad)
        undecided += unsure
    return failures, undecided


def timed_setups(name, seed, size, expected, probe):
    """(median set-up seconds, their scale, workload, first ops)."""
    first = len(probe.samples)
    probe.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous repetition's garbage is not set-up work
        t0, p0 = time.perf_counter(), probe.spent
        workload, first_ops = setup(name, seed, size, expected)
        setups.append(time.perf_counter() - t0 - (probe.spent - p0))
    gc.collect()  # nor is it work of the timed phase
    return statistics.median(setups), probe.scale(first), workload, first_ops


def run(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
        expected: dict = None, log=print) -> dict:
    """One benchmark run; returns the result object printed last."""
    expected = expected if expected is not None else load_expected()
    log(f"perfbench workload={name} seed={seed} trace={int(trace)} "
        f"size={size}")
    if trace:
        workload, first_ops = setup(name, seed, size, expected)
        return _traced(workload, first_ops, name, seed, log)

    probe = speed.SpeedProbe()
    probe.start()
    try:
        setup_raw, setup_scale, workload, first_ops = timed_setups(
            name, seed, size, expected, probe)
        rounds = timed_phase(workload, first_ops, seconds, probe)
    finally:
        probe.stop()
    failures, undecided = check(workload, rounds)
    attempted = sum(len(r.latencies) for r in rounds)
    latencies = op_latencies(rounds)
    p50, _ = percentile(latencies, 50)
    p99, beyond = percentile(latencies, 99)
    wall = sum(latencies)
    metrics = {"setup_s": setup_raw * setup_scale,
               "wall_s": wall,
               "ops_per_s": len(latencies) / wall,
               "latency_p50_ms": p50 * 1e3,
               "latency_p99_ms": p99 * 1e3,
               "peak_rss_mb": peak_rss_mb()}
    log(f"rounds={len(rounds)} operations={attempted} "
        f"per_round={len(latencies)} setups={SETUP_REPEATS} "
        f"samples_beyond_p99={beyond} probe_samples={len(probe.samples)}")
    probe_ms = [1e3 * speed.NOMINAL_S / r.scale for r in rounds]
    log(f"probe_ms per round = {probe_ms}")
    log(f"raw_setup_s = {setup_raw} s")
    log(f"raw_wall_s = {sum(op_latencies(rounds, scaled=False))} s")
    log(f"first_round_wall_s = {rounds[0].wall * rounds[0].scale} s")
    log(f"failed_frac = {len(failures) / attempted} ratio")
    log(f"undecided_frac = {undecided / attempted} ratio")
    return _result(metrics, END_TO_END_UNITS, attempted, failures, log)


def _traced(workload, ops, name, seed, log):
    untraced = run_ops(ops)
    # the same inputs again, built untraced: the untraced pass used up the
    # ops' rngs
    traced_ops = workload.ops()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_ops(traced_ops, tracer)
    finally:
        tracer.uninstall()
    failures, _ = check(workload, [untraced])
    failures.extend(traced.errors)
    for op, a, b in zip(ops, untraced.summaries, traced.summaries):
        if a != b:
            failures.append(f"{op.label}: traced output differs from untraced")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced.wall - untraced.wall
    metrics["trace.span_coverage"] = tracer.root_s / traced.wall
    units = dict(tracing.metric_units(), **TRACE_UNITS)
    spans_path = HERE / "out" / f"spans-{name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    log(f"untraced_wall_s = {untraced.wall} s")
    log(f"traced_wall_s = {traced.wall} s")
    log(f"spans recorded={len(tracer.spans)} total={tracer.next_span} "
        f"file={spans_path.relative_to(ROOT)}")
    return _result(metrics, units, len(ops), failures, log)


def _result(metrics, units, attempted, failures, log):
    for line in failures[:20]:
        log(f"FAILED {line}")
    for key, value in metrics.items():
        log(f"{key} = {value} {units[key]}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "opalg" / "__init__.py").is_file():
        print(f"perfbench: no opalg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.size)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
