"""Self-tests of the benchmark at tiny input sizes.

    python3 -m pytest -q perfbench/tests
"""

import copy
import json
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
HIGHER = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "higher"}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _quiet(*args):
    pass


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(name):
    result = run.run(name, 3, 0.1, trace=False, size="tiny", log=_quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    result = run.run(name, 3, 0.1, trace=True, size="tiny", log=_quiet)
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == PER_LAYER
    assert 0 < result["metrics"]["trace.span_coverage"]["value"] <= 1


def test_tracer_restores_library_and_counts_cross_module_calls():
    lib = run.import_fresh()
    originals = {name: getattr(sys.modules[module], attr)
                 for name, module, attr in tracer.FUNCTIONS}
    add = lib.MPoly.__add__
    t = tracer.Tracer()
    t.install()
    try:
        # classify reaches gsb.dt_check through its own module binding
        lib.classify(lib.build_ansatz(lib.DIFFERENTIAL, 1))
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["classify.classify.calls"] == 1
    assert m["gsb.dt_check.calls"] == 6 == m["classify.components"]
    assert m["solve.solve_components.calls"] >= 1
    assert sum(m[f"{n}.self_s"] for n in tracer.layer_names()) <= t.root_s
    for name, module, attr in tracer.FUNCTIONS:
        assert getattr(sys.modules[module], attr) is originals[name]
    assert lib.MPoly.__add__ is add
    assert lib.classify is originals["classify.classify"]


def test_probe_time_is_taken_out_of_latencies():
    def spin(lib):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        done = run.run_ops([workloads.Op("spin", None, spin, (), repr)],
                           probe=probe)
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(probe.samples) >= 3
    # the spin ends 0.3 s after it began, probe interruptions included
    assert done.latencies[0] == pytest.approx(0.3 - probe.spent, abs=0.02)
    assert done.latencies[0] < 0.3


def _setup(name, seed):
    workload, ops = run.setup(name, seed, "tiny", run.load_expected())
    return workload, ops


def _plain(value):
    if isinstance(value, random.Random):
        return value.getstate()
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    return re.sub(r" at 0x[0-9a-f]+", "", repr(value))


def _signature(ops):
    return [(op.label, _plain(op.args)) for op in ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    first = _signature(_setup(name, 11)[1])
    again = _signature(_setup(name, 11)[1])
    assert first == again


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_round_repeats_the_same_inputs(name):
    workload, ops = _setup(name, 11)
    first = _signature(ops)
    run.run_ops(ops)  # uses up the rngs the ops hold
    assert _signature(workload.ops()) == first


def test_other_seed_gives_other_inputs():
    assert _signature(_setup("verify", 11)[1]) != \
        _signature(_setup("verify", 12)[1])
    first, again = _setup("basis", 11)[1], _setup("basis", 12)[1]
    assert first[0].args[2].random() != again[0].args[2].random()


def test_verify_gate_trips_on_a_wrong_expected_verdict():
    workload, ops = _setup("verify", 5)
    done = run.run_ops(ops)
    assert not done.errors
    members = workload.oracle(ops)
    assert workload.gate(ops, done.summaries, members) == ([], 0)
    members[0] = not members[0]
    failures, _ = workload.gate(ops, done.summaries, members)
    assert len(failures) == 1


@pytest.mark.parametrize("name,label,field", [
    ("basis", "derivation@2,1,3", "gsb.including_configs"),
    ("basis", "weight:lam@2,1,3", "cdl.irr_size"),
    ("classify", "dt1", "components"),
    ("classify", "rbt1", "points_off_component"),
])
def test_frozen_gate_trips_on_a_corrupted_expected_value(name, label, field):
    expected = copy.deepcopy(run.load_expected())
    expected[name][label][field] += 1
    result = run.run(name, 5, 0.1, trace=False, size="tiny",
                     expected=expected, log=_quiet)
    assert not result["correct"] and result["failed"] >= 1


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "classify",
         "--seed", "2", "--seconds", "0.1", "--trace", "0", "--size", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert set(result["metrics"]) == set(END_TO_END)


def test_command_line_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write_runs(directory, workload, values):
    directory.mkdir()
    for n, value in enumerate(values):
        metrics = {m: {"value": 1 / value if m in HIGHER else value,
                       "unit": u} for m, u in END_TO_END.items()}
        body = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics}
        (directory / f"{n:02d}.out").write_text(
            f"perfbench workload={workload} seed={n} trace=0 size=full\n"
            f"{json.dumps(body)}\n")


def test_compare_rules(tmp_path):
    parent = [10.0 + 0.01 * n for n in range(10)]
    _write_runs(tmp_path / "p", "basis", parent)
    _write_runs(tmp_path / "faster", "basis", [v * 0.8 for v in parent])
    _write_runs(tmp_path / "slower", "basis", [v * 1.5 for v in parent])
    _write_runs(tmp_path / "noisy", "basis",
                [10.0 * (1 + (-1) ** n * 0.4) for n in range(10)])
    p = compare.load_runs(tmp_path / "p")["basis"]
    rows = {}
    for side in ("faster", "slower", "noisy"):
        c = compare.load_runs(tmp_path / side)["basis"]
        rows[side] = compare.classify_pair(
            [v["wall_s"] for v in p], [v["wall_s"] for v in c], "lower", 0.2)
    assert rows["faster"][0] == "gain"
    assert rows["slower"][0] == "regressed"
    assert rows["noisy"][0] == "unresolved"
    assert compare.main(["compare", str(tmp_path / "p"),
                         str(tmp_path / "slower")]) == 1
    assert compare.main(["compare", str(tmp_path / "p"),
                         str(tmp_path / "faster")]) == 0
