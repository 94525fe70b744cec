"""Self-tests of the benchmark: the oracle rejects wrong outputs and exit
codes, and the tracer is exact, thread-safe and tolerant of a changed
package.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from photonforces import cli  # noqa: E402

SEED = 7
WANTED = [m["name"] for m in json.loads(run.SPEC.read_text())["per_layer"]]


@pytest.fixture
def runner(tmp_path):
    def make(workload):
        return run.Runner(cli, tmp_path, workloads.WORKLOADS[workload](SEED)[0])
    return make


def _first_round(workload):
    return next(workloads.WORKLOADS[workload](SEED)[1])


def _shrink(op, rows):
    """The same op at fewer output rows, to keep the tests quick."""
    if op.command == "sweep":
        op.overrides.append(f"points={rows}")
        key, lo, hi, _ = op.check["sweep"]
        op.check["sweep"] = (key, lo, hi, rows)
    else:
        key = "n_points" if op.command == "polariton" else "omega_points"
        op.overrides.append(f"{key}={rows}")
        op.check[key] = rows
    op.rows = rows
    return op


def _output(runner, op):
    runner.run(op)
    assert runner.failures == []
    return (runner.workdir / f"out.{op.fmt}").read_text()


def _valid_ops():
    ops = {f"small-{op.kind}": ("small", op) for op in _first_round("small") if op.expect == 0}
    ops.update({f"grid-{op.kind}": ("grid", _shrink(op, 50)) for op in _first_round("grid")})
    ops.update({op.kind: ("roundtrip", _shrink(op, 20)) for op in _first_round("roundtrip")})
    return ops


@pytest.mark.parametrize("name", sorted(_valid_ops()))
def test_oracle_accepts_the_program_and_rejects_any_changed_column(name, runner):
    workload, op = _valid_ops()[name]
    text = _output(runner(workload), op)
    cols = oracle.parse_json(text) if op.fmt == "json" else oracle.parse_csv(text)
    for name, values in cols.items():
        changed = {**cols, name: values.copy()}
        changed[name][-1] = changed[name][-1] * 1.5 + 10.0
        if op.fmt == "json":
            payload = json.loads(text)
            payload["data"][name] = changed[name].tolist()
            bad = json.dumps(payload)
        else:
            lines = text.split("\n")
            lines[-2] = ",".join(f"{changed[c][-1]:.16e}" for c in cols)
            bad = "\n".join(lines)
        with pytest.raises(oracle.Mismatch):
            oracle.check(op, 0, bad)


@pytest.mark.parametrize("index, column", [(1, "R1_sq"), (1, "n1m"), (1, "n2p"),
                                           (1, "omega_ev"), (2, "ncf1")])
def test_one_flipped_digit_in_one_row_is_a_failed_op(index, column, runner):
    op = _shrink(_first_round("grid")[index], 50)
    r = runner("grid")
    text = _output(r, op)
    lines = text.split("\n")
    header = lines[0].split(",")
    row = lines[20].split(",")
    value = row[header.index(column)]
    i = value.index(".") + 1  # first digit after the point
    row[header.index(column)] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    lines[20] = ",".join(row)
    with pytest.raises(oracle.Mismatch, match=column):
        oracle.check(op, 0, "\n".join(lines))


def test_unexpected_exit_codes_are_failed_ops(runner):
    r = runner("small")
    ops = _first_round("small")
    invalid = next(op for op in ops if op.expect != 0)
    valid = next(op for op in ops if op.expect == 0)
    r.run(invalid)
    r.run(valid)
    assert r.failures == []
    invalid.expect, valid.expect = 0, 2
    r.run(invalid)
    r.run(valid)
    assert r.attempted == 4 and len(r.failures) == 2
    assert all("exit code" in f for f in r.failures)


def test_roundtrip_rerun_that_differs_is_a_failed_op(runner):
    op = _shrink(_first_round("roundtrip")[0], 10)
    text = _output(runner("roundtrip"), op)
    with pytest.raises(oracle.Mismatch, match="rerun"):
        oracle.check(op, 0, text, rerun_same=False)


def test_traced_counts_repeat_exactly(runner):
    first, _ = run.traced("small", SEED, runner("small"))
    second, _ = run.traced("small", SEED, runner("small"))
    exact = [n for n in first if n.endswith((".calls", ".bytes", ".per_row", ".errors"))]
    assert exact and all(first[n] == second[n] for n in exact)
    assert first["kinematics.errors"][0] > 0  # the infeasible-mass ops raise
    assert first["cavity.composite.per_row"][0] == 3.0
    assert first["cavity.fresnel.per_row"][0] == 6.0


def test_per_row_ratios_of_a_beam_grid(runner):
    op = _shrink(_first_round("grid")[2], 40)
    tracer = spans.Tracer()
    tracer.install(layers.REPORTED)
    try:
        tracer.op = 0
        runner("grid").run(op)
    finally:
        tracer.restore()
    metrics, per_kind = run.layer_metrics(tracer.spans(), tracer.names, [op], WANTED)
    assert per_kind == {"force-beam": {"composite": 3.0, "fresnel": 6.0}}
    assert metrics["table.append.calls"] == 40
    assert metrics["cavity.photon_numbers.calls"] == 80


def test_absent_names_are_reported_not_fatal():
    tracer = spans.Tracer()
    tracer.install({"cavity": ["composite", "no_such_function"], "optics": ["airy"]})
    try:
        assert tracer.absent == ["cavity.no_such_function", "optics.airy"]
        assert getattr(cli.cav.composite, "__wrapped__", None) is not None
    finally:
        tracer.restore()
    assert not hasattr(cli.cav.composite, "__wrapped__")
    assert not hasattr(cli.frc.composite, "__wrapped__")
    metrics, _ = run.layer_metrics(tracer.spans(), ["cavity.other"], [], WANTED)
    assert metrics["cavity.composite.calls"] == 0.0


def test_spans_stay_nested_per_thread_under_switching():
    from photonforces import cavity

    stack = cavity.LayerStack(1.0, 4.0, 1.0, 1e-6)
    threads, calls = 6, 300
    tracer = spans.Tracer()
    tracer.install()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for i in range(calls):
                cavity.photon_numbers(stack, 1e15 + i, 1.0, 0.5)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(interval)
        tracer.restore()
    s = tracer.spans()
    names = [tracer.names[i] for i in s["name"]]
    assert names.count("cavity.photon_numbers") == threads * calls
    assert names.count("cavity.fresnel") == 2 * threads * calls
    child = s["parent"] >= 0
    parent = s["parent"][child]
    assert (s["thread"][child] == s["thread"][parent]).all()
    assert (s["start"][child] >= s["start"][parent]).all()
    assert (s["end"][child] <= s["end"][parent]).all()
    assert (s["self"] >= 0).all()


def test_work_handed_to_a_pool_is_taken_off_the_submitting_span_once():
    from concurrent.futures import ThreadPoolExecutor

    tracer = spans.Tracer()
    tracer.install()  # makes this thread the one work is handed from
    tracer.restore()
    nap = tracer._wrap(lambda: time.sleep(0.05), "cavity.nap")

    def submit():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: nap(), range(2)))

    tracer._wrap(submit, "cli.submit")()
    s = tracer.spans()
    outer = tracer.names.index("cli.submit")
    (i,) = np.flatnonzero(s["name"] == outer)
    naps = s["name"] == tracer.names.index("cavity.nap")
    assert (s["parent"][naps] == i).all() and (s["thread"][naps] != s["thread"][i]).all()
    # the two naps overlap: the union of their time is taken off, not the sum
    assert 0.0 <= s["self"][i] < 0.025
    assert (s["self"][naps] >= 0.05).all()


def test_row_workers_of_a_jobs_2_sweep_report_to_the_cli_call(runner):
    op = _shrink(_first_round("roundtrip")[2], 20)
    assert op.jobs == 2
    tracer = spans.Tracer()
    tracer.install(layers.REPORTED)
    try:
        tracer.op = 0
        runner("roundtrip").run(op)
    finally:
        tracer.restore()
    s = tracer.spans()
    main = s["thread"] == 0
    assert (s["parent"][~main] >= 0).all()  # no roots off the main thread
    crossing = ~main & main[s["parent"]]
    submitters = {tracer.names[n] for n in s["name"][s["parent"][crossing]]}
    assert submitters == {"cli.run_command"}  # the sweep reaches run_cavity through a dict
    assert (s["self"] >= 0).all()
    assert s["self"].sum() <= (s["end"] - s["start"])[s["parent"] < 0].sum()


def test_op_times_are_scaled_by_the_reference_timed_nearest_them():
    nominal = run.REF_NOMINAL_S
    refs = [(0.0, nominal), (0.5, nominal), (10.0, 2 * nominal)]
    samples = [("k", 1.0, 1, 0.2), ("k", 1.0, 1, 9.5), ("k", 1.0, 1, 5.0)]
    # near the first two passes, at full speed; near the last, at half
    # speed; with none in reach, the nearest pass
    assert run.speed_factors(samples, refs) == [1.0, 0.5, 1.0]


def test_every_workload_and_per_layer_metric_is_defined():
    spec = json.loads(run.SPEC.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(WANTED) == set(layers.TARGETS)


def test_command_prints_one_result_line_and_refuses_without_sources(tmp_path):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "small", "--seed", "3",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]} \
        == set(result["metrics"])

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert bare.returncode != 0
    assert not re.search(r'"metrics"', bare.stdout)
