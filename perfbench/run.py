"""photonforces benchmark: drives `photonforces.cli.main(argv)` in process.

    python3 perfbench/run.py --workload grid|small|roundtrip --seed N \
        --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` beside this
directory.  One closed-loop client: the next op starts only after the
previous one returned, and the only threads are the CLI's own `--jobs 2`
row workers on `roundtrip`, all on one CPU (`pin_to_one_cpu`).  Every
output is checked by `oracle.py`.

--trace 0 (end-to-end, untraced) prints
    setup_s       median over fresh interpreters of the time to
                  `import photonforces.cli` (numpy included)
    rows_per_s    output rows completed per second of op time: all rows
                  over the summed time of all ops, so slow outliers (GC
                  pauses, pool stalls) count in full
    call_p50_ms   median op time; with several kinds of op in the mix, the
                  median of each kind weighted by its share of ops
    call_tail_ms  a high percentile (TAIL_PERCENTILE, at least 10 ops
                  beyond it) of op times divided by their kind's median,
                  times call_p50_ms
    peak_heap_mb  largest tracemalloc peak over one op of each kind, in an
                  untimed pass; read when the CLI call returns, before the
                  oracle parses its output
All times are wall times scaled to a nominal machine speed (see "Machine
speed" below); the unscaled figures are printed on the report line.
Per-kind figures are taken because the kinds of a workload differ up to
2.5x in cost: a percentile of the pooled times falls in the gap between
two kinds, and moves by that gap when a time-bounded run completes one op
more or fewer.  The run stops on a round boundary, so every kind keeps its
share.  failed_frac, the tail percentile and the sample counts are
printed on the line before the result.

--trace 1 runs a fixed, seed-determined list of ops, each once untraced and
once traced (see spans.py), so span counts repeat exactly for a seed, and
prints the `per_layer` metrics of BENCHMARK.json (their targets are in
layers.py).  Spans are written to .perfbench/trace-<workload>-<seed>.npz
in the checkout.

The last line of standard output is the JSON result.
"""

import argparse
import cmath
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

import layers  # noqa: E402
import oracle  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
# Tail percentile per workload, fixed so that runs of a faster or slower
# program report the same quantity.  Each keeps at least TAIL_BEYOND ops
# beyond it: a run goes on past --seconds, to a round boundary, until it
# has that many.  On `small` the slowest ops are held up by waits that do
# not scale with the machine's speed: in sets of seven to ten runs of the
# same code on a shared 2-core machine the quartile spread was 0.26 of the
# median for p99, 0.15-0.21 for p95 and 0.11-0.17 for p90, so p90 is used.
TAIL_PERCENTILE = {"grid": 75.0, "small": 90.0, "roundtrip": 75.0}
TAIL_BEYOND = 10
TRACE_ROUNDS = {"grid": 2, "small": 50, "roundtrip": 1}

# Machine speed.  On a shared 2-core machine the CPU's speed moved by up to
# 1.8x for seconds to minutes at a time, as much in thread CPU time as in
# wall time; the quartile spread of ten runs' `grid` p50 reached 39% of
# their median.  Every op time is therefore scaled to a nominal speed: multiplied by
# REF_NOMINAL_S over the time of a fixed reference pass (reference_pass_s)
# measured every REF_EVERY_S through the run, taking the passes within
# REF_WINDOW_S of the op.  Likewise each cold import is divided by a cold
# import of fixed standard-library modules run just before it, times
# SETUP_NOMINAL_S.  Wall-clock figures are on the report line.
REF_PASSES = 3
REF_EVERY_S = 0.25
REF_WINDOW_S = 1.0
REF_NOMINAL_S = 1e-3
SETUP_NOMINAL_S = 0.08

_IMPORT_TIMER = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import {}\n"
    "print(repr(time.perf_counter() - t))\n"
)
_MODULE = "photonforces.cli"
_SETUP_REFERENCE = ("asyncio, decimal, email.mime.multipart, http.client, xml.dom.minidom, "
                    "json, csv")


def pin_to_one_cpu():
    """Keep this process, the CLI's row threads and the import subprocesses
    on one CPU.  Left free, a `--jobs 2` sweep hands every point to a new
    thread that may wake on the other core, and on a shared 2-core machine
    that made the same sweep take from 0.6x to 1.3x of its median between
    runs; on one CPU the spread was a third of that.  Returns the CPU, or
    None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def cold_import_s(modules):
    """Time for a fresh interpreter to import `modules`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER.format(modules)], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Executes ops against the CLI and checks each output."""

    def __init__(self, cli, workdir, config_text):
        self.cli = cli
        self.workdir = workdir
        self.config = workdir / "run.ini"
        self.config.write_text(config_text)
        self.attempted = 0
        self.failures = []

    def call(self, op):
        """Run one op through the CLI, unchecked; returns its exit code,
        whether a roundtrip rerun reproduced the output, and the wall time
        in seconds."""
        out = self.output(op)
        out.unlink(missing_ok=True)
        argv = op.argv(self.config, out)
        same = True
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
                if op.roundtrip and code == 0:
                    data = out.read_bytes()
                    rerun = self.cli.rerun_from_json(data.decode(), jobs=op.jobs)
                    same = rerun.to_json().encode() == data
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed op, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        return code, same, dt

    def check(self, op, code, same):
        out = self.output(op)
        self.attempted += 1
        try:
            oracle.check(op, code, out.read_text() if out.exists() else None, same)
        except (oracle.Mismatch, ValueError, KeyError) as exc:
            self.failures.append(f"{op.kind} {' '.join(op.overrides)}: {exc}")

    def output(self, op):
        return self.workdir / f"out.{op.fmt}"

    def run(self, op):
        """Run one op and check it; returns its wall time in seconds."""
        code, same, dt = self.call(op)
        self.check(op, code, same)
        return dt


def _kinds(rounds):
    seen = {}
    for op in next(rounds):
        seen.setdefault(op.kind, op)
    return list(seen.values())


def peak_heap_mb(runner, ops):
    """Largest heap growth during one CLI call; read before the oracle
    parses the output, so the figure is the program's alone."""
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            code, same, _ = runner.call(op)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            runner.check(op, code, same)
    finally:
        tracemalloc.stop()
    return peak / 1e6


def reference_pass_s():
    """Wall time of one pass of fixed interpreter work of the kinds the
    CLI's rows are made of: calls, small objects, complex math, float
    formatting and small numpy calls.  It uses nothing from the program,
    and runs with the collector off, so what the program leaves on the
    heap cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        parts = []
        for i in range(1, 300):
            z = cmath.exp(1j * math.remainder(i * 0.37, 2.0 * math.pi))
            pt = _Point(z.real, z.imag)
            acc += abs(pt.x * z) / (1.0 + pt.y * pt.y)
            parts.append(f"{acc:.16e}")
        grid = np.linspace(0.0, 1.0, 64)
        acc += float(np.sum(grid * grid))
        ",".join(parts)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def reference_s():
    return statistics.median(reference_pass_s() for _ in range(REF_PASSES))


def speed_factors(samples, refs):
    """Per op, REF_NOMINAL_S over the median reference time within
    REF_WINDOW_S of the op's end (the nearest one if none is)."""
    ref_t = np.array([t for t, _ in refs])
    ref_v = np.array([r for _, r in refs])
    factors = []
    for *_, t in samples:
        near = ref_v[np.abs(ref_t - t) <= REF_WINDOW_S]
        if not len(near):
            near = ref_v[[int(np.argmin(np.abs(ref_t - t)))]]
        factors.append(REF_NOMINAL_S / float(np.median(near)))
    return factors


def timed(workload, seed, seconds, runner):
    cold_import_s(_MODULE)  # compiles the sources
    setup, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        setup_ref.append(cold_import_s(_SETUP_REFERENCE))
        setup.append(cold_import_s(_MODULE))
    heap_mb = peak_heap_mb(runner, _kinds(WORKLOADS[workload](seed)[1]))
    _, rounds = WORKLOADS[workload](seed)
    pct = TAIL_PERCENTILE[workload]
    min_ops = math.ceil(TAIL_BEYOND * 100.0 / (100.0 - pct))
    samples = []  # (kind, wall seconds, rows, end time)
    refs = []  # (time, reference seconds)
    start = time.perf_counter()
    next_ref = start
    while time.perf_counter() - start < seconds or len(samples) < min_ops:
        for op in next(rounds):
            if time.perf_counter() >= next_ref:
                refs.append((time.perf_counter(), reference_s()))
                next_ref += REF_EVERY_S
            dt = runner.run(op)
            samples.append((op.kind, dt, op.rows, time.perf_counter()))
    refs.append((time.perf_counter(), reference_s()))

    factors = speed_factors(samples, refs)
    by_kind = defaultdict(list)
    for (kind, dt, _, _), f in zip(samples, factors):
        by_kind[kind].append(dt * f)
    medians = {kind: statistics.median(ts) for kind, ts in by_kind.items()}
    n = len(samples)
    p50 = sum(len(by_kind[k]) * m for k, m in medians.items()) / n
    scaled = sorted(t / medians[kind] for kind, ts in by_kind.items() for t in ts)
    tail = scaled[math.ceil(n * pct / 100.0) - 1] * p50  # nearest rank
    rows_per_s = sum(s[2] for s in samples) / sum(s[1] * f for s, f in zip(samples, factors))
    setup_s = statistics.median(t / r for t, r in zip(setup, setup_ref)) * SETUP_NOMINAL_S
    metrics = {
        "setup_s": (setup_s, "s"),
        "rows_per_s": (rows_per_s, "rows/s"),
        "call_p50_ms": (p50 * 1e3, "ms"),
        "call_tail_ms": (tail * 1e3, "ms"),
        "peak_heap_mb": (heap_mb, "MB"),
    }
    raw = defaultdict(list)
    for kind, dt, _, _ in samples:
        raw[kind].append(dt)
    detail = {
        "samples": n,
        "tail_percentile": pct,
        "kind_p50_ms": {k: round(m * 1e3, 4) for k, m in medians.items()},
        "kind_samples": {k: len(v) for k, v in by_kind.items()},
        "wall_kind_p50_ms": {k: round(statistics.median(v) * 1e3, 4) for k, v in raw.items()},
        "wall_rows_per_s": sum(s[2] for s in samples) / sum(s[1] for s in samples),
        "wall_setup_s": statistics.median(setup),
        "reference_ms": {"samples": len(refs),
                         "quartiles": [round(q * 1e3, 4) for q in
                                       statistics.quantiles([r for _, r in refs], n=4)]},
        "setup_reference_s": statistics.median(setup_ref),
    }
    return metrics, detail


def traced(workload, seed, runner):
    _, rounds = WORKLOADS[workload](seed)
    ops = [op for _ in range(TRACE_ROUNDS[workload]) for op in next(rounds)]
    for op in _kinds(WORKLOADS[workload](seed)[1]):
        runner.run(op)  # warm-up, untimed
    # each op untraced, then traced, so a change in the machine's speed
    # during the run weighs on both sides alike
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for i, op in enumerate(ops):
        untraced_s += runner.run(op)
        tracer.install(layers.REPORTED)
        try:
            tracer.op = i
            traced_s += runner.run(op)
        finally:
            tracer.restore()
    spans = tracer.spans()
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-{seed}.npz"
    np.savez_compressed(trace_file, names=np.array(tracer.names), **spans)

    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}
    metrics, per_kind = layer_metrics(spans, tracer.names, ops, units)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    detail = {
        "ops": len(ops),
        "spans": int(len(spans["name"])),
        "absent": tracer.absent,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "per_row_by_kind": per_kind,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return {k: (metrics[k], units[k]) for k in units}, detail


def layer_metrics(spans, names, ops, wanted):
    """The metrics named in `wanted` from the span arrays of the ops traced."""
    index = {name: i for i, name in enumerate(names)}
    count = np.bincount(spans["name"], minlength=len(names))
    self_s = np.bincount(spans["name"], weights=spans["self"], minlength=len(names))
    size = np.bincount(spans["name"], weights=np.maximum(spans["size"], 0), minlength=len(names))
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)
    span_layer = layer_of[spans["name"]]
    out = {}
    for name in wanted:
        head, _, stat = name.rpartition(".")
        if head in LAYERS:
            mask = span_layer == LAYERS.index(head)
            out[name] = float(spans["self"][mask].sum() if stat == "self_s"
                              else spans["error"][mask].sum())
        elif head in index:
            i = index[head]
            out[name] = float({"calls": count[i], "self_s": self_s[i], "bytes": size[i]}
                              .get(stat, 0.0))
        else:
            out[name] = 0.0  # absent from the program; listed in the report

    # calls per computed row, by kind of op; the metric is taken on beam ops
    per_kind = {}
    for kind in sorted({op.kind for op in ops}):
        ids = [i for i, op in enumerate(ops) if op.kind == kind]
        rows = sum(ops[i].computed_rows for i in ids)
        if rows:
            in_kind = np.isin(spans["op"], ids)
            per_kind[kind] = {
                fn: int((in_kind & (spans["name"] == index.get(f"cavity.{fn}", -1))).sum()) / rows
                for fn in ("composite", "fresnel")
            }
    for fn in ("composite", "fresnel"):
        beam = [v[fn] for k, v in per_kind.items() if k.endswith("force-beam")]
        out[f"cavity.{fn}.per_row"] = float(np.mean(beam)) if beam else 0.0
    return out, per_kind


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "photonforces" / "cli.py").is_file():
        print(f"error: no photonforces sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import photonforces.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported photonforces from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cpu = pin_to_one_cpu()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(cli, workdir, WORKLOADS[args.workload](args.seed)[0])
        if args.trace:
            metrics, detail = traced(args.workload, args.seed, runner)
        else:
            metrics, detail = timed(args.workload, args.seed, args.seconds, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu": cpu,
        "attempted": runner.attempted,
        "failed": failed,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:5],
        **detail,
    }
    print("report " + json.dumps(report))
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"error: metric {name} is {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
