"""Stage A/B: the CLI's stages in two source trees, timed in alternating
calls.

    python benchmarks/ab.py TREE_A TREE_B [--stage config compute write_csv
        write_json to_json rerun main start] [--rows 5000] [--rounds 40]

TREE_A and TREE_B are checkouts of this repository (the parent and the
change; the same path twice checks the harness itself).  Each tree's
`src/photonforces` is loaded under its own module name, `photonforces_a`
and `photonforces_b`, so both run in this one interpreter (not at all when
`start` is the only stage).  The kinds of run are the benchmark's own ops,
from this checkout's `perfbench/workloads.py`, loaded by path: the first
round of each workload at seed 1, the seed of CI's smoke runs.  They are
the four `grid` ops, of `--rows` rows each, the first valid op of each of
the five `small` kinds, of 1 row, and the four `roundtrip` sweeps, of 500
points, each with its workload's config text and its own command and
overrides.  Tree A computes each kind's table once.  Each stage is a
function of a side, a kind and these shared inputs that returns a call
with no arguments and the output that both sides must match:
  * `config`: `load_config` on the kind's config, and on one more,
    `cavity-default`, the grid config with `in1` moved into a `[DEFAULT]`
    section, which only configparser reads; the output is the params;
  * `compute`: `run_command` on the side's own params; the output is its
    table's `to_json()` text;
  * `write_csv`, `write_json` and `to_json`: the table of the side's own
    `run_command`, in the layout its `ResultTable` sets; the writers write
    bytes to `open(os.devnull, "wb")`, as the CLI writes to its `--out`
    file, and the output is the bytes an `io.BytesIO` gets, or `to_json`'s
    text, none if the table's values, names, units or metadata are not
    those of tree A's;
  * `rerun`: `rerun_from_json` on tree A's JSON text; the output is its
    table's `to_json()`, which must be that text again;
  * `main`: the side's `main` on the op's own argv (`Op.argv`, `--format`
    and `--jobs` included), with `--out` a file in a temporary directory
    that each call first removes, as perfbench does, so that no call
    releases an earlier result's blocks on disk (50-80 ms on ext4); the
    output is the file's bytes;
  * `start`: a fresh interpreter, a child process, that runs
    `import photonforces.cli` from a copy of the side's package, made once:
    `source`, a copy with no `__pycache__`, under
    `PYTHONDONTWRITEBYTECODE=1`, so that every import compiles it, as
    perfbench's `setup_s` runs it where bytecode is not written; and
    `bytecode`, a copy compiled by `compileall`, whose own `__pycache__`
    is read (numpy and the standard library read their bytecode from where
    they always do).  Two floors are the same on both sides and so show
    the harness's own noise: `bare` (`pass`) and `numpy` (`import numpy`).
    The output is the child's exit status, none unless it is 0 (and, for
    `source`, no `__pycache__` was written).
Before timing, the outputs are compared: any difference exits 1.

Each stage and kind in turn is timed for `--rounds` rounds: A, B, B, A,
and B, A, A, B in the next (ABBA, so that a drift in the machine's speed
within a round counts against neither side, nor does going first).  A
round's ratio is B's two times over A's.  One untimed call of each side
comes first: the first call after another case refills the caches, and
timed in a round it would fall on A in one round and on B in the next,
splitting a fast call's ratios in two (1.36-1.45 on a 25 us `config` call,
one tree on both sides).  The process pins itself to one CPU where it can,
and its children inherit that CPU.
Printed, one JSON line per stage and kind: each side's median and
quartiles in ms, the median of the rounds' ratios B/A, the rounds B won,
and each side's peak of one untimed call: the tracemalloc peak in bytes
above the heap before it, or for `start` the child's peak RSS in bytes
(`os.wait4`'s `ru_maxrss`, which Linux gives in KiB).  Linux counts in a
child's `ru_maxrss` the peak RSS of the process that spawned it, so
`start` runs first, before the trees are loaded, and `bare` reads this
harness's own peak (16.8 MB on x86-64 Linux, Python 3.11).  `--rounds 0`
checks the outputs and peaks only, timing nothing.

Not collected by pytest; CI runs it with the checkout as both trees.
"""

import argparse
import functools
import gc
import importlib
import importlib.util
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
_START = {"bare": "pass", "numpy": "import numpy", "source": "import photonforces.cli",
          "bytecode": "import photonforces.cli"}


def load_tree(tree, name):
    """The `cli` module of the checkout `tree`'s `photonforces` package,
    imported as `name`."""
    package = Path(tree).resolve() / "src" / "photonforces"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def load_workloads(rows):
    """perfbench's workload generators, with `rows` rows in each grid op."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.GRID_ROWS = rows  # `grid` reads it as it builds its config and ops
    return workloads


def inputs_of(a, rows, tmp, sink):
    """What both sides get: each kind's config file and op (`ops`), tree A's
    tables (`tables`) and their JSON texts (`texts`), the open `os.devnull`
    the writers write to (`sink`) and the temporary directory (`tmp`)."""
    ops = {}
    for name, workload in load_workloads(rows).WORKLOADS.items():
        text, rounds = workload(SEED)
        config = tmp / name / "run.ini"
        config.parent.mkdir()
        config.write_text(text)
        for op in next(rounds):
            if op.kind != "invalid":
                ops.setdefault(f"{name}/{op.kind}", (config, op))
    tables = {kind: a.cli.run_command(op.command, params(a, kind, ops))
              for kind, (_, op) in ops.items()}
    default = tmp / "default.ini"
    default.write_text("[DEFAULT]\nin1 = 1.0\n" + (tmp / "grid" / "run.ini").read_text()
                       .replace("in1 = 1.0\n", ""))
    ops["cavity-default"] = (default, ops["grid/cavity"][1])
    return SimpleNamespace(ops=ops, tables=tables, sink=sink, tmp=tmp,
                           texts={kind: table.to_json() for kind, table in tables.items()})


def params(side, kind, ops):
    config, op = ops[kind]
    return side.cli.load_config(config, op.command, op.overrides)


def config(side, kind, inputs):
    path, op = inputs.ops[kind]
    call = functools.partial(side.cli.load_config, path, op.command, op.overrides)
    return call, call()


def compute(side, kind, inputs):
    call = functools.partial(side.cli.run_command, inputs.ops[kind][1].command,
                             params(side, kind, inputs.ops))
    return call, call().to_json()


def writer(stage, side, kind, inputs):
    """`stage` of the table that `side`'s own `run_command` makes."""
    table = side.cli.run_command(inputs.ops[kind][1].command, params(side, kind, inputs.ops))
    want = inputs.tables[kind]
    same = ((table.columns, table.units, table.metadata) == (want.columns, want.units,
                                                             want.metadata)
            and table.data.tobytes() == want.data.tobytes())
    write = getattr(table, stage)
    if stage == "to_json":
        return write, write() if same else None
    fh = io.BytesIO()
    write(fh)
    return functools.partial(write, inputs.sink), fh.getvalue() if same else None


def rerun(side, kind, inputs):
    """A rerun that does not write its source text again gives no output."""
    call = functools.partial(side.cli.rerun_from_json, inputs.texts[kind],
                             jobs=inputs.ops[kind][1].jobs)
    text = call().to_json()
    return call, text if text == inputs.texts[kind] else None


def main_stage(side, kind, inputs):
    """A run that does not exit 0 gives no output."""
    config, op = inputs.ops[kind]
    out = config.parent / f"out.{op.fmt}"
    argv = op.argv(config, out)

    def call():
        out.unlink(missing_ok=True)
        return side.cli.main(argv)

    return call, out.read_bytes() if call() == 0 else None


def start(side, kind, inputs):
    """A child process whose call returns its exit status and peak RSS."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    root = inputs.tmp / f"{kind}-{side.name}"
    if kind in ("source", "bytecode"):
        shutil.copytree(side.tree / "src" / "photonforces", root / "photonforces",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if kind == "bytecode":
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(root)], env=env,
                           check=True)
        env["PYTHONPATH"] = str(root)
    argv = [sys.executable, "-c", _START[kind]]

    def call():
        proc = subprocess.Popen(argv, cwd=inputs.tmp, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss * 1024

    code = call()[0]
    fresh = kind != "source" or not any(root.rglob("__pycache__"))
    return call, 0 if code == 0 and fresh else None


STAGES = {"config": config, "compute": compute,
          **{stage: functools.partial(writer, stage)
             for stage in ("write_csv", "write_json", "to_json")},
          "rerun": rerun, "main": main_stage, "start": start}


def kinds_of(stage, inputs):
    if stage == "start":
        return list(_START)
    return [kind for kind in inputs.ops if stage == "config" or kind != "cavity-default"]


def peak_bytes(call):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def timed_ms(call):
    t0 = time.perf_counter()
    call()
    return (time.perf_counter() - t0) * 1e3


def summary(times):
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {"median_ms": round(median, 4), "quartiles_ms": [round(q1, 4), round(q3, 4)]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--stage", nargs="+", choices=STAGES, default=list(STAGES))
    parser.add_argument("--rows", type=int, default=5000)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        cpu = None
    a, b = (SimpleNamespace(tree=Path(tree).resolve(), name=name, cli=None)
            for tree, name in ((args.tree_a, "a"), (args.tree_b, "b")))
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "wb") as sink:
        inputs = SimpleNamespace(tmp=Path(tmp), ops={})
        differ, cases = [], []
        # `start` goes first, before the trees are loaded: a child's peak RSS
        # counts this process's own peak RSS when it spawned the child
        for stage in sorted(args.stage, key="start".__ne__):
            if stage != "start" and a.cli is None:
                a.cli, b.cli = (load_tree(side.tree, f"photonforces_{side.name}")
                                for side in (a, b))
                inputs = inputs_of(a, args.rows, Path(tmp), sink)
            peak = (lambda call: call()[1]) if stage == "start" else peak_bytes
            for kind in kinds_of(stage, inputs):
                # the untimed calls also build what the first call builds
                (call_a, out_a), (call_b, out_b) = (STAGES[stage](side, kind, inputs)
                                                    for side in (a, b))
                if out_a is None or out_a != out_b:
                    differ.append(f"{stage} {kind}")
                cases.append((stage, kind, call_a, call_b, peak(call_a), peak(call_b)))
        if differ:
            print(f"the two trees give different outputs: {', '.join(differ)}",
                  file=sys.stderr)
            return 1
        for stage, kind, call_a, call_b, peak_a, peak_b in cases:
            gc.collect()
            call_a(), call_b()  # untimed: refill the caches the last case used
            ta, tb = [], []
            for i in range(args.rounds):
                # A B B A, then B A A B in the next round
                (first, t1), (second, t2) = [(call_a, ta), (call_b, tb)][::1 - 2 * (i % 2)]
                outer = timed_ms(first)
                t2.append(timed_ms(second) + timed_ms(second))
                t1.append(outer + timed_ms(first))
            result = {"stage": stage, "kind": kind, "rounds": args.rounds, "cpu": cpu,
                      "peak_rss_bytes" if stage == "start" else "peak_bytes":
                      {"a": peak_a, "b": peak_b}}
            if kind in inputs.ops:
                result["rows"] = inputs.ops[kind][1].rows
            if ta:
                ratios = [y / x for x, y in zip(ta, tb)]
                result.update(a=summary([t / 2 for t in ta]), b=summary([t / 2 for t in tb]),
                              ratio_median=round(statistics.median(ratios), 4),
                              b_won=sum(r < 1.0 for r in ratios))
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
