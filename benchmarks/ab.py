"""Stage A/B: the CLI's stages in two source trees, timed in alternating
calls in one process.

    python benchmarks/ab.py TREE_A TREE_B [--stage config compute write_csv
        write_json to_json rerun main] [--rows 5000] [--rounds 40]

TREE_A and TREE_B are checkouts of this repository (the parent and the
change; the same path twice checks the harness itself).  Each tree's
`src/photonforces` is loaded under its own module name, `photonforces_a`
and `photonforces_b`, so both run in this one interpreter.  The kinds of
run are the four of a grid run, polariton, cavity, beam and thermal force,
of `--rows` rows each, and the four sweeps of perfbench's `roundtrip` ops,
beam force over `d2_m`, ar force over `n_index`, cavity over `eps2` and
polariton over `energy_ev`, of 500 points each.  Tree A computes each
kind's table once.  Each stage is a function of a side, a kind and these
shared inputs that returns a call with no arguments and the output that
both sides must match:
  * `config`: `load_config` on the kind's INI file, and on one more,
    `cavity-default`, the grid file with `in1` moved into a `[DEFAULT]`
    section, which only configparser reads; the output is the params;
  * `compute`: `run_command` on the side's own params; the output is its
    table's `to_json()` text;
  * `write_csv`, `write_json` and `to_json`: the table of the side's own
    `run_command`, laid out as the CLI lays it out, the writers writing to
    `os.devnull`; the output is the text, none if the table's values,
    names, units or metadata are not those of tree A's;
  * `rerun`: `rerun_from_json` on tree A's JSON text; the output is its
    table's `to_json()`, which must be that text again;
  * `main`: the side's `main` on the kind's argv, CSV for a grid and JSON
    for a sweep (as perfbench runs them), with `--out` a file in a
    temporary directory that each call first removes, as perfbench does, so
    that no call releases an earlier result's blocks on disk (50-80 ms on
    ext4); the output is the file's bytes.  So this stage times the CLI's
    own sink, whatever API the two trees' writers have.
Before timing, the outputs are compared: any difference exits 1.

Each stage and kind in turn is timed for `--rounds` rounds: A, B, B, A,
and B, A, A, B in the next (ABBA, so that a drift in the machine's speed
within a round counts against neither side, nor does going first).  A
round's ratio is B's two times over A's.  One untimed call of each side
comes first: the first call after another case refills the caches, and
timed in a round it would fall on A in one round and on B in the next,
splitting a fast call's ratios in two (1.36-1.45 on a 25 us `config` call,
one tree on both sides).  The process pins itself to one CPU where it can.
Printed, one JSON line per stage and kind: each side's median and
quartiles in ms, the median of the rounds' ratios B/A, the rounds B won,
and each side's tracemalloc peak of one untimed call, in bytes above the
heap before it.  `--rounds 0` checks the outputs and peaks only, timing
nothing.

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
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

_GRID = """
[polariton]
energy_ev = 1.0
n_min = 1.0
n_max = 3.0
n_points = {rows}
convention = minkowski

[cavity]
eps2 = 4.0
d2_m = 1e-6
omega_min_ev = 0.5
omega_max_ev = 2.5
omega_points = {rows}
in1 = 1.0
in3 = 0.5

[force]
mode = beam
n_index = 1.5
eps2 = 4.0
d2_m = 1e-6
omega_min_ev = 0.5
omega_max_ev = 2.5
omega_points = {rows}
in1 = 1.0
"""
# one-row bases, as in perfbench's `roundtrip` config
_SWEEP = """
[polariton]
energy_ev = 1.0
n_min = 1.7
n_max = 1.7
n_points = 1
mass_kg = 1.0
convention = minkowski

[cavity]
eps2 = 6.5
d2_m = 8e-7
omega_min_ev = 1.3
in1 = 1.2
in3 = 0.25

[force]
mode = beam
eps2 = 5.0
d2_m = 1e-6
omega_min_ev = 1.6
in1 = 0.8
area_m2 = 1.0
n_index = 1.5

[sweep]
points = 500
"""
_KINDS = {
    "polariton": ("polariton", []),
    "cavity": ("cavity", []),
    "beam": ("force", []),
    "thermal": ("force", ["mode=thermal", "in1=", "t_left_k=3000", "t_right_k=300"]),
    "sweep-beam": ("sweep", ["base=force", "parameter=d2_m", "min=1e-7", "max=2e-6"]),
    "sweep-ar": ("sweep", ["base=force", "force.mode=ar", "parameter=n_index", "min=1.05",
                           "max=4.0"]),
    "sweep-cavity": ("sweep", ["base=cavity", "parameter=eps2", "min=1.2", "max=14.0"]),
    "sweep-polariton": ("sweep", ["base=polariton", "parameter=energy_ev", "min=0.3",
                                  "max=4.0"]),
}


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


def inputs_of(a, rows, tmp, sink):
    """What both sides get: each kind's config file, command and overrides
    (`configs`), tree A's tables (`tables`) and their JSON texts (`texts`),
    the open `os.devnull` the writers write to (`sink`) and the temporary
    directory (`tmp`)."""
    grid, sweep, default = (Path(tmp) / name for name in ("grid.ini", "sweep.ini",
                                                          "default.ini"))
    grid.write_text(_GRID.format(rows=rows))
    sweep.write_text(_SWEEP)
    default.write_text("[DEFAULT]\nin1 = 1.0\n" + _GRID.format(rows=rows).replace(
        "in1 = 1.0\n", ""))
    configs = {kind: (str(sweep if command == "sweep" else grid), command, overrides)
               for kind, (command, overrides) in _KINDS.items()}
    tables = {kind: a.run_command(command, a.load_config(*configs[kind]))
              for kind, (command, _) in _KINDS.items()}
    configs["cavity-default"] = (str(default), "cavity", [])
    return SimpleNamespace(configs=configs, tables=tables, sink=sink, tmp=Path(tmp),
                           texts={kind: table.to_json() for kind, table in tables.items()})


def config(side, kind, inputs):
    call = functools.partial(side.load_config, *inputs.configs[kind])
    return call, call()


def compute(side, kind, inputs):
    call = functools.partial(side.run_command, _KINDS[kind][0],
                             side.load_config(*inputs.configs[kind]))
    return call, call().to_json()


def writer(stage, side, kind, inputs):
    """`stage` of the table that `side`'s own `run_command` makes."""
    table = side.run_command(_KINDS[kind][0], side.load_config(*inputs.configs[kind]))
    want = inputs.tables[kind]
    same = ((table.columns, table.units, table.metadata) == (want.columns, want.units,
                                                             want.metadata)
            and table.data.tobytes() == want.data.tobytes())
    write = getattr(table, stage)
    if stage == "to_json":
        return write, write() if same else None
    fh = io.StringIO()
    write(fh)
    return functools.partial(write, inputs.sink), fh.getvalue() if same else None


def rerun(side, kind, inputs):
    """A rerun that does not write its source text again gives no output."""
    call = functools.partial(side.rerun_from_json, inputs.texts[kind])
    text = call().to_json()
    return call, text if text == inputs.texts[kind] else None


def main_stage(side, kind, inputs):
    """A run that does not exit 0 gives no output."""
    path, command, overrides = inputs.configs[kind]
    fmt = "json" if command == "sweep" else "csv"
    out = inputs.tmp / f"main.{fmt}"
    argv = [command, "--config", path, "--out", str(out), "--format", fmt, *overrides]

    def call():
        out.unlink(missing_ok=True)
        return side.main(argv)

    return call, out.read_bytes() if call() == 0 else None


STAGES = {"config": config, "compute": compute,
          **{stage: functools.partial(writer, stage)
             for stage in ("write_csv", "write_json", "to_json")},
          "rerun": rerun, "main": main_stage}


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
    a = load_tree(args.tree_a, "photonforces_a")
    b = load_tree(args.tree_b, "photonforces_b")
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w", encoding="utf-8") as sink:
        inputs = inputs_of(a, args.rows, tmp, sink)
        differ, cases = [], []
        for stage in args.stage:
            for kind in inputs.configs if stage == "config" else _KINDS:
                # the untimed calls also build what the first call builds
                (call_a, out_a), (call_b, out_b) = (STAGES[stage](side, kind, inputs)
                                                    for side in (a, b))
                if out_a is None or out_a != out_b:
                    differ.append(f"{stage} {kind}")
                cases.append((stage, kind, call_a, call_b, peak_bytes(call_a),
                              peak_bytes(call_b)))
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
            table = inputs.tables[kind if kind in _KINDS else "cavity"]  # cavity-default
            result = {"stage": stage, "table": kind, "rows": len(table.data),
                      "rounds": args.rounds,
                      "cpu": cpu, "peak_bytes": {"a": peak_a, "b": peak_b}}
            if ta:
                ratios = [y / x for x, y in zip(ta, tb)]
                result.update(a=summary([t / 2 for t in ta]), b=summary([t / 2 for t in tb]),
                              ratio_median=round(statistics.median(ratios), 4),
                              b_won=sum(r < 1.0 for r in ratios))
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
