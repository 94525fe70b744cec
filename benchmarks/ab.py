"""Stage A/B: the table writers of two source trees, timed in alternating
calls in one process.

    python benchmarks/ab.py TREE_A TREE_B [--stage write_csv write_json]
        [--rows 5000] [--rounds 40]

TREE_A and TREE_B are checkouts of this repository (the parent and the
change; the same path twice checks the harness itself).  Each tree's
`src/photonforces` is loaded under its own module name, `photonforces_a`
and `photonforces_b`, so both run in this one interpreter.  The tables are
the four kinds of a grid run, polariton, cavity, beam and thermal force, of
`--rows` rows each, and the four sweeps of perfbench's `roundtrip` ops, beam
force over `d2_m`, ar force over `n_index`, cavity over `eps2` and
polariton over `energy_ev`, of 500 points each: tree A's
`run_command` computes them once, and both trees' `ResultTable` get the same
data, so the two writers see the same values.  Before timing, each writer's text is compared: any difference in
the bytes exits 1.

Per round, each stage and table is timed A, B, B, A, and B, A, A, B in the
next (ABBA, so that a drift in the machine's speed within a round counts
against neither side, nor does going first), each call writing to
`os.devnull`.  A round's ratio is B's two times over A's.
The process pins itself to one CPU where it can.  Printed, one JSON line per
stage and table: each side's median and quartiles in ms, the median of the
rounds' ratios B/A, the rounds B won, and each side's tracemalloc peak of
one untimed call, in bytes above the heap before it.  `--rounds 0` checks
the bytes and peaks only, timing nothing.

Not collected by pytest; CI runs it with the checkout as both trees.
"""

import argparse
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

STAGES = ("write_csv", "write_json")
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
    """The `photonforces` package of the checkout `tree`, imported as `name`."""
    package = Path(tree).resolve() / "src" / "photonforces"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def tables_of(side, rows):
    """The four grid tables of `rows` rows and the four 500-point sweep
    tables, computed by `side`."""
    cli = importlib.import_module(f"{side.__name__}.cli")
    with tempfile.TemporaryDirectory() as tmp:
        grid, sweep = Path(tmp) / "grid.ini", Path(tmp) / "sweep.ini"
        grid.write_text(_GRID.format(rows=rows))
        sweep.write_text(_SWEEP)
        return {kind: cli.run_command(command, cli.load_config(
                    str(sweep if command == "sweep" else grid), command, overrides))
                for kind, (command, overrides) in _KINDS.items()}


def writer(side, table, stage):
    """`stage` of `side`'s own `ResultTable` holding `table`'s data."""
    copy = side.ResultTable(list(table.columns), list(table.units), table.data.copy(),
                            dict(table.metadata))
    return getattr(copy, stage)


def text(write):
    fh = io.StringIO()
    write(fh)
    return fh.getvalue()


def peak_bytes(write, sink):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write(sink)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def timed_ms(write, sink):
    t0 = time.perf_counter()
    write(sink)
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
    tables = tables_of(a, args.rows)
    differ = []
    with open(os.devnull, "w", encoding="utf-8") as sink:
        cases = []
        for stage in args.stage:
            for kind, table in tables.items():
                write_a, write_b = writer(a, table, stage), writer(b, table, stage)
                if text(write_a) != text(write_b):  # and the lookup tables are built
                    differ.append(f"{stage} {kind}")
                cases.append((stage, kind, write_a, write_b,
                              peak_bytes(write_a, sink), peak_bytes(write_b, sink)))
        if differ:
            print(f"the two trees write different bytes: {', '.join(differ)}", file=sys.stderr)
            return 1
        times = {(stage, kind): ([], []) for stage, kind, *_ in cases}
        gc.collect()
        for i in range(args.rounds):
            for stage, kind, write_a, write_b, *_ in cases:
                # A B B A, then B A A B in the next round
                sides = [(write_a, times[stage, kind][0]), (write_b, times[stage, kind][1])]
                (first, t1), (second, t2) = sides[::1 - 2 * (i % 2)]
                outer = timed_ms(first, sink)
                t2.append(timed_ms(second, sink) + timed_ms(second, sink))
                t1.append(outer + timed_ms(first, sink))
    for stage, kind, _, _, peak_a, peak_b in cases:
        ta, tb = times[stage, kind]
        result = {"stage": stage, "table": kind, "rows": len(tables[kind].data),
                  "rounds": args.rounds,
                  "cpu": cpu, "peak_bytes": {"a": peak_a, "b": peak_b}}
        if ta:
            ratios = [y / x for x, y in zip(ta, tb)]
            result.update(a=summary([t / 2 for t in ta]), b=summary([t / 2 for t in tb]),
                          ratio_median=round(statistics.median(ratios), 4),
                          b_won=sum(r < 1.0 for r in ratios))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
