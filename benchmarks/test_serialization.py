"""Serialization stage: `ResultTable.to_json` and the writers on beam-force
tables of 1, 500 and 5000 rows (10 columns), and `rerun_from_json` on the
JSON text of 500, 5000 and 20 000 rows.  The 1-row table lies below both
array encoders' crossovers, so its cases show whether a small table still
costs what per-value formatting costs.

Writing to a file is timed two ways: the whole text as a string followed by
one write of it (`test_text_then_write`; `to_json()`, or `write_csv` into a
`StringIO`), and the table's streaming writer, `write_csv`/`write_json`,
into the open file (`test_writer_to_file`).  Each records in `extra_info`
the tracemalloc peak of one call (the `peak_mb` fixture in conftest.py); the
writer case records the peak of the text-then-write path beside its own.
The rerun case records its peak too (the JSON read and the rerun's own
table), and checks that the rerun writes its source text again.

`test_sweep_json` times `to_json()` and `write_json` to a file on two
500-point sweep tables (11 columns): a beam-force sweep over `d2_m`, whose
`omega_ev`, `zcf1` and `zcf2` columns hold one value, and a cavity sweep
over `eps2`, whose `omega_ev`, `n1p` and `n3m` do.  `write_json` writes such
a column as one value's text repeated, and encodes only the others.

`test_json_values` times the JSON block encoder, `_json_values`, on
mixed-exponent values: 64 of them, with the array path forced below its
crossover, show its fixed cost per block, and a full block
(`_JSON_BLOCK_VALUES`) its cost and scratch per value; `peak_mb` is one
call's tracemalloc peak.

    python -m pytest benchmarks/test_serialization.py \
        --benchmark-json=BENCH_<n>.json

Not part of the tier-1 suite (`testpaths = ["tests"]`): timings on a small
shared machine are noisy, so compare two commits only from runs made on
the same machine.
"""

import io
import json

import numpy as np
import pytest

from photonforces import table as table_module
from photonforces.cli import rerun_from_json, run_command

BEAM = {
    "mode": "beam", "eps1": 1.0, "eps2": 4.0, "eps3": 1.0, "d2_m": 1e-6,
    "omega_min_ev": 0.5, "omega_max_ev": 2.5, "in1": 1.0, "area_m2": 1.0,
}


@pytest.fixture(scope="module", params=[1, 500, 5000], ids=lambda rows: f"{rows}rows")
def table(request):
    return run_command("force", {**BEAM, "omega_points": request.param})


def test_to_json(benchmark, table):
    data = json.loads(benchmark(table.to_json))["data"]
    for j, name in enumerate(table.columns):
        assert data[name] == table.data[:, j].tolist()


def _text(table, fmt):
    """The whole text as a string: `to_json()`, or `write_csv` into a
    `StringIO`."""
    if fmt == "json":
        return table.to_json()
    fh = io.StringIO()
    table.write_csv(fh)
    return fh.getvalue()


def _text_then_write(table, fmt, path):
    def run():
        text = _text(table, fmt)
        with open(path, "w") as fh:
            fh.write(text)
    return run


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_text_then_write(benchmark, table, fmt, tmp_path, peak_mb):
    run = _text_then_write(table, fmt, tmp_path / f"out.{fmt}")
    benchmark.extra_info["peak_mb"] = peak_mb(run)
    benchmark(run)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_to_file(benchmark, table, fmt, tmp_path, peak_mb):
    path = tmp_path / f"out.{fmt}"

    def run():
        with open(path, "w") as fh:
            getattr(table, f"write_{fmt}")(fh)

    benchmark.extra_info["peak_mb"] = peak_mb(run)
    benchmark.extra_info["peak_mb_text_then_write"] = peak_mb(
        _text_then_write(table, fmt, tmp_path / f"text.{fmt}"))
    benchmark(run)
    assert path.read_text() == _text(table, fmt)


@pytest.fixture(scope="module", params=[500, 5000, 20000], ids=lambda rows: f"{rows}rows")
def json_text(request):
    return run_command("force", {**BEAM, "omega_points": request.param}).to_json()


def test_rerun_from_json(benchmark, json_text, peak_mb):
    benchmark.extra_info["peak_mb"] = peak_mb(lambda: rerun_from_json(json_text))
    assert benchmark(rerun_from_json, json_text).to_json() == json_text


SWEEPS = {
    "beam_d2": {"base": "force", "parameter": "d2_m", "min": 2e-7, "max": 2e-6,
                "base_params": {**BEAM, "omega_points": 1}},
    "cavity_eps2": {"base": "cavity", "parameter": "eps2", "min": 2.0, "max": 12.0,
                    "base_params": {"eps1": 1.0, "eps2": 4.0, "eps3": 1.0, "d2_m": 1e-6,
                                    "omega_min_ev": 1.0, "in1": 1.0, "in3": 0.5,
                                    "omega_points": 1}},
}


@pytest.fixture(scope="module", params=list(SWEEPS))
def sweep_table(request):
    return run_command("sweep", {**SWEEPS[request.param], "points": 500})


@pytest.mark.parametrize("method", ["to_json", "write_json"])
def test_sweep_json(benchmark, sweep_table, method, tmp_path, peak_mb):
    path = tmp_path / "out.json"

    def run():
        if method == "to_json":
            return sweep_table.to_json()
        with open(path, "w") as fh:
            sweep_table.write_json(fh)

    benchmark.extra_info["peak_mb"] = peak_mb(run)
    text = benchmark(run) or path.read_text()
    data = json.loads(text)["data"]
    for j, name in enumerate(sweep_table.columns):
        assert data[name] == sweep_table.data[:, j].tolist()


@pytest.mark.parametrize("size", ["64", "block"])
def test_json_values(benchmark, size, monkeypatch, peak_mb):
    n = 64 if size == "64" else table_module._JSON_BLOCK_VALUES
    monkeypatch.setattr(table_module, "_JSON_MIN_VALUES", 0)
    rng = np.random.default_rng(26)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    want = table_module._JSON_SEP.join(map(repr, x.tolist())) + table_module._JSON_END
    assert table_module._json_values(x, n - 1, n) == want  # and the lookup tables are built
    benchmark.extra_info["peak_mb"] = peak_mb(lambda: table_module._json_values(x, n - 1, n))
    assert benchmark(table_module._json_values, x, n - 1, n) == want
