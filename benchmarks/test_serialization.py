"""Serialization stage: `ResultTable.to_json`, `from_json` and `to_csv` on
beam-force tables of 500 and 5000 rows (12 columns).

    PYTHONPATH=src python -m pytest benchmarks/test_serialization.py \
        --benchmark-json=BENCH_<n>.json

Not part of the tier-1 suite (`testpaths = ["tests"]`): timings on a small
shared machine are noisy, so compare two commits only from runs made on
the same machine.
"""

import pytest

from photonforces.cli import run_command
from photonforces.table import ResultTable

BEAM = {
    "mode": "beam", "eps1": 1.0, "eps2": 4.0, "eps3": 1.0, "d2_m": 1e-6,
    "omega_min_ev": 0.5, "omega_max_ev": 2.5, "in1": 1.0, "area_m2": 1.0,
}


@pytest.fixture(scope="module", params=[500, 5000], ids=lambda rows: f"{rows}rows")
def table(request):
    return run_command("force", {**BEAM, "omega_points": request.param})


def test_to_json(benchmark, table):
    text = benchmark(table.to_json)
    assert ResultTable.from_json(text).rows == table.rows


def test_from_json(benchmark, table):
    back = benchmark(ResultTable.from_json, table.to_json())
    assert back.rows == table.rows


def test_to_csv(benchmark, table):
    text = benchmark(table.to_csv)
    assert len(text.splitlines()) == len(table.rows) + 2
