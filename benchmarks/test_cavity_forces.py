"""Kinematics, photon-number and force-column stage: `photon_numbers` on
thermal inputs, and `run_command` (which evaluates the columns and
assembles the table but does not serialize it) for the beam and thermal
force columns, for polariton runs under the Minkowski and a prescribed
(general) momentum, and for cavity runs on thermal inputs, at 1, 5000 and
20 000 rows (the largest grid of the project's end-to-end aims).  A one-row
case passes its grid value as a Python float, as the CLI does for a
one-point grid.  Each `run_command` case records in `extra_info` the
tracemalloc peak of one call, in MB above the heap before it (the
`peak_mb` fixture in conftest.py).

    python -m pytest benchmarks/test_cavity_forces.py \
        --benchmark-json=BENCH_<n>.json

Not part of the tier-1 suite (`testpaths = ["tests"]`): timings on a small
shared machine are noisy, so compare two commits only from runs made on
the same machine.
"""

import numpy as np
import pytest

from photonforces import LayerStack, bose_einstein, photon_numbers
from photonforces.cli import run_command
from photonforces.constants import EV, HBAR

STACK = {"eps1": 1.0, "eps2": 4.0, "eps3": 1.0, "d2_m": 1e-6}
WINDOW = {"omega_min_ev": 0.5, "omega_max_ev": 2.5}
T_LEFT, T_RIGHT = 3000.0, 300.0
FORCE = {
    "beam": {"mode": "beam", **STACK, **WINDOW, "in1": 1.0, "area_m2": 1.0},
    "thermal": {"mode": "thermal", **STACK, **WINDOW, "t_left_k": T_LEFT,
                "t_right_k": T_RIGHT, "area_m2": 1.0},
}
POLARITON = {"energy_ev": 1.0, "n_min": 1.0, "n_max": 3.0, "mass_kg": 1.0}
# command, params and the key that sets the row count; 7e-28 kg m/s is about
# 1.3 hbar*k0 at 1 eV
RUNS = {
    "polariton-minkowski": ("polariton", {**POLARITON, "convention": "minkowski"}, "n_points"),
    "polariton-general": ("polariton", {**POLARITON, "convention": "general",
                                        "momentum_kgms": 7e-28}, "n_points"),
    "cavity": ("cavity", {**STACK, **WINDOW, "t_left_k": T_LEFT, "t_right_k": T_RIGHT},
               "omega_points"),
}


@pytest.fixture(params=[1, 5000, 20000], ids=lambda rows: f"{rows}rows")
def rows(request):
    return request.param


def test_photon_numbers(benchmark, rows):
    stack = LayerStack(STACK["eps1"], STACK["eps2"], STACK["eps3"], STACK["d2_m"])
    omega = np.linspace(WINDOW["omega_min_ev"], WINDOW["omega_max_ev"], rows) * EV / HBAR
    if rows == 1:
        omega = omega.item()
    in1, in3 = bose_einstein(omega, T_LEFT), bose_einstein(omega, T_RIGHT)
    numbers = benchmark(photon_numbers, stack, omega, in1, in3)
    assert np.all(np.isfinite(numbers.n3p))


@pytest.mark.parametrize("mode", ["beam", "thermal"])
def test_force_columns(benchmark, rows, mode, peak_mb):
    params = {**FORCE[mode], "omega_points": rows}
    benchmark.extra_info["peak_mb"] = peak_mb(lambda: run_command("force", params))
    table = benchmark(run_command, "force", params)
    assert table.data.shape[0] == rows


@pytest.mark.parametrize("run", list(RUNS))
def test_run_command(benchmark, rows, run, peak_mb):
    command, params, count = RUNS[run]
    params = {**params, count: rows}
    benchmark.extra_info["peak_mb"] = peak_mb(lambda: run_command(command, params))
    table = benchmark(run_command, command, params)
    assert table.data.shape[0] == rows
