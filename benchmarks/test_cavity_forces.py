"""Photon-number and force-column stage: `photon_numbers` on thermal inputs,
and the beam and thermal force columns (`run_command("force", ...)`, which
evaluates the columns and assembles the table but does not serialize it),
at 1 and 5000 rows.  A one-row case passes omega as a Python float, as the
CLI does for a one-point grid.

    PYTHONPATH=src python -m pytest benchmarks/test_cavity_forces.py \
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


@pytest.fixture(params=[1, 5000], ids=lambda rows: f"{rows}rows")
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
def test_force_columns(benchmark, rows, mode):
    table = benchmark(run_command, "force", {**FORCE[mode], "omega_points": rows})
    assert table.data.shape[0] == rows
