"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, not calibrated elsewhere.
"""

import math
import warnings

import numpy as np
import pytest

from photonforces import (
    ABRAHAM,
    MINKOWSKI,
    LayerStack,
    MediumBlock,
    PhotonInput,
    ar_interface_forces,
    cev_check,
    composite,
    force_density_decomposition,
    general,
    mass_transfer_cube,
    net_force_pressure,
    photon_numbers,
    reflector_force,
    solve_transmission,
    total_force_beam,
)
from photonforces.cli import load_config, main, rerun_from_json, run_polariton
from photonforces.constants import C, EV, HBAR
from photonforces.forces import RHO0

REL = 1e-12
SEED = 20240817


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


CONFIG = """
[polariton]
energy_ev = 1.0
n_min = 1.0
n_max = 3.0
n_points = 201
mass_kg = 1.0
convention = minkowski

[cavity]
eps1 = 1.0
eps2 = 4.0
eps3 = 1.0
d2_m = 1e-6
omega_min_ev = 0.5
omega_max_ev = 2.0
omega_points = 16
in1 = 1.0
in3 = 0.0
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "acceptance.ini"
    path.write_text(CONFIG)
    return str(path)


def test_criterion_1_table_closure():
    ph = PhotonInput(omega=1.0 * EV / HBAR)
    block = MediumBlock(n=2.0, M=1.0)
    hw, hk0 = ph.energy, HBAR * ph.k0

    sol = solve_transmission(ph, block, MINKOWSKI)
    assert abs(sol.E - 4 * hw) / (4 * hw) < REL
    assert abs(sol.E_d - 3 * hw) / (3 * hw) < REL
    assert abs(sol.p - 2 * hk0) / (2 * hk0) < REL
    assert abs(sol.p_d - 1.5 * hk0) / (1.5 * hk0) < REL

    sol_a = solve_transmission(ph, block, ABRAHAM)
    assert sol_a.E_d == 0.0
    assert sol_a.p == hk0 / 2.0
    report(1, "Table-1 closure at 1 eV, n=2 (Minkowski rel < 1e-12; Abraham exact)")


def test_criterion_2_conservation_and_cev():
    rng = np.random.default_rng(SEED)
    worst_e = worst_p = worst_cev = 0.0
    for _ in range(10_000):
        hw = rng.uniform(0.1, 10.0) * EV
        n = rng.uniform(1.0, 3.0)
        m = 10.0 ** rng.uniform(-6, 3)
        ph = PhotonInput(omega=hw / HBAR)
        block = MediumBlock(n=n, M=m)
        kind = rng.integers(3)
        conv = (ABRAHAM, MINKOWSKI, general(rng.uniform(0.3, 2.0) * n * HBAR * ph.k0))[kind]
        sol = solve_transmission(ph, block, conv)
        hk0 = HBAR * ph.k0
        worst_e = max(worst_e, abs(hw + m * C**2 - sol.E - sol.M_r * C**2) / (hw + m * C**2))
        worst_p = max(worst_p, abs(hk0 - sol.p - sol.M_r * sol.V_r) / hk0)
        v_before, v_after = cev_check(ph, block, sol)
        worst_cev = max(worst_cev, abs(v_before - v_after) / abs(v_before))
    assert worst_e < REL
    assert worst_p < REL
    assert worst_cev < REL
    report(2, f"10^4 samples: energy res {worst_e:.1e}, momentum res {worst_p:.1e}, "
              f"CEV res {worst_cev:.1e}, all < 1e-12")


def test_criterion_3_mass_transfer_cube():
    side = mass_transfer_cube(3.0 * EV / C**2, 1000.0)
    assert abs(side - 2e-13) / 2e-13 < 0.15
    assert side == pytest.approx(1.7488e-13, rel=1e-3)
    report(3, f"cube side {side:.4e} m, within 15% of the rounded 2e-13 m")


def test_criterion_4_polariton_sweep(config_path, tmp_path):
    params = load_config(config_path, "polariton")
    table = run_polariton(params)
    cols = table.columns
    for row in table.data:
        n = row[cols.index("n")]
        assert abs(row[cols.index("E_over_hw")] - n**2) / n**2 < REL
        assert abs(row[cols.index("p_over_hk0")] - n) / n < REL
        assert abs(row[cols.index("Ef_over_hw")] - 1.0) < REL
        assert abs(row[cols.index("pf_over_hk0")] - 1.0 / n) * n < REL
    out = tmp_path / "fig2.csv"
    assert main(["polariton", "--config", config_path, "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 2 + len(table.data)
    report(4, "CLI n-sweep reproduces E/hw=n^2, p/hk0=n, Ef/hw=1, pf/hk0=1/n "
              "to 1e-12; CSV emitted")


def _random_stacks(rng, count):
    for _ in range(count):
        yield (
            LayerStack(
                rng.uniform(1.0, 16.0),
                rng.uniform(1.0, 16.0),
                rng.uniform(1.0, 16.0),
                rng.uniform(1e-8, 1e-4),
            ),
            rng.uniform(0.01, 10.0) * EV / HBAR,
        )


def test_criterion_5_lossless_identity():
    rng = np.random.default_rng(SEED + 1)
    worst = worst_sym = 0.0
    for stack, omega in _random_stacks(rng, 10_000):
        cc = composite(stack, omega)
        ident = abs(cc.R1) ** 2 + (stack.n3 / stack.n1) * abs(cc.T1 * cc.T2) ** 2
        worst = max(worst, abs(ident - 1.0))
    for _ in range(1000):
        e_out = rng.uniform(1.0, 16.0)
        stack = LayerStack(e_out, rng.uniform(1.0, 16.0), e_out, rng.uniform(1e-8, 1e-4))
        omega = rng.uniform(0.01, 10.0) * EV / HBAR
        cc = composite(stack, omega)
        worst_sym = max(worst_sym, abs(abs(cc.R1) ** 2 + abs(cc.T1 * cc.T2) ** 2 - 1.0))
    assert worst < REL and worst_sym < REL
    report(5, f"|R1|^2 + (n3/n1)|T1T2|^2 = 1: worst dev {worst:.1e} over 10^4 stacks "
              f"(eps1=eps3 special case {worst_sym:.1e})")


def test_criterion_6_betweenness_and_equilibrium():
    rng = np.random.default_rng(SEED + 2)
    worst_excess = worst_eq = 0.0
    for stack, omega in _random_stacks(rng, 10_000):
        in1, in3 = rng.uniform(0.0, 5.0, 2)
        pn = photon_numbers(stack, omega, in1, in3)
        lo, hi = min(in1, in3), max(in1, in3)
        slack = REL * max(1.0, hi)
        for v in (pn.n1p, pn.n1m, pn.n2p, pn.n2m, pn.n3p, pn.n3m):
            worst_excess = max(worst_excess, lo - v, v - hi)
        assert lo - slack <= min(pn.n1m, pn.n2p, pn.n2m, pn.n3p)
        assert max(pn.n1m, pn.n2p, pn.n2m, pn.n3p) <= hi + slack
    for _ in range(1000):
        e_out = rng.uniform(1.0, 16.0)
        stack = LayerStack(e_out, rng.uniform(1.0, 16.0), e_out, rng.uniform(1e-8, 1e-4))
        omega = rng.uniform(0.01, 10.0) * EV / HBAR
        nu = rng.uniform(0.0, 3.0)
        pn = photon_numbers(stack, omega, nu, nu)
        for v in (pn.n1m, pn.n2p, pn.n2m, pn.n3p):
            worst_eq = max(worst_eq, abs(v - nu))
        net = net_force_pressure(stack, omega, pn, -1.0, stack.d2 + 1.0, 1.0)
        assert abs(net) <= REL * reflector_force(omega, nu + 1.0, 1.0)
    assert worst_eq < REL * 10  # absolute, occupations O(1)
    report(6, f"betweenness holds (worst excess {worst_excess:.1e}); equal inputs give "
              f"equal outputs (dev {worst_eq:.1e}) and zero net force")


def test_criterion_7_force_law():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(1000):
        e_out = rng.uniform(1.0, 16.0)
        stack = LayerStack(e_out, rng.uniform(1.0, 16.0), e_out, rng.uniform(1e-8, 1e-4))
        omega = rng.uniform(0.01, 10.0) * EV / HBAR
        in1 = rng.uniform(1e-3, 5.0)
        _, ratio = total_force_beam(stack, omega, in1, 1.0)
        worst = max(worst, abs(ratio - abs(composite(stack, omega).R1) ** 2))
    assert worst < REL

    omega = 1.0 * EV / HBAR
    d2_half = math.pi / (2.0 * omega / C)
    _, ratio_half = total_force_beam(LayerStack(1.0, 4.0, 1.0, d2_half), omega, 1.0, 1.0)
    # zero to machine precision: pi is irrational, so the phase cannot be
    # represented exactly; the residual is ~1e-31
    assert ratio_half < 1e-24

    lam0 = 2 * math.pi * C / omega
    _, ratio_quarter = total_force_beam(
        LayerStack(1.0, 4.0, 1.0, lam0 / 8.0), omega, 1.0, 1.0
    )
    assert ratio_quarter == pytest.approx(0.36, rel=1e-9)
    report(7, f"F/F0 = |R1|^2 (worst dev {worst:.1e} over 10^3 beams); half-wave "
              f"{ratio_half:.1e}, quarter-wave {ratio_quarter:.12f}")


def test_criterion_8_method_equivalence():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for stack, omega in _random_stacks(rng, 10_000):
        in1, in3 = rng.uniform(0.0, 5.0, 2)
        pn = photon_numbers(stack, omega, in1, in3)
        imp1, imp2 = force_density_decomposition(stack, omega, pn)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            net = net_force_pressure(stack, omega, pn, -1.0, stack.d2 + 1.0, 1.0)
        scale = HBAR * omega * RHO0 * 4.0 * (max(in1, in3) + 1.0)
        worst = max(worst, abs(imp1.total + imp2.total - net) / scale)
    assert worst < REL
    report(8, f"impulse sum = pressure-difference net force, worst rel dev {worst:.1e}")


def test_criterion_9_ar_interface_forces():
    omega0 = 1.0 * EV / HBAR
    kappas = []
    for n in np.linspace(1.1, 4.0, 59):
        for omega in (omega0 * 1e-2, omega0, omega0 * 1e1):
            f1, f2, kappa = ar_interface_forces(float(n), omega, 1.0, 1.0)
            assert f1 + f2 == 0.0
            kappas.append(kappa)
    spread = max(kappas) - min(kappas)
    assert spread < 1e-10
    kappa = kappas[0]
    factor = kappa / 1.0
    report(9, f"F1+F2 = 0 exactly; kappa = {kappa:.12f} constant (spread {spread:.1e}); "
              f"paper asserts kappa = 1, fixed factor {factor:g} under the documented "
              f"average/two-direction conventions")


def test_criterion_10_determinism_and_round_trip(config_path, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    args = ["cavity", "--config", config_path, "--format", "json"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--jobs", "8", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()

    text = serial.read_text()
    assert rerun_from_json(text).to_json() == text
    assert rerun_from_json(text, jobs=4).to_json() == text

    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    assert main(["polariton", "--config", config_path, "--out", str(csv_a)]) == 0
    assert main(["polariton", "--config", config_path, "--jobs", "4", "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    report(10, "byte-identical outputs with and without parallel rows; embedded "
               "config re-runs bitwise")
