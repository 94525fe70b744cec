"""Array evaluation: every broadcasting function, called on a whole grid,
must equal its element-by-element scalar calls, and grid errors must name
the first offending row.

Scales are the ones the other test files use: O(1) for amplitudes and
photon numbers, 4*S*hbar*omega*rho0*(max occupation + 1) for forces
(acceptance criterion 8), and relative for the kinematics.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonforces import (
    ABRAHAM,
    MINKOWSKI,
    RHO0,
    FeasibilityError,
    LayerStack,
    MediumBlock,
    NumericalGuardError,
    PhotonInput,
    bose_einstein,
    cev_check,
    composite,
    force_density_decomposition,
    fresnel,
    general,
    net_force_pressure,
    photon_numbers,
    solve_transmission,
    total_force_beam,
)
from photonforces.cli import _KEY_TABLES, rerun_from_json, run_command, run_sweep
from photonforces.constants import C, EV, HBAR
from photonforces.table import ResultTable

REL = 1e-12

eps_values = st.floats(min_value=1.0, max_value=16.0)
widths = st.floats(min_value=1e-8, max_value=1e-4)
energies_ev = st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=12)
occupation = st.floats(min_value=0.0, max_value=10.0)


def assert_elementwise(array_value, scalar_values, scale):
    got = np.broadcast_to(array_value, (len(scalar_values),))
    want = np.array(scalar_values, dtype=float)
    assert np.all(np.abs(got - want) <= REL * np.broadcast_to(scale, got.shape))


@given(na=st.lists(st.floats(1.0, 4.0), min_size=1, max_size=12), nb=st.floats(1.0, 4.0))
@settings(max_examples=100, deadline=None)
def test_fresnel_broadcasts_over_indices(na, nb):
    arr = fresnel(np.array(na), nb)
    for field in ("r", "t", "r_p", "t_p"):
        want = [getattr(fresnel(a, nb), field) for a in na]
        assert_elementwise(getattr(arr, field), want, 1.0)


@given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev,
       in1=occupation, in3=occupation)
@settings(max_examples=150, deadline=None)
def test_cavity_grid_matches_scalar_calls(e1, e2, e3, d2, hw, in1, in3):
    stack = LayerStack(e1, e2, e3, d2)
    omega = np.array(hw) * EV / HBAR
    cc = composite(stack, omega)
    scalar = [composite(stack, w) for w in omega]
    assert_elementwise(abs(cc.R1) ** 2, [abs(c.R1) ** 2 for c in scalar], 1.0)
    assert_elementwise(abs(cc.T1 * cc.T2) ** 2, [abs(c.T1 * c.T2) ** 2 for c in scalar], 1.0)

    pn = photon_numbers(stack, omega, in1, in3)
    scalar = [photon_numbers(stack, w, in1, in3) for w in omega]
    for field in ("n1p", "n1m", "n2p", "n2m", "n3p", "n3m"):
        want = [getattr(p, field) for p in scalar]
        assert_elementwise(getattr(pn, field), want, max(1.0, in1, in3))


@given(hw=energies_ev, t=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=6000.0)))
@settings(max_examples=100, deadline=None)
def test_bose_einstein_grid_matches_scalar_calls(hw, t):
    omega = np.array(hw) * EV / HBAR
    want = [bose_einstein(w, t) for w in omega]
    assert_elementwise(bose_einstein(omega, t), want, np.maximum(np.abs(want), 1e-300))


@given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev,
       in1=occupation, in3=occupation, S=st.floats(0.1, 10.0))
@settings(max_examples=150, deadline=None)
def test_force_grid_matches_scalar_calls(e1, e2, e3, d2, hw, in1, in3, S):
    stack = LayerStack(e1, e2, e3, d2)
    omega = np.array(hw) * EV / HBAR
    scale = 4.0 * S * HBAR * omega * RHO0 * (max(in1, in3) + 1.0)
    pn = photon_numbers(stack, omega, in1, in3)
    pns = [photon_numbers(stack, w, in1, in3) for w in omega]
    imps = force_density_decomposition(stack, omega, pn)
    scalar = [force_density_decomposition(stack, w, p) for w, p in zip(omega, pns)]
    for k in (0, 1):
        for field in ("zcf", "tcf", "ncf"):
            want = [S * getattr(s[k], field) for s in scalar]
            assert_elementwise(S * getattr(imps[k], field), want, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # eps1 != eps3 warns; tested in test_forces
        net = net_force_pressure(stack, omega, pn, -1.0, d2 + 1.0, S)
        want = [net_force_pressure(stack, w, p, -1.0, d2 + 1.0, S) for w, p in zip(omega, pns)]
    assert_elementwise(net, want, scale)

    beam = LayerStack(e1, e2, e1, d2)
    in1 = max(in1, 1e-3)
    force, ratio = total_force_beam(beam, omega, in1, S)
    scalar = [total_force_beam(beam, w, in1, S) for w in omega]
    assert_elementwise(ratio, [r for _, r in scalar], 1.0)
    assert_elementwise(force, [f for f, _ in scalar], scale)


@given(hw=st.floats(min_value=0.1, max_value=10.0),
       n=st.lists(st.floats(min_value=1.0, max_value=3.0), min_size=1, max_size=12),
       m=st.floats(min_value=1e-6, max_value=1e3), kind=st.sampled_from(["a", "m", "g"]),
       factor=st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=150, deadline=None)
def test_kinematics_grid_matches_scalar_calls(hw, n, m, kind, factor):
    photon = PhotonInput(omega=hw * EV / HBAR)
    conv = {"a": ABRAHAM, "m": MINKOWSKI, "g": general(factor * HBAR * photon.k0)}[kind]
    block = MediumBlock(n=np.array(n), M=m)
    sol = solve_transmission(photon, block, conv)
    v_before, v_after = cev_check(photon, block, sol)
    blocks = [MediumBlock(n=x, M=m) for x in n]
    scalar = [solve_transmission(photon, b, conv) for b in blocks]
    for field in ("E", "E_f", "E_d", "p", "p_f", "p_d", "delta_m", "v", "M_r", "V_r"):
        want = [getattr(s, field) for s in scalar]
        assert_elementwise(getattr(sol, field), want, np.abs(want))
    cev = [cev_check(photon, b, s) for b, s in zip(blocks, scalar)]
    assert_elementwise(v_before, [c[0] for c in cev], np.abs(v_before))
    assert_elementwise(v_after, [c[1] for c in cev], np.abs(v_before))


_STACK = {"eps1": 1.0, "eps2": 4.0, "eps3": 1.0, "d2_m": 1e-6, "omega_min_ev": 1.0,
          "omega_points": 1}
SWEEP_BASES = {
    "polariton-minkowski": ("polariton", {
        "energy_ev": 1.0, "n_min": 1.5, "n_max": 1.5, "n_points": 1, "mass_kg": 1.0,
        "length_m": 1.0, "convention": "minkowski"}),
    "polariton-general": ("polariton", {
        "energy_ev": 1.0, "n_min": 1.5, "n_max": 1.5, "n_points": 1, "mass_kg": 1.0,
        "length_m": 1.0, "convention": "general", "momentum_kgms": 2.0 * EV / C}),
    "cavity": ("cavity", {**_STACK, "eps3": 1.5, "in1": 1.0, "in3": 0.3}),
    "force-beam": ("force", {**_STACK, "mode": "beam", "in1": 1.0, "area_m2": 1.0,
                             "n_index": 1.5}),
    "force-thermal": ("force", {**_STACK, "mode": "thermal", "eps3": 2.0,
                                "t_left_k": 3000.0, "t_right_k": 300.0, "area_m2": 1.0}),
    "force-ar": ("force", {**_STACK, "mode": "ar", "n_index": 1.5, "in1": 1.0,
                           "area_m2": 1.0}),
}
# every float key of the three bases; the ranges reach the special points
# T = 0 (no thermal input) and n_index = 1 (the AR kappa limit)
SWEEP_RANGES = {
    "energy_ev": (0.5, 2.0), "n_min": (1.0, 3.0), "n_max": (1.0, 3.0),
    "mass_kg": (0.5, 2.0), "length_m": (0.5, 2.0), "momentum_kgms": (0.1 * EV / C, 5 * EV / C),
    "eps1": (1.0, 4.0), "eps2": (2.0, 12.0), "eps3": (1.0, 4.0), "d2_m": (1e-7, 2e-6),
    "omega_min_ev": (0.5, 2.5), "omega_max_ev": (3.0, 4.0), "in1": (0.5, 2.0),
    "in3": (0.0, 1.0), "t_left_k": (0.0, 6000.0), "t_right_k": (0.0, 600.0),
    "n_index": (1.0, 4.0), "area_m2": (0.5, 2.0),
}
# a swept occupation replaces the temperature of its side, and vice versa
# (AR mode reads in1 only)
_PARTNER = {"in1": "t_left_k", "t_left_k": "in1", "in3": "t_right_k", "t_right_k": "in3"}
# a beam needs eps1 == eps3, a fixed in1 and no right input
_BEAM_FIXED = {"eps1", "eps3", "in3", "t_left_k", "t_right_k"}
SWEEP_CASES = [
    (name, key)
    for name, (base, _) in SWEEP_BASES.items()
    for key, (parse, _) in _KEY_TABLES[base].items()
    if parse is float and not (name == "force-beam" and key in _BEAM_FIXED)
]


def _sweep_params(name, key, points):
    base, params = SWEEP_BASES[name]
    if name != "force-ar":
        params = {k: v for k, v in params.items() if k != _PARTNER.get(key)}
    lo, hi = SWEEP_RANGES[key]
    return {"base": base, "parameter": key, "min": lo, "max": hi, "points": points,
            "base_params": params}


@pytest.mark.parametrize("name, key", SWEEP_CASES)
def test_sweep_equals_per_point_runner_calls(name, key):
    # Each column's scale is the largest magnitude among the columns of its
    # unit, and at least 1 for dimensionless ones (residuals are O(1) sums).
    for points in (1, 7):
        params = _sweep_params(name, key, points)
        table = run_sweep(params)
        values = np.linspace(params["min"], params["max"], points)
        subs = [run_command(params["base"], {**params["base_params"], key: float(v)})
                for v in values]
        assert table.columns == [key] + subs[0].columns
        assert table.units == ["-"] + subs[0].units
        assert table.column(key) == values.tolist()
        want = np.array([sub.data[0] for sub in subs])
        units = np.array(subs[0].units)
        for j, unit in enumerate(units):
            scale = max(np.abs(want[:, units == unit]).max(), 1.0 if unit == "-" else 0.0)
            assert_elementwise(table.data[:, j + 1], want[:, j], scale)


@pytest.mark.parametrize("name, key", [
    ("polariton-general", "energy_ev"), ("cavity", "d2_m"), ("force-beam", "d2_m"),
    ("force-thermal", "t_right_k"), ("force-ar", "n_index"),
])
def test_sweep_rerun_from_json_is_byte_identical(name, key):
    text = run_sweep(_sweep_params(name, key, 50)).to_json()
    assert rerun_from_json(text).to_json() == text


def test_beam_law_fuzz_in_one_array_call():
    # 20 000 random beams over wide contrast: the |R1|^2 guard never trips
    rng = np.random.default_rng(20240817)
    cases = 20_000
    e_out = 10.0 ** rng.uniform(0.0, 4.0, cases)
    stack = LayerStack(e_out, 10.0 ** rng.uniform(0.0, 4.0, cases), e_out,
                       10.0 ** rng.uniform(-9.0, -2.0, cases))
    omega = rng.uniform(0.01, 10.0, cases) * EV / HBAR
    _, ratio = total_force_beam(stack, omega, 1.0, 1.0)
    assert ratio.shape == (cases,)
    assert np.all(np.abs(ratio - abs(composite(stack, omega).R1) ** 2) < REL)


def test_feasibility_error_names_first_row():
    photon = PhotonInput(omega=1.0 * EV / HBAR)
    block = MediumBlock(n=np.array([1.0, 1.0, 1.5, 2.0]), M=1e-40)
    with pytest.raises(FeasibilityError) as info:
        solve_transmission(photon, block, MINKOWSKI)
    assert info.value.row == 2


def test_resonance_guard_names_first_row():
    # n2 = 1e16 makes |r1 r2| = 1 - 4e-16; at a round-trip phase that is
    # a multiple of 2*pi to rounding, |1 + r1 r2 e| falls below 1e-14
    omega = 1.0 * EV / HBAR
    n2 = 1e16
    d_res = 3.0 * (2.0 * math.pi) / (2.0 * n2 * omega / C)
    stack = LayerStack(1.0, np.array([4.0, 4.0, n2**2, n2**2]), 1.0,
                       np.array([1e-6, 2e-6, d_res, d_res]))
    with pytest.raises(NumericalGuardError, match="degenerate resonance") as info:
        composite(stack, omega)
    assert info.value.row == 2


def test_stack_rejects_array_entry_naming_it():
    with pytest.raises(ValueError, match="eps2 must be real and >= 1, got 0.5"):
        LayerStack(1.0, np.array([4.0, 0.5]), 1.0, 1e-6)
    with pytest.raises(ValueError, match="d2 must be positive"):
        LayerStack(1.0, 4.0, 1.0, np.array([1e-6, np.inf]))


def test_table_finiteness_check_names_column_and_row():
    data = np.ones((3, 2))
    data[1, 1] = np.inf
    with pytest.raises(ValueError, match=r"non-finite value inf in column 'b' \(row 1\)"):
        ResultTable(columns=["a", "b"], units=["-", "-"], data=data)


def test_csv_bytes_match_per_value_formatting():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    data[0] = [0.0, -0.0, 1.0, -1e-320]
    table = ResultTable(columns=list("abcd"), units=list("-" * 4), data=data)
    rows = [",".join(f"{v:.16e}" for v in row) for row in data.tolist()]
    assert table.to_csv() == "\n".join(["a,b,c,d", "-,-,-,-"] + rows) + "\n"


def test_table_rejects_duplicate_column_naming_it():
    with pytest.raises(ValueError, match=r"^duplicate column 'a'$"):
        ResultTable(columns=["a", "b", "a"], units=["-"] * 3, data=np.ones((2, 3)))


# names need JSON escapes (quote, backslash, control and non-ASCII characters)
_NAMES = st.text(alphabet='ab"\\\n\u00e9\u2192\U0001f600', max_size=5)
_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, 1e16, 1e-5, -1e-5, 1e22, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_METADATA = st.dictionaries(_NAMES, st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_NAMES, inner, max_size=3),
    max_leaves=8,
), max_size=4)


@given(names=st.lists(_NAMES, unique=True, max_size=5), rows=st.integers(0, 20),
       metadata=_METADATA, draw=st.data())
@settings(max_examples=200, deadline=None)
def test_json_bytes_match_indent_encoder(names, rows, metadata, draw):
    width = len(names)
    values = draw.draw(st.lists(st.lists(_VALUES, min_size=width, max_size=width),
                                min_size=rows, max_size=rows))
    units = [name[::-1] for name in names]
    table = ResultTable(columns=names, units=units, metadata=metadata,
                        data=np.array(values, dtype=float).reshape(rows, width))
    payload = {"columns": names, "units": units, "metadata": metadata,
               "data": {name: [row[j] for row in values] for j, name in enumerate(names)}}
    assert table.to_json() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
