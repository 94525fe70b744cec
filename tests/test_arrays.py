"""Array evaluation: every broadcasting function, called on a whole grid,
must equal its element-by-element scalar calls, and grid errors must name
the first offending row.

Scales are the ones the other test files use: O(1) for amplitudes and
photon numbers, 4*S*hbar*omega*rho0*(max occupation + 1) for forces
(acceptance criterion 8), and relative for the kinematics.
"""

import gc
import io
import json
import math
import re
import sys
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    general,
    net_force_pressure,
    photon_numbers,
    solve_transmission,
    total_force_beam,
)
from photonforces.cli import (
    _KEY_TABLES, _sweepable, load_config, main, rerun_from_json, run_command, run_sweep,
)
from photonforces.constants import C, EV, HBAR
from photonforces.errors import INDEX, NONNEGATIVE, POSITIVE, ConfigError, first_row, require
from photonforces import table as table_module
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


@given(eps=st.lists(st.tuples(eps_values, eps_values, eps_values), min_size=1, max_size=12))
@example(eps=[(1.0, 14.621633212572585, 1.0)])  # libm's pow(eps, 0.5) is an ulp off here
@settings(max_examples=100, deadline=None)
def test_fresnel_broadcasts_over_indices(eps):
    # a stack over arrays of eps1..eps3 holds, bit for bit, the amplitudes
    # of the scalar stacks
    arr = LayerStack(*np.array(eps).T, 1e-6)
    for field in ("r1", "r2", "t1", "t2", "intracavity"):
        want = [getattr(LayerStack(*e, 1e-6), field) for e in eps]
        assert np.array_equal(getattr(arr, field), want)


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
    for key, (parse, *_) in _KEY_TABLES[base].items()
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
        assert table.data[:, 0].tolist() == values.tolist()
        want = np.array([sub.data[0] for sub in subs])
        units = np.array(subs[0].units)
        for j, unit in enumerate(units):
            scale = max(np.abs(want[:, units == unit]).max(), 1.0 if unit == "-" else 0.0)
            assert_elementwise(table.data[:, j + 1], want[:, j], scale)


@pytest.mark.parametrize("name, key", [
    (name, key)
    for name, (base, _) in SWEEP_BASES.items()
    for key, (parse, *_) in _KEY_TABLES[base].items()
    if parse is float
])
def test_sweepable_keys_are_the_keys_the_base_reads(name, key):
    # a sweepable key changes some output column between the ends of its
    # range; any other float key changes none
    params = _sweep_params(name, key, 2)
    base, base_params = params["base"], params["base_params"]
    if key in _sweepable(base, base_params):
        try:
            data = run_sweep(params).data
        except ConfigError as exc:  # a beam rule on eps1, eps3 or the right input
            if not (name == "force-beam" and key in _BEAM_FIXED):
                raise
            assert re.fullmatch(rf"row \d \({key}=\S+\): beam mode requires .*", str(exc))
            return
        assert (data[0, 1:] != data[1, 1:]).any()
    else:
        ends = [run_command(base, {**base_params, key: value}).data
                for value in SWEEP_RANGES[key]]
        assert np.array_equal(*ends)


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


def test_require_names_first_failing_row():
    values = np.array([1.0, np.nan, -1.0])
    with pytest.raises(ConfigError, match=r"^x must be positive and finite, got nan$") as info:
        require("x", values, POSITIVE, ConfigError)
    assert info.value.row == 1
    with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got -1.0$"):
        require("x", values[[0, 2]], NONNEGATIVE)
    require("x", values[:1], INDEX)


def test_require_accepts_an_empty_array():
    assert first_row(np.array([], bool)) is None
    require("x", np.array([]), POSITIVE)


def test_table_finiteness_check_names_column_and_row():
    # a column-major scan would meet the nan at (2, 0) first; the CLI labels
    # the row, so the first non-finite value is taken in row-major order, by
    # the constructor and by `_from_columns`, which scans a column at a time
    data = np.ones((3, 2))
    data[1, 1] = np.inf
    data[2, 0] = np.nan
    for build in (ResultTable, lambda columns, units, data: ResultTable._from_columns(
            columns, units, list(data.T))):
        with pytest.raises(NumericalGuardError,
                           match=r"^non-finite value inf in column 'b'$") as info:
            build(["a", "b"], ["-", "-"], data)
        assert info.value.row == 1
    # one row, of numbers and 1-element arrays, checked in one call
    for values, message in (
            ([1.0, np.float64(-np.inf), 2.0], "-inf in column 'b'"),
            ([np.ones(1), 2.0, np.array([np.nan])], "nan in column 'c'"),
            ([np.array([np.inf]), 2.0, np.ones(1)], "inf in column 'a'")):
        with pytest.raises(NumericalGuardError, match=rf"^non-finite value {message}$") as info:
            ResultTable._from_columns(list("abc"), ["-"] * 3, values)
        assert info.value.row == 0


def test_table_data_is_a_new_array_of_the_values():
    # both constructors; -0.0 and a subnormal keep their bits
    data = np.arange(21.0).reshape(7, 3) - 10.0
    data[2, 1], data[4, 2] = -0.0, 5e-324
    names, units = ["a", "b", "c"], ["-"] * 3
    for table in (ResultTable(names, units, data),
                  ResultTable._from_columns(names, units, [data[:, j].copy() for j in range(3)])):
        got = table.data
        assert got.shape == (7, 3) and got.tobytes() == data.tobytes()
        assert table._column("b").tobytes() == data[:, 1].tobytes()
        got[0, 0] = 99.0  # a copy: the table keeps its values
        assert table.data.tobytes() == data.tobytes()
    assert ResultTable._from_columns([], [], []).data.shape == (0, 0)
    # one row of numbers is held as one 2-D array, the layout that keeps a
    # 1-row CLI call's peak heap down, and `data` is still a copy
    table = ResultTable._from_columns(names, units, [-10.0, np.float64(-0.0), 5e-324])
    assert isinstance(table._values, np.ndarray)
    got = table.data
    assert got.tobytes() == np.array([[-10.0, -0.0, 5e-324]]).tobytes()
    got[0, 0] = 99.0
    assert table.data[0, 0] == -10.0


@pytest.mark.parametrize("columns, values, message", [
    (["a", "b"], [np.ones(2)], r"^columns of shapes \[\(2,\)\] do not match 2 columns$"),
    (["a", "b"], [np.ones(2), np.ones(3)],
     r"^columns of shapes \[\(2,\), \(3,\)\] do not match 2 columns$"),
    (["a"], [np.ones((2, 1))], r"^columns of shapes \[\(2, 1\)\] do not match 1 columns$"),
])
def test_table_from_columns_rejects_mismatched_columns(columns, values, message):
    with pytest.raises(ValueError, match=message):
        ResultTable._from_columns(columns, ["-"] * len(columns), values)


@pytest.mark.parametrize("rows", [1, 2, 3, 40, table_module._CSV_BLOCK_ROWS + 1,
                                  table_module._JSON_BLOCK_VALUES + 1])
@pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -1.2345678901234567e-300])
def test_zero_stride_column_writes_the_bytes_of_the_full_array(rows, value):
    # a column held as a zero-stride view of its one value, as the CLI
    # holds one, writes what the full column writes, and what the 2-D
    # constructor's table of the same values writes
    rng = np.random.default_rng(rows)
    varying = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    names, units = ["b", "a", "c"], ["-"] * 3
    full = [varying, np.full(rows, value), -varying]
    view = [varying, np.broadcast_to(value, (rows,)), -varying]
    number = [varying, value, -varying]  # a Python float, laid out by the table
    for fmt in ("csv", "json"):
        want = _text(ResultTable(names, units, np.stack(full, axis=1)), fmt)
        assert _text(ResultTable._from_columns(names, units, full), fmt) == want
        assert _text(ResultTable._from_columns(names, units, view), fmt) == want
        assert _text(ResultTable._from_columns(names, units, number), fmt) == want


def _text(table, fmt):
    """The table's text as a string: `to_json()`, or what `write_csv` writes."""
    if fmt == "json":
        return table.to_json()
    fh = io.StringIO()
    table.write_csv(fh)
    return fh.getvalue()


def test_csv_bytes_match_per_value_formatting():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-300, 300, (50, 4))
    data[0] = [0.0, -0.0, 1.0, -1e-320]
    table = ResultTable(columns=list("abcd"), units=list("-" * 4), data=data)
    rows = [",".join(f"{v:.16e}" for v in row) for row in data.tolist()]
    assert _text(table, "csv") == "\n".join(["a,b,c,d", "-,-,-,-"] + rows) + "\n"


def _per_value_csv(data):
    width = data.shape[1]
    head = ",".join(f"c{j}" for j in range(width))
    rows = [",".join(f"{v:.16e}" for v in row) for row in data.tolist()]
    return "\n".join([head, ",".join("-" * width)] + rows) + "\n"


def _csv(data):
    width = data.shape[1]
    table = ResultTable(columns=[f"c{j}" for j in range(width)], units=["-"] * width, data=data)
    return _text(table, "csv")


# one row; just under and over the array encoder's crossover; and one block
# of rows less, exactly and more
_BLOCK = table_module._CSV_BLOCK_ROWS
_CROSS = table_module._CSV_MIN_VALUES
_CSV_SHAPES = [(1, 1), (1, 12), (_CROSS - 1, 1), (_CROSS + 1, 1), (_BLOCK - 1, 3),
               (_BLOCK, 3), (_BLOCK + 1, 3)]


@given(shape=st.sampled_from(_CSV_SHAPES), draw=st.data())
@settings(max_examples=60, deadline=None)
def test_csv_encoder_writes_per_value_text(shape, draw):
    values = draw.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    data = np.array(values, dtype=float).reshape(shape)
    assert _csv(data) == _per_value_csv(data)


# doubles whose 17-digit scaled value s lies within 2.6e-5 to 3.9e-3 of a
# rounding tie, closer than a long double product of |x| and 10**(16 - E)
# can tell (found by a search over random bit patterns; the second set has
# E in -11..16, where the power is exact in a long double, and such a
# product rounds them onto the tie); the float64 double-double product of
# `_scale` places each within 2**-44 and rounds it itself
_NEAR_TIES = [
    6.831333660193826e-211, 6.419902486112994e-239, -3.160902468330413e+47,
    3.287273333893786e+109, 3.4119541713983098e-308, -6.814010853017351e+255,
    -7.038921089302648e-71, -6.486323152423617e-208, -6.851959420731789e+46,
    5.999810389393832e+59, 3.5868167662847037e-208, -5.921620824555604e+208,
    853089337290.7692, 0.0003941839992666732, 86.54073676158598, 745573968631.3004,
    -3.8189526433784316e-10, 9.538571837445806e-10, -0.0639915502941678, 9462931.969572566,
    -0.0005786917317313657, 94128.87162035519, -97536011.11562704, -0.8306455995923593,
]


def _csv_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ints = np.array([2**k + i for k in range(53, 61) for i in (-1, 0, 1)], dtype=float)
    # m / 2**k with exactly 18 significant digits: the 18th is a 5, a tie
    dyadic = [m * 2.0**-k for m in range(1, 256, 2) for k in range(20, 64)]
    ties = [v for v in dyadic if len(Decimal(v).as_tuple().digits) == 18]
    values = np.concatenate([
        [0.0, -0.0, 5e-324, np.finfo(float).max],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ints, np.linspace(2.0**53, 2.0**60, 400).round(), ties, _NEAR_TIES,
    ])
    values = np.concatenate([values, -values])
    return np.resize(values, (len(values) + 7) // 8 * 8).reshape(-1, 8)


def test_csv_encoder_edge_values():
    data = _csv_edge_values()
    assert _csv(data) == _per_value_csv(data)


def test_csv_exact_path_alone_writes_the_same_bytes(monkeypatch):
    # an infinite ambiguity band sends every nonzero value to `%`
    monkeypatch.setattr(table_module, "_BAND", np.inf)
    data = _csv_edge_values()
    assert _csv(data) == _per_value_csv(data)


def test_scale_powers_are_within_their_bound():
    # per E: p * (1 + r) within 2**-105 of 10**(16 - E) / 2**t, relative; p
    # near 2**53 and its high half, from `_high`, of at most 26 bits
    rows, ratios = table_module._powers()
    exps = range(table_module._EXP_MIN, table_module._EXP_MAX + 1)
    assert len(rows) == len(ratios) == len(exps)
    for e, (two_t, p), r in zip(exps, rows.tolist(), ratios.tolist()):
        power = Fraction(10) ** (16 - e) / Fraction(two_t)
        got = Fraction(p) * (1 + Fraction(r))
        assert abs(got - power) <= power * Fraction(1, 2**105), e
        assert 1e14 < p < 1e34, e
        high = float(table_module._high(np.array([p]))[0])
        assert _significant_bits(high) <= 26 and _significant_bits(p - high) <= 27, e


def _significant_bits(v):
    n = abs(v.as_integer_ratio()[0])
    return (n // (n & -n)).bit_length() if n else 0


def _scale_errors(x):
    # |d + frac - |x| * 10**(16 - E)| per nonzero x, correctly rounded, in
    # scaled units; in Python ints, as Fractions take seconds for these
    zero, k, d, frac, short = table_module._scale(x)
    assert not short.size
    errors = []
    for v, e, whole, part in zip(np.abs(x).tolist(), k.tolist(), d.tolist(), frac.tolist()):
        if v:
            n = 16 - e - table_module._EXP_MIN
            num, den = v.as_integer_ratio()
            num, den = num * 10 ** max(n, 0), den * 10 ** max(-n, 0)
            assert 10**16 * den <= num < 10**17 * den
            top, bottom = part.as_integer_ratio()
            errors.append(abs((whole * bottom + top) * den - num * bottom) / (bottom * den))
    return errors


def test_scale_is_within_an_eighth_of_the_band():
    # random bit patterns, subnormals, powers of ten from 1e-323 to 1e308 and
    # their neighbours, and the near-ties
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float)
    subnormal = rng.integers(1, 2**52, 2000, dtype=np.uint64).view(float)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    with np.errstate(over="ignore"):
        up = np.nextafter(powers, np.inf)
    x = np.concatenate([bits[np.isfinite(bits)], subnormal, [5e-324], powers,
                        np.nextafter(powers, 0.0), up, _NEAR_TIES])
    assert max(_scale_errors(x)) <= table_module._BAND / 8


def test_table_rejects_duplicate_column_naming_it():
    with pytest.raises(ValueError, match=r"^duplicate column 'a'$"):
        ResultTable(columns=["a", "b", "a"], units=["-"] * 3, data=np.ones((2, 3)))


@pytest.mark.parametrize("units, data, message", [
    (["-"], np.ones((2, 2)), r"^columns and units must have the same length$"),
    (["-", "-"], np.ones((2, 3)), r"^data of shape \(2, 3\) does not match 2 columns$"),
    (["-", "-"], np.ones(2), r"^data of shape \(2,\) does not match 2 columns$"),
])
def test_table_rejects_mismatched_units_and_shape(units, data, message):
    with pytest.raises(ValueError, match=message):
        ResultTable(columns=["a", "b"], units=units, data=data)


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


def _json_column(rows):
    """Drawn values; one value repeated; or one repeated but for one row."""
    def one_differs(args):
        value, other, i = args
        return [value] * i + [other] + [value] * (rows - i - 1)

    return st.one_of(
        st.lists(_VALUES, min_size=rows, max_size=rows),
        _VALUES.map(lambda value: [value] * rows),
        st.tuples(_VALUES, _VALUES, st.integers(0, rows - 1)).map(one_differs) if rows
        else st.just([]),
    )


@given(names=st.lists(_NAMES, unique=True, max_size=5), rows=st.integers(0, 20),
       metadata=_METADATA, draw=st.data())
@settings(max_examples=200, deadline=None)
def test_json_bytes_match_indent_encoder(names, rows, metadata, draw):
    columns = [draw.draw(_json_column(rows)) for _ in names]
    units = [name[::-1] for name in names]
    table = ResultTable(columns=names, units=units, metadata=metadata,
                        data=np.array(columns, dtype=float).reshape(len(names), rows).T)
    payload = {"columns": names, "units": units, "metadata": metadata,
               "data": dict(zip(names, columns))}
    assert table.to_json() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _json_pair(data):
    """`to_json` of a table of `data`, and the same payload through
    `json.dumps`, which writes each value as `float.__repr__`."""
    names = [f"c{j}" for j in range(data.shape[1])]
    table = ResultTable(columns=names, units=["-"] * len(names), data=data)
    payload = {"columns": names, "units": table.units, "metadata": {},
               "data": dict(zip(names, data.T.tolist()))}
    return table.to_json(), json.dumps(payload, indent=2, sort_keys=True) + "\n"


# one value; just under, at and over the array encoder's crossover; one
# block less, exactly and more; and columns that end inside a block
_JSON_BLOCK = table_module._JSON_BLOCK_VALUES
_JSON_CROSS = table_module._JSON_MIN_VALUES
_JSON_SHAPES = [(1, 1), (_JSON_CROSS - 1, 1), (_JSON_CROSS, 1), (_JSON_CROSS + 1, 1),
                (_JSON_BLOCK - 1, 1), (_JSON_BLOCK, 1), (_JSON_BLOCK + 1, 1),
                (_JSON_CROSS // 7 + 1, 7), (_JSON_BLOCK // 3 + 1, 5)]


@given(shape=st.sampled_from(_JSON_SHAPES),
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                       max_size=300))
@settings(max_examples=80, deadline=None)
def test_json_encoder_writes_repr(shape, values):
    # the drawn values repeat to fill the shape, so that every size is reached
    data = np.resize(np.array(values, dtype=float), shape)
    text, want = _json_pair(data)
    assert text == want


def _json_edge_values():
    powers = np.concatenate([[float(f"1e{k}") for k in range(-323, 309)],
                             np.ldexp(1.0, np.arange(-1074, 1024))])
    near = np.array([1e-5, 1e-4, 1e16, 9999999999999998.0, 5e-324, np.finfo(float).max])
    ints = np.array([2**k + i for k in range(53, 61) for i in (-1, 0, 1)], dtype=float)
    with np.errstate(over="ignore"):  # the neighbour above the largest double is inf
        up = np.nextafter(np.concatenate([near, powers]), np.inf)
    values = np.concatenate([
        [0.0, 0.1, 0.3], near, powers, np.nextafter(near, 0.0), np.nextafter(powers, 0.0),
        up[np.isfinite(up)], ints, np.linspace(2.0**53, 2.0**60, 400).round(),
        np.linspace(0.5, 2.5, 500), np.linspace(1e-7, 1e-6, 500), np.linspace(-3.0, 3.0, 61),
    ])
    return np.concatenate([values, -values]).reshape(-1, 2)


def test_json_encoder_edge_values():
    text, want = _json_pair(_json_edge_values())
    assert text == want


# the sorted columns of each table: "c" one value in every row, "v" varying;
# constant columns first, last and between runs of varying ones, and every
# column constant
_CONSTANT_PATTERNS = ["ccvvcvccvc", "vcv", "cvc", "ccc"]
# each constant's `repr`: 5e-324, 1e16 and 9999999999999998.0 are exact-path
# values of the encoder
_CONSTANTS = [5e-324, 1e16, 9999999999999998.0, -0.0, 0.0, 0.1, -2.5e-310, 1e22, -3.0, 1e-5]


# 0, 1 and 2 rows; then varying runs that end inside a block, on a block end
# (a quarter block of rows, 4 varying columns) and across several blocks;
# and constant columns of more separators than a block (a block and 2 rows)
@pytest.mark.parametrize("rows", [0, 1, 2, 3, 341, 512, 700, 1025, 2100, _JSON_BLOCK // 4,
                                  _JSON_BLOCK + 2])
@pytest.mark.parametrize("pattern", _CONSTANT_PATTERNS)
def test_json_constant_columns_match_indent_encoder(monkeypatch, pattern, rows):
    rng = np.random.default_rng(rows)
    shape = (rows, len(pattern))
    data = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    constant = [j for j, kind in enumerate(pattern) if kind == "c"]
    data[:, constant] = _CONSTANTS[:len(constant)]
    encoded = []
    values = table_module._json_values
    monkeypatch.setattr(table_module, "_json_values",
                        lambda x, *args: encoded.append(x.size) or values(x, *args))
    text, want = _json_pair(data)
    assert text == want
    # a table of two rows or more encodes none of its constant columns
    varying = len(pattern) - (len(constant) if rows > 1 else 0)
    assert sum(encoded) == rows * varying


@pytest.mark.parametrize("rows", [2, 5, 600])
@pytest.mark.parametrize("value, other", [(0.0, -0.0), (-0.0, 0.0)])
def test_json_zero_column_with_one_zero_of_the_other_sign(rows, value, other):
    # the two zeros compare equal but are different values, so the column varies
    data = np.full((rows, 2), value)
    data[rows // 2, 1] = other
    text, want = _json_pair(data)
    assert text == want


def test_json_exact_path_alone_writes_the_same_bytes(monkeypatch):
    # an infinite ambiguity band sends every nonzero value to `repr`
    monkeypatch.setattr(table_module, "_BAND", np.inf)
    text, want = _json_pair(_json_edge_values())
    assert text == want


def test_json_encoder_decides_most_values_itself():
    # 13 of the 20 000 go to `repr`
    rng = np.random.default_rng(11)
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-300, 300, 20_000)
    assert np.count_nonzero(table_module._shortest(x)[3]) < 0.005 * x.size


# (rows, columns): empty tables, 256 rows and their neighbours, a CSV block
# of rows and its neighbours, column ends just before, on and just past 1024
# values, a JSON block of values and its neighbours (a column end on a block
# end and either side of it), a table of many blocks of each, and one of
# several rows but fewer values than the CSV encoder takes
_WRITER_SHAPES = [(0, 0), (3, 0), (0, 3), (1, 1), (1, 10), (_CROSS // 10 - 1, 10),
                  (255, 4), (256, 4), (257, 4),
                  (_BLOCK - 1, 4), (_BLOCK, 4), (_BLOCK + 1, 4),
                  (1023, 1), (1024, 1), (1025, 1), (341, 3), (512, 2), (205, 5),
                  (_JSON_BLOCK - 1, 1), (_JSON_BLOCK, 1), (_JSON_BLOCK + 1, 1), (5000, 10)]


def _writer_table(rows, cols):
    rng = np.random.default_rng(rows * 100 + cols)
    data = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-30, 30, (rows, cols))
    data[::7] = 0.0
    return ResultTable(columns=[f"c{j}" for j in range(cols)], units=["-"] * cols, data=data,
                       metadata={"rows": rows, "note": "é \" \\"})


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows, cols", _WRITER_SHAPES)
def test_writer_to_a_file_gives_the_bytes_of_the_text(tmp_path, rows, cols, fmt):
    # a text file, a binary file and a BytesIO get the bytes of the text
    # that a StringIO gets
    table = _writer_table(rows, cols)
    write = getattr(table, f"write_{fmt}")
    text = _text(table, fmt).encode()
    for mode, encoding in (("w", "utf-8"), ("wb", None)):
        path = tmp_path / f"out.{fmt}"
        with open(path, mode, encoding=encoding) as fh:
            write(fh)
        assert path.read_bytes() == text, mode
    fh = io.BytesIO()
    write(fh)
    assert fh.getvalue() == text


class _Writes:
    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))

    def writelines(self, texts):
        for text in texts:
            self.write(text)


@pytest.mark.parametrize("fmt, block", [("csv", _BLOCK * 10 * 25), ("json", _JSON_BLOCK * 32)])
def test_writer_never_holds_more_than_a_block(fmt, block):
    # tables of more than ten blocks of either format (6144 rows); the second
    # has constant columns, whose JSON text is one value's repeated: a
    # column of it is more than a block
    rows = 12 * _BLOCK
    table = _writer_table(rows, 10)
    data = table.data
    data[:, [3, 9]] = [0.1, -1.2345678901234567e-300]
    constant = ResultTable(table.columns, table.units, data, table.metadata)
    for table in (_writer_table(rows, 10), constant):
        fh = _Writes()
        getattr(table, f"write_{fmt}")(fh)
        assert sum(fh.sizes) == len(_text(table, fmt))
        assert max(fh.sizes) <= block < sum(fh.sizes) / 10


def test_csv_encoder_scratch_per_value_is_pinned():
    # one call on a full block of mixed-exponent values peaks 52.2 bytes a
    # value above its input (the scaling's five arrays of doubles, the digit
    # groups, and the slots with their bytes, each array dropped once used);
    # the bound leaves a margin of 10%
    rng = np.random.default_rng(28)
    x = rng.standard_normal((_BLOCK, 10)) * 10.0 ** rng.integers(-30, 30, (_BLOCK, 10))
    table_module._csv_rows(x)  # lookup tables built untraced
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table_module._csv_rows(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 58 * x.size


def test_json_encoder_scratch_per_value_is_pinned():
    # one call on a full block of mixed-exponent values peaks 116.5 bytes a
    # value above its input (the slots and their bytes, as the pad bytes are
    # deleted); the bound leaves a margin of 10%
    rng = np.random.default_rng(26)
    x = rng.standard_normal(_JSON_BLOCK) * 10.0 ** rng.integers(-30, 30, _JSON_BLOCK)
    table_module._json_values(x, _JSON_BLOCK - 1, _JSON_BLOCK)  # lookup tables built untraced
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table_module._json_values(x, _JSON_BLOCK - 1, _JSON_BLOCK)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 128 * _JSON_BLOCK


_GRID_CONFIG = """
[polariton]
energy_ev = 1.0
n_min = 1.0
n_max = 3.0
n_points = 5000
convention = minkowski

[cavity]
eps2 = 4.0
d2_m = 1e-6
omega_min_ev = 0.5
omega_max_ev = 2.5
omega_points = 5000
in1 = 1.0
in3 = 0.5

[force]
mode = beam
n_index = 1.5
eps2 = 4.0
d2_m = 1e-6
omega_min_ev = 0.5
omega_max_ev = 2.5
omega_points = 5000
in1 = 1.0
"""


_GRID_KINDS = [
    ("polariton", []), ("cavity", []), ("force", []),
    ("force", ["mode=thermal", "in1=", "t_left_k=3000", "t_right_k=300"]),
]


def test_csv_encoder_decides_most_values_itself(tmp_path):
    # on the four 5000-row grid tables no value goes to `%`
    config = tmp_path / "run.ini"
    config.write_text(_GRID_CONFIG)
    for command, overrides in _GRID_KINDS:
        table = run_command(command, load_config(str(config), command, overrides))
        exact = table_module._nearest(table.data.ravel())[2]
        assert np.count_nonzero(exact) == 0, (command, overrides)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command, overrides", _GRID_KINDS,
                         ids=["polariton", "cavity", "beam", "thermal"])
def test_grid_run_holds_at_most_two_and_a_half_tables(tmp_path, command, overrides, fmt):
    # a grid run keeps its table, the columns being assembled and one
    # encoder block: its heap peaks below 2.5 tables (README: 1.40-2.22
    # tables at 5000 rows)
    config = tmp_path / "run.ini"
    config.write_text(_GRID_CONFIG)
    argv = [command, "--config", str(config), "--out", str(tmp_path / f"out.{fmt}"),
            "--format", fmt, *overrides]
    table = run_command(command, load_config(str(config), command, overrides))
    assert table.data.shape[0] == 5000
    assert main(argv) == 0  # the writers' lookup tables are built once, untraced
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * table.data.nbytes


def _traced_peak(call):
    """The tracemalloc peak of `call()`, in bytes above the heap before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _grid_args(tmp_path, command, overrides, rows):
    config = tmp_path / "run.ini"
    config.write_text(_GRID_CONFIG)
    points = "n_points" if command == "polariton" else "omega_points"
    return str(config), [*overrides, f"{points}={rows}"]


@pytest.mark.parametrize("rows", [5000, 20_000])
@pytest.mark.parametrize("command, overrides", _GRID_KINDS,
                         ids=["polariton", "cavity", "beam", "thermal"])
def test_grid_compute_holds_at_most_one_and_three_quarter_tables(tmp_path, command, overrides,
                                                                 rows):
    # the table holds the runner's own column arrays, and each intermediate
    # is freed once its column exists: run_command peaks at 1.10-1.57 tables
    # (README)
    config, overrides = _grid_args(tmp_path, command, overrides, rows)
    params = load_config(config, command, overrides)
    table = run_command(command, params)
    assert len(table.data) == rows
    assert _traced_peak(lambda: run_command(command, params)) <= 1.75 * table.data.nbytes


@pytest.mark.parametrize("rows, fmt, tables", [(5000, "csv", 2.0), (20_000, "csv", 1.75),
                                               (20_000, "json", 1.75)])
@pytest.mark.parametrize("command, overrides", _GRID_KINDS,
                         ids=["polariton", "cavity", "beam", "thermal"])
def test_grid_run_holds_its_table_and_one_block(tmp_path, command, overrides, rows, fmt, tables):
    # a run writes its table a block at a time: its peak is the table and one
    # encoder block, 1.40-1.81 tables for CSV at 5000 rows, where a 512-row
    # block is large beside the table, and under the compute's peak at
    # 20 000 rows (README)
    config, overrides = _grid_args(tmp_path, command, overrides, rows)
    argv = [command, "--config", config, "--out", str(tmp_path / f"out.{fmt}"),
            "--format", fmt, *overrides]
    table = run_command(command, load_config(config, command, overrides))
    assert main(argv) == 0  # the writers' lookup tables are built once, untraced
    assert _traced_peak(lambda: main(argv)) <= tables * table.data.nbytes


# the cavity grid, whose JSON has four constant columns, run for one row,
# several rows of fewer values than the CSV encoder takes, a CSV block of
# rows and its neighbours, and several blocks of either format
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [1, _CROSS // 10 - 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 1300])
def test_every_sink_gets_the_same_bytes(tmp_path, capfdbinary, monkeypatch, rows, fmt):
    config = tmp_path / "run.ini"
    config.write_text(_GRID_CONFIG)
    argv = ["cavity", "--config", str(config), "--format", fmt, f"omega_points={rows}"]
    table = run_command("cavity", load_config(str(config), "cavity", argv[5:]))
    want = _text(table, fmt).encode()  # a StringIO's
    write = getattr(table, f"write_{fmt}")
    path = tmp_path / f"out.{fmt}"
    with open(path, "w", encoding="utf-8") as fh:
        write(fh)
    assert path.read_bytes() == want
    fh = io.BytesIO()
    write(fh)
    assert fh.getvalue() == want
    # the CLI's --out and stdout, and a stdout that has no binary buffer
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == want
    capfdbinary.readouterr()
    assert main(argv) == 0
    assert capfdbinary.readouterr() == (want, b"")
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert main(argv) == 0
    assert sys.stdout.getvalue().encode() == want


def test_stdout_in_an_encoding_of_other_bytes_is_written_as_text(tmp_path, monkeypatch):
    # UTF-16 writes "\n" as two bytes after a byte-order mark, so the CLI
    # gives such a stdout the text, which it encodes
    config = tmp_path / "run.ini"
    config.write_text(_GRID_CONFIG)
    argv = ["cavity", "--config", str(config), "omega_points=600"]
    table = run_command("cavity", load_config(str(config), "cavity", argv[3:]))
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-16")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(argv) == 0
    assert stdout.buffer.getvalue() == _text(table, "csv").encode("utf-16")
