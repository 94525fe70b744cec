"""Array evaluation: every broadcasting function, called on a whole grid,
must equal its element-by-element scalar calls, and grid errors must name
the first offending row.

Scales are the ones the other test files use: O(1) for amplitudes and
photon numbers, 4*S*hbar*omega*rho0*(max occupation + 1) for forces
(acceptance criterion 8), and relative for the kinematics.
"""

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
    assert_elementwise(cc.denom, [c.denom for c in scalar], 1.0)

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
