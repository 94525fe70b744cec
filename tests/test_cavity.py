"""Tests for the three-layer stack: interface amplitudes and photon numbers.

The composite amplitudes are cross-checked against an independent
transfer-matrix evaluation of the same stack, and the photon numbers
against directional flux conservation (a lossless stack neither creates
nor destroys photons).
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonforces import LayerStack, bose_einstein, cavity, composite, photon_numbers
from photonforces.constants import C, EV, HBAR, KB

REL = 1e-12

eps_values = st.floats(min_value=1.0, max_value=16.0)
widths = st.floats(min_value=1e-8, max_value=1e-4)
energies_ev = st.floats(min_value=0.01, max_value=10.0)
occupations = st.floats(min_value=0.0, max_value=10.0)


def tmm_reflection_transmission(stack, omega):
    """Independent transfer-matrix route to the stack amplitudes.

    Builds the 2x2 characteristic matrix from interface and propagation
    matrices and extracts r and t for left incidence.
    """
    n = [stack.n1, stack.n2, stack.n3]
    k2 = stack.n2 * omega / C

    def interface(na, nb):
        r = (na - nb) / (na + nb)
        t = 2 * na / (na + nb)
        return np.array([[1.0, r], [r, 1.0]], dtype=complex) / t

    prop = np.array(
        [[cmath.exp(-1j * k2 * stack.d2), 0.0], [0.0, cmath.exp(1j * k2 * stack.d2)]]
    )
    m = interface(n[0], n[1]) @ prop @ interface(n[1], n[2])
    t = 1.0 / m[0, 0]
    r = m[1, 0] / m[0, 0]
    return r, t


class TestFresnel:
    """The stack's left-incidence amplitudes r1, t1 (interface n1|n2) and
    r2, t2 (n2|n3)."""

    def test_no_interface(self):
        stack = LayerStack(2.0, 2.0, 2.0, 1e-6)
        assert stack.r1 == stack.r2 == 0.0
        assert stack.t1 == stack.t2 == 1.0

    def test_vacuum_to_n2(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        assert stack.r1 == pytest.approx(-1.0 / 3.0, rel=REL)
        assert stack.t1 == pytest.approx(2.0 / 3.0, rel=REL)
        assert stack.r2 == pytest.approx(1.0 / 3.0, rel=REL)
        assert stack.t2 == pytest.approx(4.0 / 3.0, rel=REL)

    def test_antisymmetry_under_swap(self):
        stack = LayerStack(4.0, 1.0, 4.0, 1e-6)
        assert stack.r1 == pytest.approx(1.0 / 3.0, rel=REL)
        assert stack.r2 == pytest.approx(-1.0 / 3.0, rel=REL)

    @given(na=st.floats(min_value=1.0, max_value=4.0),
           nb=st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_stokes_relation(self, na, nb):
        # t t' - r r' = 1 with r' = -r and t' = (n_b/n_a) t is the
        # per-interface energy balance r^2 + (n_b/n_a) t^2 = 1
        stack = LayerStack(na * na, nb * nb, na * na, 1e-6)
        for r, t, ratio in ((stack.r1, stack.t1, stack.n2 / stack.n1),
                            (stack.r2, stack.t2, stack.n3 / stack.n2)):
            assert r * r + ratio * t * t == pytest.approx(1.0, rel=REL)
            assert abs(r) <= 1.0
        assert stack.r2 == -stack.r1


class TestComposite:
    def test_empty_cavity(self):
        stack = LayerStack(1.0, 1.0, 1.0, 1e-6)
        cc = composite(stack, 1.0 * EV / HBAR)
        assert abs(cc.R1) == 0.0
        assert abs(cc.T1 * cc.T2) == pytest.approx(1.0, rel=REL)

    def test_quarter_wave_slab(self):
        lam0 = 1e-6
        omega = 2 * math.pi * C / lam0
        stack = LayerStack(1.0, 4.0, 1.0, lam0 / (4 * 2.0))
        cc = composite(stack, omega)
        assert abs(cc.R1) ** 2 == pytest.approx(0.36, rel=1e-10)
        # verified through the lossless identity as well
        assert abs(cc.R1) ** 2 + abs(cc.T1 * cc.T2) ** 2 == pytest.approx(1.0, rel=REL)

    def test_half_wave_slab_transparent(self):
        omega = 1.0 * EV / HBAR
        d2 = math.pi / (2.0 * omega / C)  # k2*d2 = pi with n2 = 2
        cc = composite(LayerStack(1.0, 4.0, 1.0, d2), omega)
        assert abs(cc.R1) ** 2 < 1e-24

    @given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev)
    @settings(max_examples=300, deadline=None)
    def test_lossless_identity(self, e1, e2, e3, d2, hw):
        stack = LayerStack(e1, e2, e3, d2)
        cc = composite(stack, hw * EV / HBAR)
        ident = abs(cc.R1) ** 2 + (stack.n3 / stack.n1) * abs(cc.T1 * cc.T2) ** 2
        assert ident == pytest.approx(1.0, rel=REL)

    @given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev)
    @settings(max_examples=200, deadline=None)
    def test_matches_transfer_matrix(self, e1, e2, e3, d2, hw):
        stack = LayerStack(e1, e2, e3, d2)
        omega = hw * EV / HBAR
        cc = composite(stack, omega)
        r_tmm, t_tmm = tmm_reflection_transmission(stack, omega)
        assert abs(cc.R1) ** 2 == pytest.approx(abs(r_tmm) ** 2, rel=1e-9, abs=1e-12)
        assert abs(cc.T1 * cc.T2) ** 2 == pytest.approx(
            abs(t_tmm) ** 2, rel=1e-9, abs=1e-12
        )


class TestPhotonNumbers:
    def test_equilibrium_fixed_point(self):
        stack = LayerStack(2.0, 9.0, 5.0, 3e-6)
        nu = 1.37
        pn = photon_numbers(stack, 1.0 * EV / HBAR, nu, nu)
        for v in (pn.n1p, pn.n1m, pn.n2p, pn.n2m, pn.n3p, pn.n3m):
            assert v == pytest.approx(nu, rel=REL)

    def test_empty_cavity_free_propagation(self):
        stack = LayerStack(1.0, 1.0, 1.0, 1e-6)
        pn = photon_numbers(stack, 1.0 * EV / HBAR, 1.0, 0.0)
        assert pn.n1m == 0.0
        assert pn.n2p == pytest.approx(1.0, rel=REL)
        assert pn.n3p == pytest.approx(1.0, rel=REL)
        assert pn.n2m == 0.0

    def test_half_wave_slab_transparency(self):
        omega = 1.0 * EV / HBAR
        d2 = math.pi / (2.0 * omega / C)
        pn = photon_numbers(LayerStack(1.0, 4.0, 1.0, d2), omega, 1.0, 0.0)
        assert pn.n1m == pytest.approx(0.0, abs=1e-24)
        assert pn.n3p == pytest.approx(1.0, rel=REL)
        assert 0.0 <= pn.n2p <= 1.0
        assert 0.0 <= pn.n2m <= 1.0

    @given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev,
           in1=occupations, in3=occupations)
    @settings(max_examples=300, deadline=None)
    def test_betweenness(self, e1, e2, e3, d2, hw, in1, in3):
        pn = photon_numbers(LayerStack(e1, e2, e3, d2), hw * EV / HBAR, in1, in3)
        lo, hi = min(in1, in3), max(in1, in3)
        slack = 1e-12 * max(1.0, hi)
        for v in (pn.n1p, pn.n1m, pn.n2p, pn.n2m, pn.n3p, pn.n3m):
            assert lo - slack <= v <= hi + slack

    @given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev,
           in1=occupations, in3=occupations)
    @settings(max_examples=200, deadline=None)
    def test_flux_conservation(self, e1, e2, e3, d2, hw, in1, in3):
        # lossless stack: outgoing photon flux equals incoming flux
        pn = photon_numbers(LayerStack(e1, e2, e3, d2), hw * EV / HBAR, in1, in3)
        assert pn.n1m + pn.n3p == pytest.approx(in1 + in3, rel=REL, abs=1e-12)

    @given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev,
           in1=occupations, in3=occupations, a=st.floats(0.1, 3.0), b=st.floats(0.1, 3.0))
    @settings(max_examples=200, deadline=None)
    def test_linearity(self, e1, e2, e3, d2, hw, in1, in3, a, b):
        stack = LayerStack(e1, e2, e3, d2)
        omega = hw * EV / HBAR
        p1 = photon_numbers(stack, omega, in1, 0.0)
        p3 = photon_numbers(stack, omega, 0.0, in3)
        both = photon_numbers(stack, omega, a * in1, b * in3)
        for field in ("n1m", "n2p", "n2m", "n3p"):
            combined = a * getattr(p1, field) + b * getattr(p3, field)
            assert getattr(both, field) == pytest.approx(
                combined, rel=1e-12, abs=1e-12
            )

    @given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev,
           in1=occupations, in3=occupations)
    @settings(max_examples=300, deadline=None)
    def test_record_matches_the_amplitudes(self, e1, e2, e3, d2, hw, in1, in3):
        stack = LayerStack(e1, e2, e3, d2)
        omega = hw * EV / HBAR
        cc = composite(stack, omega)
        pn = photon_numbers(stack, omega, in1, in3)
        assert pn.R1_sq == pytest.approx(abs(cc.R1) ** 2, rel=REL)
        assert pn.T_sq == pytest.approx(
            (stack.n3 / stack.n1) * abs(cc.T1 * cc.T2) ** 2, rel=REL)
        assert pn.totals == (
            0.5 * (pn.n1p + pn.n1m), 0.5 * (pn.n2p + pn.n2m), 0.5 * (pn.n3p + pn.n3m))
        # n1m's in3 term from the right-incidence amplitudes: reciprocity
        # makes it the left-incidence transmittance T_sq
        n1, n2, n3 = stack.n1, stack.n2, stack.n3
        t1_p, t2_p = 2.0 * n2 / (n1 + n2), 2.0 * n3 / (n2 + n3)
        right = (n1 / n3) * (t1_p * t2_p) ** 2 * abs(cc.nu2) ** 2
        assert photon_numbers(stack, omega, 0.0, in3).n1m == pytest.approx(
            right * in3, rel=REL)

    def test_reciprocity_equal_outer_layers(self):
        stack = LayerStack(2.5, 7.0, 2.5, 3e-6)
        omega = 1.3 * EV / HBAR
        forward = photon_numbers(stack, omega, 1.0, 0.0).n3p
        backward = photon_numbers(stack, omega, 0.0, 1.0).n1m
        assert forward == pytest.approx(backward, rel=REL)

    @given(e1=eps_values, e2=st.floats(min_value=1.0, max_value=1e32), e3=eps_values,
           d2=st.lists(widths, min_size=2, max_size=8), hw=energies_ev,
           in1=occupations, in3=occupations)
    @settings(max_examples=300, deadline=None)
    def test_intracavity_numbers_are_phase_free(self, e1, e2, e3, d2, hw, in1, in3):
        # |nu2|^2 / Re[1 + 2 R1' R2 nu2 e] = 1 / (1 - r1^2 r2^2) for a lossless
        # stack, so n2+ and n2- do not move with d2 or omega, up to eps2 = 1e32
        d2 = np.array(d2)
        omega = hw * EV / HBAR * np.linspace(1.0, 2.0, d2.size)
        pn = photon_numbers(LayerStack(e1, e2, e3, d2), omega, in1, in3)
        for values in (pn.n2p, pn.n2m):
            values = np.broadcast_to(values, d2.shape)
            assert np.all(np.isfinite(values))
            np.testing.assert_allclose(values, values[0], rtol=REL, atol=0.0)

    def test_rejects_negative_inputs(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        with pytest.raises(ValueError):
            photon_numbers(stack, 1.0 * EV / HBAR, -0.1, 0.0)


class TestTotalPhotonNumber:
    """The layer totals of the photon-number record: the average of each
    layer's two directional numbers."""

    def test_equilibrium(self):
        stack = LayerStack(2.25, 7.0, 1.0, 3e-6)
        totals = photon_numbers(stack, 1.3 * EV / HBAR, 1.37, 1.37).totals
        assert totals == pytest.approx((1.37, 1.37, 1.37), rel=REL)

    def test_beam_average(self):
        # n2 = n3 = 4: no second interface, so |R1|^2 = ((1 - 4)/(1 + 4))^2 = 0.36
        # at every phase, and <n1> = (1 + 0.36)/2
        omega = 1.0 * EV / HBAR
        totals = photon_numbers(LayerStack(1.0, 16.0, 16.0, 1e-6), omega, 1.0, 0.0).totals
        assert totals[0] == pytest.approx(0.68, rel=REL)
        # an empty stack reflects nothing: each layer carries 1 forward, 0 back
        assert photon_numbers(LayerStack(1.0, 1.0, 1.0, 1e-6), omega, 1.0, 0.0).totals == (
            0.5, 0.5, 0.5)


class TestBoseEinstein:
    def test_ln2_point(self):
        T = 300.0
        omega = KB * T * math.log(2.0) / HBAR
        assert bose_einstein(omega, T) == pytest.approx(1.0, rel=REL)

    def test_zero_temperature(self):
        assert bose_einstein(1.0 * EV / HBAR, 0.0) == 0.0
        # hbar*omega below the smallest normal double, where 1/x overflows
        assert bose_einstein(1e-285, 0.0) == 0.0
        assert bose_einstein(np.array([1e-285, 1.0]), 0.0).tolist() == [0.0, 0.0]

    def test_room_temperature_100mev(self):
        omega = 0.1 * EV / HBAR
        x = HBAR * omega / (KB * 300.0)
        expected = 1.0 / (math.exp(x) - 1.0)  # direct, branch-free evaluation
        value = bose_einstein(omega, 300.0)
        assert value == pytest.approx(expected, rel=REL)
        assert value == pytest.approx(0.0212, rel=2e-2)

    def test_deep_wien_tail_underflows_to_zero(self):
        assert bose_einstein(10.0 * EV / HBAR, 1.0) == 0.0

    def test_underflowing_temperature_gives_zero(self):
        # kB*T is 0 in floating point, as at T = 0
        omega = 1.0 * EV / HBAR
        assert bose_einstein(omega, 5e-324) == 0.0
        assert bose_einstein(np.array([omega, omega]), 5e-324).tolist() == [0.0, 0.0]

    def test_rayleigh_jeans_limit(self):
        T = 300.0
        omega = 1e-9 * KB * T / HBAR
        assert bose_einstein(omega, T) == pytest.approx(KB * T / (HBAR * omega), rel=1e-8)

    @pytest.mark.parametrize("x", [1e-12, 1e-9, 9e-9])
    def test_small_argument_is_exact(self, x):
        # 1/x, the Rayleigh-Jeans form, is off by x/2 relative here
        T = 300.0
        omega = x * KB * T / HBAR
        x = HBAR * omega / (KB * T)  # the argument as bose_einstein forms it
        with mpmath.workdps(50):
            exact = 1 / mpmath.expm1(mpmath.mpf(x))
            assert abs(bose_einstein(omega, T) / exact - 1) <= 1e-15

    def test_occupation_beyond_the_float_range_is_inf_for_a_float_and_an_array(self):
        # hbar*omega underflows to 0 at 300 K, so kB*T/(hbar*omega) is beyond the range
        with pytest.warns(RuntimeWarning):
            assert bose_einstein(1e-300, 300.0) == math.inf
        with pytest.warns(RuntimeWarning):
            assert bose_einstein(np.array([1e-300, 1.0]), 300.0)[0] == math.inf


class TestLayerStackValidation:
    def test_rejects_eps_below_one(self):
        with pytest.raises(ValueError):
            LayerStack(0.9, 4.0, 1.0, 1e-6)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            LayerStack(1.0, 4.0, 1.0, 0.0)

    def test_k2(self):
        # the cavity wavenumber k2 = n2*omega/c sets the round-trip phase 2*k2*d2
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        expected = cmath.exp(2j * (2.0 * omega / C) * 1e-6)
        assert abs(cavity._phase_factor(stack, omega) - expected) < 1e-12
