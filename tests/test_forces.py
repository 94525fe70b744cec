"""Tests for LDOS, pressure, and the Casimir-type force machinery."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonforces import (
    RHO0,
    LayerStack,
    NumericalGuardError,
    ThermalScenario,
    ar_interface_forces,
    bose_einstein,
    composite,
    force_density_decomposition,
    integrate_spectrum,
    net_force_pressure,
    photon_numbers,
    pressure,
    reflector_force,
    total_force_beam,
)
from photonforces.constants import C, EV, HBAR

REL = 1e-12

eps_values = st.floats(min_value=1.0, max_value=16.0)
widths = st.floats(min_value=1e-8, max_value=1e-4)
energies_ev = st.floats(min_value=0.01, max_value=10.0)
occupations = st.floats(min_value=0.0, max_value=10.0)


def quiet_net_force(stack, omega, numbers, S):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return net_force_pressure(stack, omega, numbers, -1.0, stack.d2 + 1.0, S)


class TestPressure:
    def test_pure_zero_point(self):
        omega = 1.0 * EV / HBAR
        assert pressure(RHO0, 0.0, omega) == pytest.approx(
            0.5 * HBAR * omega * RHO0, rel=REL
        )

    def test_direct_substitution(self):
        omega = 1.0 * EV / HBAR
        assert pressure(RHO0, 1.0, omega) == pytest.approx(
            1.5 * HBAR * omega * RHO0, rel=REL
        )

    def test_equilibrium_balance_across_vacuum(self):
        omega = 1.0 * EV / HBAR
        assert pressure(RHO0, 0.7, omega) - pressure(RHO0, 0.7, omega) == 0.0


class TestDecomposition:
    def test_equilibrium_ncf_vanishes(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 0.8, 0.8)
        for imp in force_density_decomposition(stack, omega, numbers):
            assert imp.ncf == pytest.approx(0.0, abs=1e-40)

    def test_empty_cavity_no_impulses(self):
        stack = LayerStack(1.0, 1.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        for imp in force_density_decomposition(stack, omega, numbers):
            assert imp.zcf == 0.0 and imp.tcf == 0.0 and imp.ncf == 0.0

    def test_beam_impulse_sum_matches_reflection_law(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        imp1, imp2 = force_density_decomposition(stack, omega, numbers)
        r1_sq = abs(composite(stack, omega).R1) ** 2
        f0 = reflector_force(omega, 1.0, 1.0)
        assert imp1.total + imp2.total == pytest.approx(r1_sq * f0, rel=REL)

    @given(e1=eps_values, e2=eps_values, e3=eps_values, d2=widths, hw=energies_ev,
           in1=occupations, in3=occupations)
    @settings(max_examples=300, deadline=None)
    def test_method_equivalence(self, e1, e2, e3, d2, hw, in1, in3):
        stack = LayerStack(e1, e2, e3, d2)
        omega = hw * EV / HBAR
        S = 1.0
        numbers = photon_numbers(stack, omega, in1, in3)
        imp1, imp2 = force_density_decomposition(stack, omega, numbers)
        net = quiet_net_force(stack, omega, numbers, S)
        scale = S * HBAR * omega * RHO0 * 4.0 * (max(in1, in3) + 1.0)
        assert abs(S * (imp1.total + imp2.total) - net) < REL * scale

    def test_zero_point_impulses_scale_with_index(self):
        # 1D mode counting: k = n*omega/c so dk/domega = n/c, rho_i = n_i*rho0;
        # the ZCF impulse is -hbar*omega*(rho_right - rho_left)/2
        stack = LayerStack(2.25, 4.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        imp1, imp2 = force_density_decomposition(stack, omega, numbers)
        assert imp1.zcf == pytest.approx(-HBAR * omega * (2.0 - 1.5) * RHO0 / 2, rel=REL)
        assert imp2.zcf == pytest.approx(-HBAR * omega * (1.0 - 2.0) * RHO0 / 2, rel=REL)

    def test_zero_point_cancellation_equal_outer_layers(self):
        stack = LayerStack(2.25, 9.0, 2.25, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        imp1, imp2 = force_density_decomposition(stack, omega, numbers)
        assert imp1.zcf + imp2.zcf == 0.0


class TestNetForcePressure:
    def test_equilibrium_zero(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 0.9, 0.9)
        assert quiet_net_force(stack, omega, numbers, 1.0) == pytest.approx(
            0.0, abs=1e-40
        )

    def test_perfect_reflector_limit(self):
        # near-total reflection: net force approaches F0 = S*hw*rho0*in1
        omega = 1.0 * EV / HBAR
        d2 = (math.pi / 2.0) / (1e3 * omega / C)  # quarter wave at n2 = 1000
        stack = LayerStack(1.0, 1e6, 1.0, d2)
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        f0 = reflector_force(omega, 1.0, 1.0)
        assert quiet_net_force(stack, omega, numbers, 1.0) == pytest.approx(
            f0, rel=1e-5
        )

    def test_empty_cavity_beam_zero(self):
        stack = LayerStack(1.0, 1.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        assert quiet_net_force(stack, omega, numbers, 1.0) == pytest.approx(
            0.0, abs=1e-40
        )

    def test_warns_on_unequal_outer_layers(self):
        stack = LayerStack(1.0, 4.0, 2.25, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        with pytest.warns(UserWarning, match="eps1 != eps3"):
            net_force_pressure(stack, omega, numbers, -1.0, stack.d2 + 1.0, 1.0)

    def test_rejects_reference_points_inside_stack(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        with pytest.raises(ValueError):
            net_force_pressure(stack, omega, numbers, 0.5e-6, stack.d2 + 1.0, 1.0)
        with pytest.raises(ValueError):
            net_force_pressure(stack, omega, numbers, -1.0, 0.5e-6, 1.0)


class TestBeamForceLaw:
    def test_half_wave_slab_zero_force(self):
        omega = 1.0 * EV / HBAR
        d2 = math.pi / (2.0 * omega / C)
        force, ratio = total_force_beam(LayerStack(1.0, 4.0, 1.0, d2), omega, 1.0, 1.0)
        assert ratio < 1e-24
        assert abs(force) < 1e-24 * reflector_force(omega, 1.0, 1.0)

    def test_quarter_wave_slab(self):
        lam0 = 1e-6
        omega = 2 * math.pi * C / lam0
        stack = LayerStack(1.0, 4.0, 1.0, lam0 / 8.0)
        force, ratio = total_force_beam(stack, omega, 1.0, 1.0)
        assert ratio == pytest.approx(0.36, rel=1e-10)
        assert force == pytest.approx(0.36 * reflector_force(omega, 1.0, 1.0), rel=1e-10)

    @given(e1=eps_values, e2=eps_values, d2=widths, hw=energies_ev,
           in1=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=300, deadline=None)
    def test_ratio_is_reflectance(self, e1, e2, d2, hw, in1):
        stack = LayerStack(e1, e2, e1, d2)
        omega = hw * EV / HBAR
        _, ratio = total_force_beam(stack, omega, in1, 1.0)
        r1_sq = abs(composite(stack, omega).R1) ** 2
        assert abs(ratio - r1_sq) < REL

    def test_rejects_unequal_outer_layers(self):
        with pytest.raises(ValueError):
            total_force_beam(LayerStack(1.0, 4.0, 2.0, 1e-6), 1.0 * EV / HBAR, 1.0, 1.0)


class TestArInterfaceForces:
    def test_unit_index_no_force(self):
        f1, f2, _ = ar_interface_forces(1.0, 1.0 * EV / HBAR, 1.0, 1.0)
        assert f1 == 0.0 and f2 == 0.0

    def test_cancellation(self):
        for n in np.linspace(1.0, 4.0, 31):
            f1, f2, _ = ar_interface_forces(float(n), 1.0 * EV / HBAR, 0.7, 2.0)
            assert f1 + f2 == 0.0

    def test_kappa_constant_and_reported(self):
        omega0 = 1.0 * EV / HBAR
        kappas = [
            ar_interface_forces(float(n), omega, 1.0, 1.0)[2]
            for n in np.linspace(1.1, 4.0, 30)
            for omega in (omega0 * 1e-2, omega0, omega0 * 1e2)
        ]
        assert max(kappas) - min(kappas) < 1e-10
        # under the documented conventions the measured constant is 1/2,
        # a fixed factor below the asserted value of 1
        assert kappas[0] == pytest.approx(0.5, rel=1e-12)

    def test_f1_proportional_to_one_minus_n(self):
        omega = 1.0 * EV / HBAR
        f0 = reflector_force(omega, 1.0, 1.0)
        f1, _, kappa = ar_interface_forces(2.0, omega, 1.0, 1.0)
        assert f1 == pytest.approx(kappa * (1.0 - 2.0) * f0, rel=REL)
        assert f1 < 0


class TestNormalizationIndependence:
    @given(e1=eps_values, e2=eps_values, d2=widths, hw=energies_ev,
           scale=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=100, deadline=None)
    def test_ratios_unchanged_by_rho0_scaling(self, e1, e2, d2, hw, scale):
        stack = LayerStack(e1, e2, e1, d2)
        omega = hw * EV / HBAR
        _, r_a = total_force_beam(stack, omega, 1.0, 1.0, rho0=RHO0)
        _, r_b = total_force_beam(stack, omega, 1.0, 1.0, rho0=RHO0 * scale)
        assert r_a == pytest.approx(r_b, rel=REL, abs=1e-15)
        k_a = ar_interface_forces(2.0, omega, 1.0, 1.0, rho0=RHO0)[2]
        k_b = ar_interface_forces(2.0, omega, 1.0, 1.0, rho0=RHO0 * scale)[2]
        assert k_a == pytest.approx(k_b, rel=REL)


class TestIntegrateSpectrum:
    def grid(self, points=101):
        return np.linspace(0.05, 2.0, points) * EV / HBAR

    def test_equilibrium_zero_at_any_resolution(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        for points in (11, 101, 501):
            scenario = ThermalScenario(
                omega_grid=self.grid(points), area=1.0, t_left=300.0, t_right=300.0
            )
            assert integrate_spectrum(scenario, stack) == 0.0

    def test_single_point_reduces_to_spectral_value(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        omega = 1.0 * EV / HBAR
        scenario = ThermalScenario(
            omega_grid=np.array([omega]), area=1.0, occ_left=1.0, occ_right=0.0
        )
        numbers = photon_numbers(stack, omega, 1.0, 0.0)
        expected = quiet_net_force(stack, omega, numbers, 1.0)
        assert integrate_spectrum(scenario, stack) == pytest.approx(expected, rel=REL)

    def test_thermal_beam_matches_manual_reflectance_integral(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        grid = self.grid(401)
        scenario = ThermalScenario(
            omega_grid=grid, area=1.0, t_left=300.0, t_right=0.0
        )
        value = integrate_spectrum(scenario, stack)
        manual = np.trapezoid(
            [
                abs(composite(stack, w).R1) ** 2
                * reflector_force(w, bose_einstein(w, 300.0), 1.0)
                for w in grid
            ],
            grid,
        )
        assert value == pytest.approx(manual, rel=1e-10)

    def test_grid_refinement_converges(self):
        stack = LayerStack(1.0, 2.25, 1.0, 1e-8)
        results = []
        for points in (4001, 8001):
            scenario = ThermalScenario(
                omega_grid=np.linspace(0.1, 1.0, points) * EV / HBAR,
                area=1.0, t_left=300.0, t_right=0.0,
            )
            results.append(integrate_spectrum(scenario, stack))
        assert abs(results[1] - results[0]) / abs(results[1]) < 1e-6

    def test_routes_agree(self):
        stack = LayerStack(1.0, 4.0, 1.0, 1e-6)
        scenario = ThermalScenario(
            omega_grid=self.grid(51), area=2.0, occ_left=1.0, occ_right=0.2
        )
        a = integrate_spectrum(scenario, stack, "net_force")
        b = integrate_spectrum(scenario, stack, "interface_force")
        assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ThermalScenario(omega_grid=np.array([]), area=1.0, occ_left=1.0, occ_right=0.0)

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            ThermalScenario(
                omega_grid=np.array([2.0, 1.0]), area=1.0, occ_left=1.0, occ_right=0.0
            )

    def test_requires_one_input_spec_per_side(self):
        with pytest.raises(ValueError):
            ThermalScenario(
                omega_grid=np.array([1.0]), area=1.0,
                t_left=300.0, occ_left=1.0, occ_right=0.0,
            )
