"""Tests for the single-photon transmission model."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonforces import (
    ABRAHAM,
    MINKOWSKI,
    FeasibilityError,
    MediumBlock,
    MomentumConvention,
    PhotonInput,
    cev_check,
    general,
    mass_transfer_cube,
    solve_transmission,
)
from photonforces.constants import C, EV, HBAR

REL = 1e-12


def photon_ev(energy_ev):
    return PhotonInput(omega=energy_ev * EV / HBAR)


def bloch_momentum(photon, n):
    """Momentum expectation of the polariton Bloch state, n*2*pi*hbar/lambda0,
    computed through the in-medium wavelength lambda0/n: a route to the
    Minkowski n*hbar*k0 that shares no code with solve_transmission."""
    lambda0 = 2.0 * math.pi * C / photon.omega
    lam = lambda0 / n
    return 2.0 * math.pi * HBAR / lam


# strategy covering the randomized validation grid
energies = st.floats(min_value=0.1, max_value=10.0)
indices = st.floats(min_value=1.0, max_value=3.0)
masses = st.floats(min_value=1e-6, max_value=1e3)
conventions = st.one_of(
    st.just(ABRAHAM),
    st.just(MINKOWSKI),
    st.floats(min_value=0.1, max_value=5.0),  # factor on hbar*k0 for general
)


def make_convention(conv, photon):
    if isinstance(conv, MomentumConvention):
        return conv
    return general(conv * HBAR * photon.k0)


def momentum(photon, n, conv):
    """The polariton momentum p that solve_transmission gives."""
    return solve_transmission(photon, MediumBlock(n=n, M=1.0), conv).p


class TestPhotonMomentum:
    def test_vacuum_conventions_collapse(self):
        ph = photon_ev(1.0)
        hk0 = HBAR * ph.k0
        assert momentum(ph, 1.0, MINKOWSKI) == hk0
        assert momentum(ph, 1.0, ABRAHAM) == hk0

    def test_minkowski_and_abraham_at_n2(self):
        ph = photon_ev(1.0)
        hk0 = HBAR * ph.k0
        assert momentum(ph, 2.0, MINKOWSKI) == pytest.approx(2 * hk0, rel=REL)
        assert momentum(ph, 2.0, ABRAHAM) == pytest.approx(hk0 / 2, rel=REL)

    def test_general_passthrough(self):
        ph = photon_ev(1.0)
        assert momentum(ph, 1.5, general(7e-28)) == 7e-28

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="^n must be real and >= 1, got nan$"):
            MediumBlock(n=float("nan"), M=1.0)
        with pytest.raises(ValueError):
            PhotonInput(omega=float("inf"))


class TestSolveTransmission:
    def test_minkowski_table_column(self):
        ph = photon_ev(1.0)
        sol = solve_transmission(ph, MediumBlock(n=2.0, M=1.0), MINKOWSKI)
        hw, hk0 = ph.energy, HBAR * ph.k0
        assert sol.E == pytest.approx(4 * hw, rel=REL)
        assert sol.E_d == pytest.approx(3 * hw, rel=REL)  # delta_m c^2 = 3 eV
        assert sol.p == pytest.approx(2 * hk0, rel=REL)
        assert sol.p_d == pytest.approx(1.5 * hk0, rel=REL)

    def test_abraham_table_column(self):
        ph = photon_ev(1.0)
        sol = solve_transmission(ph, MediumBlock(n=2.0, M=1.0), ABRAHAM)
        assert sol.delta_m == 0.0
        assert sol.E == ph.energy
        assert sol.p == pytest.approx(HBAR * ph.k0 / 2, rel=REL)
        assert sol.V_r > 0

    def test_minkowski_recoil_velocity(self):
        # independent route: V_r = (hw - c*p)/(M_r*c) with p = n*hw/c
        ph = photon_ev(1.0)
        sol = solve_transmission(ph, MediumBlock(n=2.0, M=1.0), MINKOWSKI)
        hw = ph.energy
        m_r = 1.0 - 3.0 * hw / C**2
        expected = (hw - 2.0 * hw) / (m_r * C)
        assert sol.V_r == pytest.approx(expected, rel=REL)
        assert sol.V_r == pytest.approx(-5.34e-28, rel=1e-2)

    def test_partition_sums(self):
        ph = photon_ev(2.5)
        for conv in (ABRAHAM, MINKOWSKI, general(1.3 * HBAR * ph.k0)):
            sol = solve_transmission(ph, MediumBlock(n=1.7, M=0.5), conv)
            assert sol.E == pytest.approx(sol.E_f + sol.E_d, rel=REL)
            assert sol.p == pytest.approx(sol.p_f + sol.p_d, rel=REL)
            assert sol.v == C / 1.7

    def test_infeasible_tiny_block(self):
        ph = photon_ev(1.0)
        with pytest.raises(FeasibilityError):
            solve_transmission(ph, MediumBlock(n=2.0, M=1e-40), MINKOWSKI)

    def test_unphysical_prescribed_momentum(self):
        # p small enough that E_d < -hbar*omega
        ph = photon_ev(1.0)
        with pytest.raises(FeasibilityError):
            solve_transmission(ph, MediumBlock(n=3.0, M=1.0), general(0.0))

    def test_exotic_flag_for_sub_abraham_momentum(self):
        ph = photon_ev(1.0)
        p = 0.5 * HBAR * ph.k0 / 2.0  # below Abraham value at n = 2
        sol = solve_transmission(ph, MediumBlock(n=2.0, M=1.0), general(p))
        assert sol.exotic
        assert sol.delta_m < 0
        assert sol.E > 0

    @given(hw=energies, n=indices, m=masses, conv=conventions)
    @settings(max_examples=300, deadline=None)
    def test_conservation_laws(self, hw, n, m, conv):
        ph = photon_ev(hw)
        sol = solve_transmission(ph, MediumBlock(n=n, M=m), make_convention(conv, ph))
        hk0 = HBAR * ph.k0
        e_res = abs(ph.energy + m * C**2 - sol.E - sol.M_r * C**2)
        p_res = abs(hk0 - sol.p - sol.M_r * sol.V_r)
        assert e_res / (ph.energy + m * C**2) < REL
        assert p_res / hk0 < REL

    @given(hw=energies, n=indices, m=masses, conv=conventions)
    @settings(max_examples=300, deadline=None)
    def test_covariance_condition(self, hw, n, m, conv):
        ph = photon_ev(hw)
        sol = solve_transmission(ph, MediumBlock(n=n, M=m), make_convention(conv, ph))
        res = abs(sol.E**2 - (sol.p * C) ** 2 - (sol.m0 * C**2) ** 2)
        assert res / sol.E**2 < REL
        if sol.p > 0:
            assert sol.E * sol.v == pytest.approx(sol.p * C**2, rel=REL)

    @given(hw=energies, n=indices, m=masses)
    @settings(max_examples=200, deadline=None)
    def test_minkowski_column_closure(self, hw, n, m):
        ph = photon_ev(hw)
        sol = solve_transmission(ph, MediumBlock(n=n, M=m), MINKOWSKI)
        hk0 = HBAR * ph.k0
        assert sol.E == pytest.approx(n**2 * ph.energy, rel=REL)
        assert sol.E_d == pytest.approx((n**2 - 1) * ph.energy, rel=REL, abs=1e-30)
        assert sol.p_d == pytest.approx((n - 1 / n) * hk0, rel=REL, abs=1e-45)

    @given(hw=energies, n=st.floats(min_value=1.0 + 1e-9, max_value=3.0), m=masses)
    @settings(max_examples=200, deadline=None)
    def test_recoil_signs(self, hw, n, m):
        ph = photon_ev(hw)
        block = MediumBlock(n=n, M=m)
        assert solve_transmission(ph, block, MINKOWSKI).V_r < 0
        assert solve_transmission(ph, block, ABRAHAM).V_r > 0


class TestCev:
    @given(hw=energies, n=indices, m=masses, conv=conventions)
    @settings(max_examples=300, deadline=None)
    def test_cev_uniform(self, hw, n, m, conv):
        ph = photon_ev(hw)
        block = MediumBlock(n=n, M=m)
        sol = solve_transmission(ph, block, make_convention(conv, ph))
        v_before, v_after = cev_check(ph, block, sol)
        assert abs(v_before - v_after) / abs(v_before) < REL

    def test_vacuum_no_interaction(self):
        ph = photon_ev(1.0)
        block = MediumBlock(n=1.0, M=1.0)
        for conv in (ABRAHAM, MINKOWSKI):
            sol = solve_transmission(ph, block, conv)
            assert sol.V_r == 0.0
            v_before, v_after = cev_check(ph, block, sol)
            assert v_before == ph.energy * C / (ph.energy + block.M * C**2)
            assert v_after == pytest.approx(v_before, rel=REL)


class TestBlochMomentum:
    def test_one_micron_wavelength(self):
        lam0 = 1e-6
        ph = PhotonInput(omega=2 * math.pi * C / lam0)
        expected = 2 * (2 * math.pi * HBAR / lam0)
        assert bloch_momentum(ph, 2.0) == pytest.approx(expected, rel=1e-15)

    def test_vacuum(self):
        ph = photon_ev(1.0)
        assert bloch_momentum(ph, 1.0) == pytest.approx(HBAR * ph.k0, rel=1e-15)

    @given(hw=energies, n=indices)
    @settings(max_examples=200, deadline=None)
    def test_matches_minkowski_pointwise(self, hw, n):
        ph = photon_ev(hw)
        assert bloch_momentum(ph, n) == pytest.approx(momentum(ph, n, MINKOWSKI), rel=1e-14)


class TestMassTransferCube:
    def test_paper_example(self):
        side = mass_transfer_cube(3.0 * EV / C**2, 1000.0)
        assert side == pytest.approx(1.75e-13, rel=0.01)
        # paper rounds its quoted value; stay within 15 percent of 2e-13
        assert abs(side - 2e-13) / 2e-13 < 0.15

    def test_exact_cube(self):
        assert mass_transfer_cube(1e-27, 1000.0) == pytest.approx(1e-10, rel=REL)

    def test_cube_root_scaling(self):
        a = mass_transfer_cube(3.0 * EV / C**2, 1000.0)
        b = mass_transfer_cube(3.0 * EV / C**2, 8000.0)
        assert b == pytest.approx(a / 2.0, rel=REL)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            mass_transfer_cube(0.0, 1000.0)
        with pytest.raises(ValueError):
            mass_transfer_cube(-1e-30, 1000.0)


def transit_samples(photon, block, conv, length, steps):
    """Sample the transit of a block of the given length: entry at t = 0,
    exit at t = n*L/c, the block drifting at V_r and the polariton front
    at c/n. Returns the solution and (t, block, front) position triples."""
    sol = solve_transmission(photon, block, conv)
    transit = block.n * length / C
    times = [transit * i / (steps - 1) for i in range(steps)]
    return sol, [(t, sol.V_r * t, sol.v * t) for t in times]


class TestTransitTimeline:
    def test_vacuum_block_never_moves(self):
        _, samples = transit_samples(
            photon_ev(1.0), MediumBlock(n=1.0, M=1.0), MINKOWSKI, 0.5, 7)
        assert all(x_block == 0.0 for _, x_block, _ in samples)

    def test_minkowski_final_displacement(self):
        sol, samples = transit_samples(
            photon_ev(1.0), MediumBlock(n=2.0, M=1.0), MINKOWSKI, 0.1, 11)
        t, x_block, _ = samples[-1]
        transit = 2.0 * 0.1 / C
        assert t == pytest.approx(transit, rel=REL)
        assert x_block == pytest.approx(sol.V_r * transit, rel=REL)
        assert x_block == pytest.approx(-3.565e-37, rel=1e-3)

    def test_abraham_displacement_positive(self):
        _, samples = transit_samples(
            photon_ev(1.0), MediumBlock(n=2.0, M=1.0), ABRAHAM, 0.1, 5)
        assert samples[-1][1] > 0

    def test_cev_constant_along_timeline(self):
        # the center of energy, weighted by the polariton energy E and the
        # block's rest energy M_r c^2, advances at the pre-entry CEV
        ph = photon_ev(1.0)
        block = MediumBlock(n=2.0, M=1.0)
        sol, samples = transit_samples(ph, block, MINKOWSKI, 0.1, 9)
        v_before, _ = cev_check(ph, block, sol)
        w_block = sol.M_r * C**2
        centre = [(t, (sol.E * x_front + w_block * x_block) / (sol.E + w_block))
                  for t, x_block, x_front in samples]
        for (t0, x0), (t1, x1) in zip(centre, centre[1:]):
            assert abs((x1 - x0) / (t1 - t0) - v_before) / v_before < 1e-9


class TestValidation:
    def test_index_below_one(self):
        with pytest.raises(ValueError):
            MediumBlock(n=0.5, M=1.0)

    def test_negative_prescribed_momentum(self):
        with pytest.raises(ValueError):
            general(-1e-28)

    @pytest.mark.parametrize("kind, p, message", [
        ("fresnel", None, "unknown momentum convention 'fresnel'"),
        ("general", None, "general convention requires an explicit p"),
        ("abraham", 1e-28, "abraham convention takes no explicit p"),
    ])
    def test_convention_rejects_bad_kind_and_p(self, kind, p, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MomentumConvention(kind, p)

    def test_omega_positive(self):
        with pytest.raises(ValueError):
            PhotonInput(omega=0.0)
