"""Densities, autocorrelation, spin expectations, norms, carpets, peaks."""

import dataclasses
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import splitting_mp
from rwp.core import PhysicalParams, energy_table, t_ls, time_scales
from rwp.errors import EmptyWindow, InvalidRange, RangeMismatch
from rwp.observables import (autocorrelation, carpet, component_norms,
                             densities, detect_revivals, observable_series,
                             spin_expectations, spin_length)
from rwp.packet import PacketSpec, amplitudes_at, build_packet
from rwp.radial import make_grid, radial_table


def closed_form_spins(packet, energies, t, l, a, b):
    """Independent rederivation of the spin expectations from the evolution
    amplitudes, as sums over w_n^2 with cos/sin of the splitting frequency.

    (For l=1 these coincide with the published closed forms up to the two
    coefficients corrected there.)
    """
    lo = packet.n_min - energies.n_min
    omega = (energies.eps_plus - energies.eps_minus)[lo:lo + len(packet.n)]
    w2 = packet.weights ** 2
    cos = np.cos(omega * t)
    sin = np.sin(omega * t)
    sx = a * b * np.sum(w2 * (2.0 / (2 * l + 1) + 4.0 * l / (2 * l + 1) * cos))
    sy = a * b * np.sum(w2 * 4.0 * l / (2 * l + 1) * sin)
    sz = np.sum(w2 * (a ** 2 - b ** 2 * (2 * l - 1) ** 2 / (2 * l + 1) ** 2
                      - b ** 2 * 8.0 * l / (2 * l + 1) ** 2 * cos))
    return sx, sy, sz


@pytest.fixture(scope="module")
def z92():
    return PhysicalParams(Z=92, l=1)


@pytest.fixture(scope="module")
def down(z92):
    packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0), z92.l)
    energies = energy_table(z92, packet.n_min, packet.n_max)
    return packet, energies


@pytest.fixture(scope="module")
def tilted(z92):
    s = 1.0 / math.sqrt(2.0)
    packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=s, b=s), z92.l)
    energies = energy_table(z92, packet.n_min, packet.n_max)
    return packet, energies


class TestDensities:
    def test_spin_up_has_empty_lower_component(self, z92, u92_grid, u92_table):
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=1.0, b=0.0),
                              z92.l)
        energies = energy_table(z92, packet.n_min, packet.n_max)
        snap = densities(amplitudes_at(packet, energies, 0.0),
                         u92_table, u92_grid)
        assert np.all(snap.rho2 == 0.0)
        assert np.all(snap.rho1 >= 0.0)

    def test_initial_localization_outer_turning_point(self, down, u92_grid,
                                                      u92_table):
        packet, energies = down
        snap = densities(amplitudes_at(packet, energies, 0.0),
                         u92_table, u92_grid)
        centroid = np.sum(u92_grid.quad_w * u92_grid.r
                          * (snap.rho1 + snap.rho2))
        assert abs(centroid / (2.0 * 80 ** 2 / 92) - 1.0) < 0.15

    def test_norm_conservation_random_times(self, down, u92_grid, u92_table,
                                            rng, z92):
        packet, energies = down
        horizon = (2.0 / 3.0) * 80 * t_ls(z92, 80)
        for t in rng.uniform(0.0, horizon, size=50):
            snap = densities(amplitudes_at(packet, energies, t),
                             u92_table, u92_grid)
            assert snap.total_norm() == pytest.approx(1.0, abs=1e-6)
            assert snap.rho1.min() >= 0.0 and snap.rho2.min() >= 0.0

    def test_quadrature_vs_analytic_component_norm(self, down, u92_grid,
                                                   u92_table, z92):
        packet, energies = down
        t_half = 0.5 * t_ls(z92, 80)
        snap = densities(amplitudes_at(packet, energies, t_half),
                         u92_table, u92_grid)
        n2_quad = float(np.sum(u92_grid.quad_w * snap.rho2))
        _, n2_analytic = component_norms(packet, energies, t_half)
        assert abs(n2_quad - n2_analytic) < 0.05
        assert n2_quad == pytest.approx(n2_analytic, abs=1e-6)

    def test_range_mismatch(self, z92, u92_grid, u92_table):
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0,
                                         n_min=65, n_max=90), z92.l)
        energies = energy_table(z92, 65, 90)
        with pytest.raises(RangeMismatch):
            densities(amplitudes_at(packet, energies, 0.0),
                      u92_table, u92_grid)


class TestAutocorrelation:
    def test_initial_value(self, down):
        packet, energies = down
        assert autocorrelation(packet, energies, 0.0) == pytest.approx(1.0 + 0j)

    def test_bounded_by_one(self, down, rng):
        packet, energies = down
        t = rng.uniform(0.0, 1e7, size=100)
        assert np.all(np.abs(autocorrelation(packet, energies, t))
                      <= 1.0 + 1e-12)

    def test_single_n_periodicity(self, z92):
        packet = build_packet(
            PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8, n_min=80, n_max=80),
            z92.l)
        energies = energy_table(z92, 80, 80)
        period = 2.0 * math.pi / energies.omega[0]
        t = np.linspace(0.0, 3.0 * period, 64)
        asq = np.abs(autocorrelation(packet, energies, t)) ** 2
        asq_shift = np.abs(autocorrelation(packet, energies, t + period)) ** 2
        assert np.allclose(asq, asq_shift, atol=1e-12)

    def test_classical_period_peak(self, z92):
        # |A|^2 recovers near one Kepler period for both packet widths
        t_cl = time_scales(z92, 80).t_cl
        for sigma in (1.0, 2.0):
            packet = build_packet(
                PacketSpec(n_av=80, sigma=sigma, a=0.0, b=1.0), z92.l)
            energies = energy_table(z92, packet.n_min, packet.n_max)
            t = np.linspace(0.5 * t_cl, 1.5 * t_cl, 400)
            asq = np.abs(autocorrelation(packet, energies, t)) ** 2
            t_peak = t[np.argmax(asq)]
            assert abs(t_peak / t_cl - 1.0) < 0.05


class TestSpinExpectations:
    def test_initial_spinor(self, z92):
        for a, b in [(0.6, 0.8), (1.0, 0.0), (1 / math.sqrt(2), 1 / math.sqrt(2))]:
            packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=a, b=b),
                                  z92.l)
            energies = energy_table(z92, packet.n_min, packet.n_max)
            sx, sy, sz = spin_expectations(
                amplitudes_at(packet, energies, 0.0), z92.l)
            assert sx == pytest.approx(2.0 * a * b, abs=1e-14)
            assert sy == pytest.approx(0.0, abs=1e-14)
            assert sz == pytest.approx(a ** 2 - b ** 2, abs=1e-14)

    def test_spin_up_stationary(self, z92, rng):
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=1.0, b=0.0),
                              z92.l)
        energies = energy_table(z92, packet.n_min, packet.n_max)
        for t in rng.uniform(0.0, 1e6, size=10):
            sx, sy, sz = spin_expectations(
                amplitudes_at(packet, energies, t), z92.l)
            assert (sx, sy) == (0.0, 0.0)
            assert sz == pytest.approx(1.0, abs=1e-14)

    def test_closed_form_agreement(self, tilted, z92, rng):
        packet, energies = tilted
        s = 1.0 / math.sqrt(2.0)
        for t in rng.uniform(0.0, 1e6, size=50):
            amps = amplitudes_at(packet, energies, t)
            got = spin_expectations(amps, z92.l)
            want = closed_form_spins(packet, energies, t, z92.l, s, s)
            assert np.allclose(got, want, atol=1e-12)

    def test_precession_sense(self, tilted, z92):
        # sy grows as +sin(omega t) early on for real positive a*b
        packet, energies = tilted
        t_small = 0.01 * t_ls(z92, 80)
        _, sy, _ = spin_expectations(
            amplitudes_at(packet, energies, t_small), z92.l)
        assert sy > 0.0

    def test_bloch_vector_bounded(self, tilted, z92, rng):
        packet, energies = tilted
        for t in rng.uniform(0.0, 1e6, size=50):
            sx, sy, sz = spin_expectations(
                amplitudes_at(packet, energies, t), z92.l)
            assert sx * sx + sy * sy + sz * sz <= 1.0 + 1e-12


class TestComponentNorms:
    def test_initial_value(self, down, z92):
        packet, energies = down
        n1, n2 = component_norms(packet, energies, 0.0)
        assert n2 == pytest.approx(1.0, abs=1e-14)
        assert n1 == pytest.approx(0.0, abs=1e-14)

    def test_single_n_floor(self, z92):
        packet = build_packet(
            PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0, n_min=80, n_max=80),
            z92.l)
        energies = energy_table(z92, 80, 80)
        t_half = math.pi / energies.omega[0]
        n1, n2 = component_norms(packet, energies, t_half)
        assert n2 == pytest.approx(1.0 / 9.0, rel=1e-10)
        assert n1 == pytest.approx(8.0 / 9.0, rel=1e-10)

    def test_sum_to_one(self, down, z92, rng):
        packet, energies = down
        for t in rng.uniform(0.0, 1e6, size=50):
            n1, n2 = component_norms(packet, energies, t)
            assert n1 + n2 == pytest.approx(1.0, abs=1e-15)

    def test_first_minimum_near_half_period(self, down, z92):
        packet, energies = down
        tls = t_ls(z92, 80)
        t = np.linspace(0.0, 1.0 * tls, 2000)
        n2 = np.array([component_norms(packet, energies, ti)[1]
                       for ti in t])
        minima = detect_revivals(t, -n2, prominence=0.1)
        assert minima
        t_min = minima[0][0]
        assert abs(t_min / (0.5 * tls) - 1.0) < 0.10

    def test_matches_amplitude_sum(self, down, z92, rng):
        packet, energies = down
        for t in rng.uniform(0.0, 1e5, size=20):
            amps = amplitudes_at(packet, energies, t)
            n2_amp = float(np.sum(np.abs(amps.c2) ** 2))
            # omega*t vs (eps_plus*t - eps_minus*t): rounding differs by
            # ~eps_mach * |eps| * t in the phase at large t
            assert component_norms(packet, energies, t)[1] == \
                pytest.approx(n2_amp, abs=1e-11)


class TestSpinLength:
    def test_unit_cases(self):
        assert spin_length(0.0, 0.0, 1.0) == 1.0
        a, b = 0.6, 0.8
        assert spin_length(2 * a * b, 0.0, a * a - b * b) == pytest.approx(1.0)


class TestPhaseShiftInvariance:
    def test_all_moduli_unchanged(self, down, z92):
        packet, energies = down
        shifted = dataclasses.replace(
            energies,
            eps_plus=energies.eps_plus + 7.5,
            eps_minus=energies.eps_minus + 7.5)
        t = np.linspace(0.0, 1e4, 40)
        asq_a = np.abs(autocorrelation(packet, energies, t)) ** 2
        asq_b = np.abs(autocorrelation(packet, shifted, t)) ** 2
        assert np.allclose(asq_a, asq_b, atol=1e-12)
        for ti in t[::8]:
            spins_a = spin_expectations(
                amplitudes_at(packet, energies, ti), z92.l)
            spins_b = spin_expectations(
                amplitudes_at(packet, shifted, ti), z92.l)
            assert np.allclose(spins_a, spins_b, atol=1e-12)
            norms_a = component_norms(packet, energies, ti)
            norms_b = component_norms(packet, shifted, ti)
            assert np.allclose(norms_a, norms_b, atol=1e-12)


class TestSeriesAndCarpet:
    def test_series_invariants(self, down, z92):
        packet, energies = down
        tls = t_ls(z92, 80)
        series = observable_series(packet, energies,
                                   np.linspace(0.0, 2.0 * tls, 200))
        assert series.asq[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(series.asq <= 1.0 + 1e-12)
        assert np.all(series.asq >= 0.0)
        assert np.all(series.slen <= 1.0 + 1e-12)
        assert np.allclose(series.N1 + series.N2, 1.0, atol=1e-12)

    def test_single_row_carpet_is_snapshot(self, down, u92_grid, u92_table):
        packet, energies = down
        grid_result = carpet(packet, energies, u92_table, u92_grid.r, [0.0])
        snap = densities(amplitudes_at(packet, energies, 0.0),
                         u92_table, u92_grid)
        assert grid_result.rho1.shape == (1, len(u92_grid))
        assert np.array_equal(grid_result.rho1[0], snap.rho1)
        assert np.array_equal(grid_result.rho2[0], snap.rho2)

    def test_shape(self, down, u92_grid, u92_table, z92):
        packet, energies = down
        t_axis = np.linspace(0.0, t_ls(z92, 80), 7)
        result = carpet(packet, energies, u92_table, u92_grid.r, t_axis)
        assert result.rho1.shape == (7, len(u92_grid))
        assert result.rho2.shape == (7, len(u92_grid))

    def test_lower_component_mass_oscillates_with_t_ls(self, down, u92_grid,
                                                       u92_table, z92):
        packet, energies = down
        tls = t_ls(z92, 80)
        t_axis = np.linspace(0.0, 2.0 * tls, 81)
        result = carpet(packet, energies, u92_table, u92_grid.r, t_axis)
        mass2 = result.rho2 @ u92_grid.quad_w
        # minima of the transferred mass recur with the spin-orbit period
        minima = detect_revivals(t_axis, -mass2, prominence=0.1)
        assert len(minima) == 2
        gap = minima[1][0] - minima[0][0]
        assert abs(gap / tls - 1.0) < 0.10

    def test_carpet_rows_equal_snapshots(self, down, u92_grid, u92_table,
                                         z92):
        packet, energies = down
        t_axis = np.linspace(0.0, t_ls(z92, 80), 5)
        result = carpet(packet, energies, u92_table, u92_grid.r, t_axis)
        for i, t in enumerate(t_axis):
            snap = densities(amplitudes_at(packet, energies, t),
                             u92_table, u92_grid)
            assert np.array_equal(result.rho1[i], snap.rho1)
            assert np.array_equal(result.rho2[i], snap.rho2)

    @pytest.mark.parametrize("t_axis", [[], [0.0, 0.0], [1.0, 0.5]])
    def test_carpet_rejects_bad_time_axis(self, down, u92_grid, u92_table,
                                          t_axis):
        packet, energies = down
        with pytest.raises(InvalidRange):
            carpet(packet, energies, u92_table, u92_grid.r, np.array(t_axis))


class TestClosedFormsAgainstAmplitudes:
    """observable_series evaluates closed forms in w_n^2 and the spin beat;
    the channel amplitudes are the oracle, held at rtol = 0."""

    @pytest.fixture(scope="class", params=["fig4", "z1-n400"])
    def case(self, request):
        if request.param == "fig4":
            params, n_av, samples = PhysicalParams(Z=92, l=1), 80, 7001
            a = b = 1.0 / math.sqrt(2.0)
        else:
            params, n_av, samples = PhysicalParams(Z=1, l=1), 400, 2001
            a, b = 0.6, 0.8
        packet = build_packet(PacketSpec(n_av=n_av, sigma=2.0, a=a, b=b),
                              params.l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        t = np.linspace(0.0, 35.0 * t_ls(params, n_av), samples)
        return packet, energies, t

    def test_series_matches_amplitude_oracle(self, case):
        packet, energies, t = case
        series = observable_series(packet, energies, t)
        amps = amplitudes_at(packet, energies, t)
        sx, sy, sz = spin_expectations(amps, energies.params.l)
        n1 = np.sum(np.abs(amps.c1) ** 2 + np.abs(amps.d1) ** 2, axis=-1)
        n2 = np.sum(np.abs(amps.c2) ** 2, axis=-1)
        # <Psi(0)|Psi(t)>: d1 vanishes at t = 0, c1(0) = w a, c2(0) = w b
        w = packet.weights
        overlap = (np.sum(w * np.conj(packet.spec.a) * amps.c1, axis=-1)
                   + np.sum(w * np.conj(packet.spec.b) * amps.c2, axis=-1))
        for got, want in ((series.sx, sx), (series.sy, sy), (series.sz, sz),
                          (series.N1, n1), (series.N2, n2),
                          (series.A, overlap)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


class TestSpinBeatPhase:
    """The phase of the spin beat of a one-level packet at t = 35 T_ls
    against 60-digit mpmath: 2ab/(2l+1) removed from sx leaves
    (sx, sy) proportional to (cos omega t, sin omega t)."""

    @pytest.mark.parametrize("Z, n", [(1, 400), (1, 80), (92, 80), (92, 200)])
    def test_phase_against_mpmath(self, Z, n):
        params = PhysicalParams(Z=Z, l=1)
        s = 1.0 / math.sqrt(2.0)
        packet = build_packet(
            PacketSpec(n_av=n, sigma=2.0, a=s, b=s, n_min=n, n_max=n),
            params.l)
        energies = energy_table(params, n, n)
        t = 35.0 * t_ls(params, n)
        series = observable_series(packet, energies, np.array([t]))
        a, b, l = packet.spec.a, packet.spec.b, params.l
        got = math.atan2(series.sy[0],
                         series.sx[0] - 2.0 * a * b / (2 * l + 1))
        want = splitting_mp(Z, n, l) * mpf(t) % (2 * mp.pi)
        miss = float((mpf(got) - want + mp.pi) % (2 * mp.pi) - mp.pi)
        assert abs(miss) <= 1e-12


class TestDetectRevivals:
    def test_single_n_peaks_at_multiples_of_period(self, z92):
        packet = build_packet(
            PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0, n_min=80, n_max=80),
            z92.l)
        energies = energy_table(z92, 80, 80)
        period = 2.0 * math.pi / energies.omega[0]
        t = np.linspace(0.0, 3.2 * period, 3000)
        asq = np.abs(autocorrelation(packet, energies, t)) ** 2
        peaks = detect_revivals(t, asq, prominence=0.1)
        assert len(peaks) == 3
        for k, (t_peak, value) in enumerate(peaks, start=1):
            assert t_peak == pytest.approx(k * period, rel=1e-4)
            assert value == pytest.approx(1.0, abs=1e-4)

    def test_monotone_series_has_no_peaks(self):
        t = np.linspace(0.0, 1.0, 100)
        assert detect_revivals(t, t ** 2) == []

    def test_empty_window(self):
        t = np.linspace(0.0, 1.0, 100)
        with pytest.raises(EmptyWindow):
            detect_revivals(t, np.sin(t), window=(5.0, 6.0))
