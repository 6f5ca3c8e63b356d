"""Densities, autocorrelation, spin expectations, norms, carpets, peaks."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import amplitude_densities, splitting_mp
from rwp.cli import _ascending
from rwp.core import PhysicalParams, energy_table, time_scales
from rwp.errors import EmptyWindow, InvalidRange, RangeMismatch
from rwp.observables import (densities, detect_revivals, observable_series,
                             spin_expectations)
from rwp.packet import PacketSpec, amplitudes_at, build_packet
from rwp.radial import outer_radius, radial_table


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
        rho1, rho2 = densities(packet, energies, u92_table, [0.0])
        assert np.all(rho2 == 0.0)
        assert np.all(rho1 >= 0.0)

    def test_initial_localization_outer_turning_point(self, down, u92_grid,
                                                      u92_table):
        packet, energies = down
        rho1, rho2 = densities(packet, energies, u92_table, [0.0])
        centroid = np.sum(u92_grid.quad_w * u92_grid.r * (rho1[0] + rho2[0]))
        assert abs(centroid / (2.0 * 80 ** 2 / 92) - 1.0) < 0.15

    def test_norm_conservation_random_times(self, down, u92_grid, u92_table,
                                            rng, z92):
        packet, energies = down
        horizon = (2.0 / 3.0) * 80 * time_scales(z92, 80).t_ls
        times = rng.uniform(0.0, horizon, size=50)
        rho1, rho2 = densities(packet, energies, u92_table, times)
        norm = np.sum(u92_grid.quad_w * (rho1 + rho2), axis=-1)
        assert norm.shape == (50,)
        assert np.all(np.abs(norm - 1.0) <= 1e-6)
        assert rho1.min() >= 0.0 and rho2.min() >= 0.0

    def test_quadrature_vs_analytic_component_norm(self, down, u92_grid,
                                                   u92_table, z92):
        packet, energies = down
        t_half = 0.5 * time_scales(z92, 80).t_ls
        _, rho2 = densities(packet, energies, u92_table, [t_half])
        n2_quad = float(np.sum(u92_grid.quad_w * rho2[0]))
        n2_analytic = observable_series(packet, energies, t_half).N2
        assert abs(n2_quad - n2_analytic) < 0.05
        assert n2_quad == pytest.approx(n2_analytic, abs=1e-6)

    def test_range_mismatch(self, z92, u92_grid, u92_table):
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0,
                                         n_min=65, n_max=90), z92.l)
        energies = energy_table(z92, 65, 90)
        with pytest.raises(RangeMismatch):
            densities(packet, energies, u92_table, [0.0])

    def test_l_mismatch(self, down, u92_grid):
        packet, energies = down
        table = radial_table(PhysicalParams(Z=92, l=2), 70, 90, u92_grid.r)
        with pytest.raises(RangeMismatch, match="l=2"):
            densities(packet, energies, table, [0.0])

    def test_z_mismatch(self, down, u92_grid):
        # a Z = 50 table under Z = 92 energies would give quadrature norms
        # far from 1 instead of an error
        packet, energies = down
        table = radial_table(PhysicalParams(Z=50, l=1), 70, 90, u92_grid.r)
        with pytest.raises(RangeMismatch, match="Z=50"):
            densities(packet, energies, table, [0.0])


class TestDensitiesAgainstAmplitudes:
    """densities from the two phase sums P_+- against the channel amplitudes
    projected one by one, every row within 1e-14 of the peak density."""

    @pytest.mark.parametrize("Z, l, n_av, t_max", [
        (92, 1, 80, 2.0), (92, 2, 80, 2.0), (92, 3, 80, 2.0), (92, 4, 80, 2.0),
        (1, 1, 400, 35.0)])
    def test_rows_match_amplitude_route(self, Z, l, n_av, t_max):
        params = PhysicalParams(Z=Z, l=l)
        b = 0.8j * cmath.exp(0.3j)
        packet = build_packet(PacketSpec(n_av=n_av, sigma=2.0, a=0.6, b=b), l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        r = np.linspace(0.0, outer_radius(params, packet.n_max), 1001)
        table = radial_table(params, packet.n_min, packet.n_max, r)
        times = np.linspace(0.0, t_max * time_scales(params, n_av).t_ls, 41)
        got = densities(packet, energies, table, times)
        want = amplitude_densities(packet, energies, table, times)
        peak = max(want[0].max(), want[1].max())
        for g, w in zip(got, want):
            assert g.shape == (41, 1001)
            assert np.abs(g - w).max() <= 1e-14 * peak


class TestAutocorrelation:
    def test_initial_value(self, down):
        packet, energies = down
        assert observable_series(packet, energies, 0.0).A == \
            pytest.approx(1.0 + 0j)

    def test_bounded_by_one(self, down, rng):
        packet, energies = down
        t = rng.uniform(0.0, 1e7, size=100)
        assert np.all(np.abs(observable_series(packet, energies, t).A)
                      <= 1.0 + 1e-12)

    def test_single_n_periodicity(self, z92):
        packet = build_packet(
            PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8, n_min=80, n_max=80),
            z92.l)
        energies = energy_table(z92, 80, 80)
        period = 2.0 * math.pi / energies.omega[0]
        t = np.linspace(0.0, 3.0 * period, 64)
        asq = observable_series(packet, energies, t).asq
        asq_shift = observable_series(packet, energies, t + period).asq
        assert np.allclose(asq, asq_shift, atol=1e-12)

    def test_classical_period_peak(self, z92):
        # |A|^2 recovers near one Kepler period for both packet widths
        t_cl = time_scales(z92, 80).t_cl
        for sigma in (1.0, 2.0):
            packet = build_packet(
                PacketSpec(n_av=80, sigma=sigma, a=0.0, b=1.0), z92.l)
            energies = energy_table(z92, packet.n_min, packet.n_max)
            t = np.linspace(0.5 * t_cl, 1.5 * t_cl, 400)
            asq = observable_series(packet, energies, t).asq
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
        t_small = 0.01 * time_scales(z92, 80).t_ls
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
        series = observable_series(packet, energies, 0.0)
        n1, n2 = series.N1, series.N2
        assert n2 == pytest.approx(1.0, abs=1e-14)
        assert n1 == pytest.approx(0.0, abs=1e-14)

    def test_single_n_floor(self, z92):
        packet = build_packet(
            PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0, n_min=80, n_max=80),
            z92.l)
        energies = energy_table(z92, 80, 80)
        t_half = math.pi / energies.omega[0]
        series = observable_series(packet, energies, t_half)
        n1, n2 = series.N1, series.N2
        assert n2 == pytest.approx(1.0 / 9.0, rel=1e-10)
        assert n1 == pytest.approx(8.0 / 9.0, rel=1e-10)

    def test_sum_to_one(self, down, z92, rng):
        packet, energies = down
        for t in rng.uniform(0.0, 1e6, size=50):
            series = observable_series(packet, energies, t)
            assert series.N1 + series.N2 == pytest.approx(1.0, abs=1e-15)

    def test_first_minimum_near_half_period(self, down, z92):
        packet, energies = down
        tls = time_scales(z92, 80).t_ls
        t = np.linspace(0.0, 1.0 * tls, 2000)
        n2 = observable_series(packet, energies, t).N2
        minima = detect_revivals(t, -n2, prominence=0.1)
        assert minima
        t_min = minima[0][0]
        assert abs(t_min / (0.5 * tls) - 1.0) < 0.10

    def test_matches_amplitude_sum(self, down, z92, rng):
        packet, energies = down
        for t in rng.uniform(0.0, 1e5, size=20):
            amps = amplitudes_at(packet, energies, t)
            n2_amp = float(np.sum(np.abs(amps.c2) ** 2))
            # both read the same (e_+, beat) from _phases, so they differ
            # only by the rounding of their sums: at most 3.3e-16 over 4000
            # uniform times in [0, 1e5]
            assert observable_series(packet, energies, t).N2 == \
                pytest.approx(n2_amp, abs=1e-15)


class TestPhaseShiftInvariance:
    def test_all_moduli_unchanged(self, down, z92):
        packet, energies = down
        shifted = dataclasses.replace(
            energies,
            eps_plus=energies.eps_plus + 7.5,
            eps_minus=energies.eps_minus + 7.5)
        t = np.linspace(0.0, 1e4, 40)
        series_a = observable_series(packet, energies, t)
        series_b = observable_series(packet, shifted, t)
        assert np.allclose(series_a.asq, series_b.asq, atol=1e-12)
        for ti in t[::8]:
            spins_a = spin_expectations(
                amplitudes_at(packet, energies, ti), z92.l)
            spins_b = spin_expectations(
                amplitudes_at(packet, shifted, ti), z92.l)
            assert np.allclose(spins_a, spins_b, atol=1e-12)
        assert np.allclose(series_a.N1, series_b.N1, atol=1e-12)
        assert np.allclose(series_a.N2, series_b.N2, atol=1e-12)


class TestSeriesAndCarpet:
    def test_series_invariants(self, down, z92):
        packet, energies = down
        tls = time_scales(z92, 80).t_ls
        series = observable_series(packet, energies,
                                   np.linspace(0.0, 2.0 * tls, 200))
        assert series.asq[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(series.asq <= 1.0 + 1e-12)
        assert np.all(series.asq >= 0.0)
        assert np.all(series.slen <= 1.0 + 1e-12)
        assert np.allclose(series.N1 + series.N2, 1.0, atol=1e-12)

    def test_single_row_carpet_is_snapshot(self, down, u92_grid, u92_table,
                                           z92):
        # a one-time call is 1 x R and bit for bit the row of a longer axis
        packet, energies = down
        rho1, rho2 = densities(packet, energies, u92_table, [0.0])
        axis1, axis2 = densities(packet, energies, u92_table,
                                 [0.0, 0.3 * time_scales(z92, 80).t_ls])
        assert rho1.shape == (1, len(u92_grid))
        assert np.array_equal(rho1[0], axis1[0])
        assert np.array_equal(rho2[0], axis2[0])

    def test_shape(self, down, u92_grid, u92_table, z92):
        packet, energies = down
        t_axis = np.linspace(0.0, time_scales(z92, 80).t_ls, 7)
        rho1, rho2 = densities(packet, energies, u92_table, t_axis)
        assert rho1.shape == (7, len(u92_grid))
        assert rho2.shape == (7, len(u92_grid))

    def test_lower_component_mass_oscillates_with_t_ls(self, down, u92_grid,
                                                       u92_table, z92):
        packet, energies = down
        tls = time_scales(z92, 80).t_ls
        t_axis = np.linspace(0.0, 2.0 * tls, 81)
        _, rho2 = densities(packet, energies, u92_table, t_axis)
        mass2 = np.sum(u92_grid.quad_w * rho2, axis=-1)
        # minima of the transferred mass recur with the spin-orbit period
        minima = detect_revivals(t_axis, -mass2, prominence=0.1)
        assert len(minima) == 2
        gap = minima[1][0] - minima[0][0]
        assert abs(gap / tls - 1.0) < 0.10

    def test_carpet_rows_equal_snapshots(self, down, u92_grid, u92_table,
                                         z92):
        # each row is the one-time call at its time, in any order of times
        packet, energies = down
        tls = time_scales(z92, 80).t_ls
        t_axis = np.linspace(0.0, tls, 5)[[3, 0, 4, 1, 2]]
        rho1, rho2 = densities(packet, energies, u92_table, t_axis)
        for i, t in enumerate(t_axis):
            one1, one2 = densities(packet, energies, u92_table, [t])
            assert np.array_equal(rho1[i], one1[0])
            assert np.array_equal(rho2[i], one2[0])

    @pytest.mark.parametrize("t_axis", [[], [0.0, 0.0], [1.0, 0.5]])
    def test_carpet_rejects_bad_time_axis(self, t_axis):
        # densities takes times in any order; a carpet draws its rows in
        # time order and checks its own axis
        with pytest.raises(InvalidRange):
            _ascending(np.array(t_axis))


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
        t = np.linspace(0.0, 35.0 * time_scales(params, n_av).t_ls, samples)
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


def ls_matrix(l):
    """L.S in the 2(2l+1) states |m_l> (x) |m_s>, m_l = l..-l and m_s = +1/2,
    -1/2 (index 2 i + s), from L_z S_z + (L_+ S_- + L_- S_+)/2."""
    m = np.arange(l, -l - 1, -1.0)
    l_up = np.diag(np.sqrt(l * (l + 1) - m[1:] * (m[1:] + 1)), k=1)
    s_up = np.array([[0.0, 1.0], [0.0, 0.0]])
    return (np.kron(np.diag(m), np.diag([0.5, -0.5]))
            + 0.5 * (np.kron(l_up, s_up.T) + np.kron(l_up.T, s_up)))


class TestSpinOrbitMatrixOracle:
    """Per n, H = eps_+ + k (L.S - l/2) with k = omega/(l + 1/2), which puts
    j = l + 1/2 at eps_+ and j = l - 1/2 at eps_+ - omega.  eigh of H - eps_+
    and exact evolution of w_n |l> (x) (a, b) share none of the Clebsch-Gordan
    factors of the production closed forms and phase sums.  eps_+ is removed
    before eigh and its phase exp(-i eps_+ t) put back per n: a centroid
    removed instead leaves phases that differ from the production ones by
    the rounding of |eps_+ t|, up to 1.4e-6 of the peak density.  Worst over
    1000 random draws: 3.5e-14 in sigma and N2, 9.7e-14 of the peak
    density."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(Z=st.integers(1, 136), l=st.integers(1, 6),
           n_av=st.integers(0, 118), sigma=st.floats(0.3, 4.0),
           theta=st.floats(0.0, math.pi / 2),
           phases=st.tuples(st.floats(-math.pi, math.pi),
                            st.floats(-math.pi, math.pi)),
           t_over_tls=st.floats(0.0, 40.0))
    def test_observables_and_densities(self, Z, l, n_av, sigma, theta, phases,
                                       t_over_tls):
        params = PhysicalParams(Z=Z, l=l)
        n_av += l + 1
        a = math.cos(theta) * cmath.exp(1j * phases[0])
        b = math.sin(theta) * cmath.exp(1j * phases[1])
        packet = build_packet(PacketSpec(n_av=n_av, sigma=sigma, a=a, b=b), l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        t = t_over_tls * time_scales(params, n_av).t_ls
        eps, omega = energies.eps_plus, energies.omega  # rows = packet n

        k = omega / (l + 0.5)
        shifted = ls_matrix(l) - 0.5 * l * np.eye(2 * (2 * l + 1))
        lam, vec = np.linalg.eigh(k[:, None, None] * shifted)
        psi0 = np.zeros(2 * (2 * l + 1), dtype=complex)
        psi0[:2] = packet.spec.a, packet.spec.b
        coef = np.exp(-1j * lam * t) * (vec.conj().transpose(0, 2, 1) @ psi0)
        psi = np.einsum("nij,nj->ni", vec, coef) \
            * (packet.weights * np.exp(-1j * eps * t))[:, None]
        up, down = psi[:, 0::2], psi[:, 1::2]

        series = observable_series(packet, energies, np.array([t]))
        cross = np.sum(np.conj(up) * down)
        for got, want in ((series.sx, 2.0 * cross.real),
                          (series.sy, 2.0 * cross.imag),
                          (series.sz, np.sum(np.abs(up) ** 2
                                             - np.abs(down) ** 2)),
                          (series.N2, np.sum(np.abs(down) ** 2))):
            assert abs(got[0] - want) <= 1e-12

        r = np.linspace(0.0, outer_radius(params, packet.n_max), 101)
        table = radial_table(params, packet.n_min, packet.n_max, r)
        rho1, rho2 = densities(packet, energies, table, [t])
        # the m_l components of each spinor component add incoherently
        want1, want2 = (r ** 2 * np.sum(np.abs(c.T @ table.values) ** 2,
                                        axis=0) for c in (up, down))
        peak = max(want1.max(), want2.max())
        assert np.abs(rho1[0] - want1).max() <= 1e-12 * peak
        assert np.abs(rho2[0] - want2).max() <= 1e-12 * peak


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
        t = 35.0 * time_scales(params, n).t_ls
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
        asq = observable_series(packet, energies, t).asq
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
