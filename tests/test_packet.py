"""Packet construction and exact evolution amplitudes."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import per_n_norm
from rwp.core import PhysicalParams, energy_table
from rwp.errors import InvalidRange, NonNormalizedSpinor, RangeMismatch
from rwp.packet import (N_LIMIT, PacketSpec, amplitudes_at, build_packet,
                        truncation_bounds)


def weights():
    return build_packet(PacketSpec(80, 2.0, n_min=70, n_max=90), 1).weights


class TestGaussianWeights:
    def test_normalization(self):
        assert np.sum(weights() ** 2) == pytest.approx(1.0, rel=1e-15)

    def test_sign_alternation(self):
        w = weights()
        assert np.all(w[:-1] * w[1:] < 0)

    def test_symmetry(self):
        w = weights()
        # |w_{80+k}| = |w_{80-k}|
        assert abs(w[12]) == pytest.approx(abs(w[8]), rel=1e-14)
        assert abs(w[20]) == pytest.approx(abs(w[0]), rel=1e-14)


class TestBuildPacket:
    def test_default_truncation(self):
        p = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0), 1)
        assert (p.n_min, p.n_max) == (70, 90)
        assert len(p.weights) == 21

    def test_truncated_tail_weight(self):
        # +/- 5 sigma keeps the dropped weight far below 1e-10
        assert math.exp(-2.0 * 5.0 ** 2) < 1e-10

    def test_low_n_clamp(self):
        p = build_packet(PacketSpec(n_av=3, sigma=2.0, a=0.0, b=1.0), 1)
        assert p.n_min == 2

    def test_spinor_validation(self):
        spec = PacketSpec(n_av=80, sigma=2.0)  # spin down by default
        assert (spec.a, spec.b) == (0.0, 1.0)
        build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8), 1)
        with pytest.raises(NonNormalizedSpinor):
            build_packet(PacketSpec(n_av=80, sigma=2.0, a=1.0, b=1.0), 1)

    def test_spinor_renormalized(self):
        # within the 1e-9 tolerance, so accepted, then scaled to unit norm
        p = build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8000000005), 1)
        assert abs(p.spec.a ** 2 + p.spec.b ** 2 - 1.0) <= 4.5e-16
        assert p.spec.a / p.spec.b == pytest.approx(0.6 / 0.8000000005,
                                                    rel=1e-15)
        # |a|^2 + |b|^2 = 1 + 3.2e-9, beyond the tolerance
        with pytest.raises(NonNormalizedSpinor):
            build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.800000002), 1)

    def test_nan_spinor_rejected(self):
        with pytest.raises(NonNormalizedSpinor):
            build_packet(PacketSpec(n_av=80, sigma=2.0, a=math.nan, b=1.0), 1)

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            build_packet(PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0,
                                    n_min=85, n_max=90), 1)
        # n_min below l+1: rejected by build_packet itself, not later by
        # energy_table
        with pytest.raises(InvalidRange, match="l\\+1 <= n_min"):
            build_packet(PacketSpec(n_av=5, sigma=1.0, n_min=1), 1)

    @pytest.mark.parametrize("spec, bounds", [
        # round(1000.5) = 1000: the rounded bound is what counts
        (PacketSpec(n_av=N_LIMIT - 10, sigma=2.1), (N_LIMIT - 20, N_LIMIT)),
        (PacketSpec(n_av=80, sigma=2.0, n_min=2, n_max=N_LIMIT), (2, N_LIMIT)),
        (PacketSpec(n_av=80, sigma=1e308, n_min=2, n_max=90), (2, 90)),
    ])
    def test_bounds_up_to_n_limit(self, spec, bounds):
        assert truncation_bounds(spec, 1) == bounds

    @pytest.mark.parametrize("spec, match", [
        (PacketSpec(n_av=N_LIMIT - 10, sigma=2.2), "N_LIMIT"),
        (PacketSpec(n_av=80, sigma=2.0, n_max=N_LIMIT + 1), "N_LIMIT"),
        (PacketSpec(n_av=80, sigma=2.0, n_min=N_LIMIT + 1,
                    n_max=N_LIMIT + 5), "N_LIMIT"),
        (PacketSpec(n_av=80, sigma=1e300), "N_LIMIT"),
        (PacketSpec(n_av=80, sigma=1e308, n_max=90), "N_LIMIT"),
        # the sigma rule comes before the spread 5 sigma, with or without
        # explicit bounds: a NaN sigma would make every weight NaN
        (PacketSpec(n_av=80, sigma=math.nan), "sigma must be > 0"),
        (PacketSpec(n_av=80, sigma=math.nan, n_min=70, n_max=90),
         "sigma must be > 0"),
        (PacketSpec(n_av=80, sigma=-2.0), "sigma must be > 0"),
        (PacketSpec(n_av=80, sigma=0.0), "sigma must be > 0"),
    ], ids=["rounded-above", "n-max", "n-min", "sigma-1e300", "sigma-1e308",
            "sigma-nan", "sigma-nan-bounds", "sigma-negative", "sigma-zero"])
    def test_bounds_above_n_limit_rejected(self, spec, match):
        with pytest.raises(InvalidRange, match=match):
            truncation_bounds(spec, 1)
        with pytest.raises(InvalidRange, match=match):
            build_packet(spec, 1)


@pytest.fixture(scope="module")
def setup():
    params = PhysicalParams(Z=92, l=1)
    packet = build_packet(
        PacketSpec(n_av=80, sigma=2.0, a=0.6, b=0.8), params.l)
    energies = energy_table(params, packet.n_min, packet.n_max)
    return params, packet, energies


class TestAmplitudes:
    def test_initial_time(self, setup):
        _, packet, energies = setup
        amps = amplitudes_at(packet, energies, 0.0)
        assert np.allclose(amps.c1, 0.6 * packet.weights)
        assert np.allclose(amps.d1, 0.0)
        assert np.allclose(amps.c2, 0.8 * packet.weights)

    def test_spin_up_never_mixes(self):
        params = PhysicalParams(Z=92, l=1)
        packet = build_packet(PacketSpec(n_av=80, sigma=2.0, a=1.0, b=0.0),
                              params.l)
        energies = energy_table(params, packet.n_min, packet.n_max)
        for t in (0.0, 17.3, 5000.0):
            amps = amplitudes_at(packet, energies, t)
            assert np.allclose(amps.d1, 0.0)
            assert np.allclose(amps.c2, 0.0)
            assert np.allclose(np.abs(amps.c1), np.abs(packet.weights))

    def test_single_n_half_period(self):
        # at omega t = pi the c2 channel is down to ((2l-1)/(2l+1))^2 = 1/9
        params = PhysicalParams(Z=92, l=1)
        packet = build_packet(
            PacketSpec(n_av=80, sigma=2.0, a=0.0, b=1.0, n_min=80, n_max=80),
            params.l)
        energies = energy_table(params, 80, 80)
        t_half = math.pi / energies.omega[0]
        amps = amplitudes_at(packet, energies, t_half)
        assert abs(amps.c2[0]) ** 2 == pytest.approx(1.0 / 9.0, rel=1e-10)
        assert abs(amps.d1[0]) ** 2 == pytest.approx(8.0 / 9.0, rel=1e-10)

    def test_per_n_unitarity_random_times(self, setup, rng):
        _, packet, energies = setup
        w2 = packet.weights ** 2
        for t in rng.uniform(0.0, 1e6, size=200):
            amps = amplitudes_at(packet, energies, t)
            assert np.abs(per_n_norm(amps) - w2).max() < 1e-13

    def test_total_norm(self, setup, rng):
        _, packet, energies = setup
        for t in rng.uniform(0.0, 1e6, size=20):
            amps = amplitudes_at(packet, energies, t)
            assert np.sum(per_n_norm(amps)) == pytest.approx(1.0, abs=1e-12)

    def test_time_reversal_conjugation(self, setup):
        _, packet, energies = setup
        fwd = amplitudes_at(packet, energies, 321.7)
        bwd = amplitudes_at(packet, energies, -321.7)
        assert np.allclose(fwd.c1, np.conj(bwd.c1), atol=1e-15)
        assert np.allclose(fwd.d1, np.conj(bwd.d1), atol=1e-15)
        assert np.allclose(fwd.c2, np.conj(bwd.c2), atol=1e-15)

    def test_energy_shift_is_common_phase(self, setup):
        _, packet, energies = setup
        shift = 123.456
        shifted = dataclasses.replace(
            energies,
            eps_plus=energies.eps_plus + shift,
            eps_minus=energies.eps_minus + shift)
        t = 97.3
        base = amplitudes_at(packet, energies, t)
        moved = amplitudes_at(packet, shifted, t)
        phase = np.exp(-1j * shift * t)
        assert np.allclose(moved.c1, base.c1 * phase, atol=1e-14)
        assert np.allclose(moved.d1, base.d1 * phase, atol=1e-14)
        assert np.allclose(moved.c2, base.c2 * phase, atol=1e-14)

    def test_time_axis_matches_scalar_calls(self, setup, rng):
        _, packet, energies = setup
        times = np.concatenate([[0.0, -321.7], rng.uniform(0.0, 1e6, size=30)])
        batch = amplitudes_at(packet, energies, times)
        singles = [amplitudes_at(packet, energies, t) for t in times]
        assert np.array_equal(batch.t, times)
        for name in ("c1", "d1", "c2"):
            assert getattr(batch, name).shape == (len(times), len(packet.n))
            assert np.array_equal(getattr(batch, name),
                                  np.stack([getattr(s, name) for s in singles]))
        one = singles[-1]
        assert type(one.t) is float and one.t == times[-1]
        assert one.c1.shape == one.d1.shape == one.c2.shape == packet.n.shape

    def test_range_mismatch(self, setup):
        # the energy table spans exactly the packet's n: short or wider fails
        params, packet, _ = setup
        for lo, hi in [(75, 90), (packet.n_min, packet.n_max + 1)]:
            with pytest.raises(RangeMismatch, match=rf"covers \[{lo}, {hi}\]"):
                amplitudes_at(packet, energy_table(params, lo, hi), 0.0)
