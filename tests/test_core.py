"""Energy levels, splittings and time scales against independent oracles."""

import math

import numpy as np
import pytest
from mpmath import mp, mpf

from conftest import eps_mp, splitting_mp
from rwp.core import (FINE_STRUCTURE_CONST, PhysicalParams,
                      energy_derivatives, energy_splitting, energy_table,
                      reduced_energy, t_ls_lowest_order, time_scales)
from rwp.errors import InvalidQuantumNumbers, SupercriticalCharge

ALPHA = FINE_STRUCTURE_CONST


class TestDiracEnergy:
    def test_ground_state_closed_form(self):
        # n=1, j=1/2 reduces to E = m0 c^2 sqrt(1 - (Z alpha)^2)
        eps = reduced_energy(1, 1, 0.5)
        closed = (math.sqrt(1.0 - ALPHA ** 2) - 1.0) / ALPHA ** 2
        assert eps == pytest.approx(closed, rel=1e-14)
        assert eps == pytest.approx(-0.500006657, abs=1e-9)
        assert eps == pytest.approx(float(eps_mp(1, 1, 0.5)), rel=1e-13)

    @pytest.mark.parametrize("Z,n,j", [
        (1, 2, 0.5), (1, 2, 1.5), (1, 80, 1.5), (47, 10, 0.5),
        (92, 80, 0.5), (92, 80, 1.5), (92, 150, 1.5),
    ])
    def test_extended_precision_oracle(self, Z, n, j):
        assert reduced_energy(Z, n, j) == pytest.approx(
            float(eps_mp(Z, n, j)), rel=1e-12)

    @pytest.mark.parametrize("scale", [10.0, 100.0])
    def test_nonrelativistic_limit(self, scale):
        # eps -> -Z^2/(2 n^2) as alpha -> 0; deviation shrinks like alpha^2
        for n in (2, 10, 40):
            nr = -5.0 ** 2 / (2.0 * n ** 2)
            rel = abs(reduced_energy(5, n, 1.5, ALPHA / scale) / nr - 1.0)
            assert rel < 2.0 * (5 * ALPHA / scale) ** 2

    def test_level_ordering_high_z(self):
        assert reduced_energy(92, 80, 1.5) > reduced_energy(92, 80, 0.5)

    def test_bound_state_window(self):
        for Z in (1, 47, 92):
            for n in (2, 10, 80):
                for j in (0.5, 1.5):
                    eps = reduced_energy(Z, n, j)
                    assert eps < 0.0
                    assert abs(eps) < Z ** 2 / 2.0

    def test_supercritical_charge(self):
        with pytest.raises(SupercriticalCharge):
            PhysicalParams(Z=138, l=1)


class TestEnergyTable:
    def test_fine_structure_splitting_z1(self):
        # omega vs leading-order Z^4 alpha^2 / (2 n^3 l (l+1)) at small Z alpha
        p = PhysicalParams(Z=1, l=1)
        table = energy_table(p, 2, 5)
        for n, omega in zip(table.n, table.omega):
            leading = ALPHA ** 2 / (2.0 * n ** 3 * 1 * 2)
            assert omega == pytest.approx(leading, rel=1e-4)

    @pytest.mark.parametrize("Z", [1, 47, 92])
    @pytest.mark.parametrize("n", [10, 80, 150])
    def test_cancellation_safety(self, Z, n):
        p = PhysicalParams(Z=Z, l=1)
        assert energy_splitting(p, n) == pytest.approx(
            float(splitting_mp(Z, n, 1)), rel=1e-10)

    def test_omega_monotone_decreasing(self):
        p = PhysicalParams(Z=92, l=1)
        table = energy_table(p, 70, 90)
        assert np.all(np.diff(table.omega) < 0)

    def test_doublet_ordering(self):
        p = PhysicalParams(Z=92, l=1)
        table = energy_table(p, 70, 90)
        assert np.all(table.eps_plus > table.eps_minus)
        assert np.all(table.eps_plus < 0)

    def test_bad_range(self):
        p = PhysicalParams(Z=1, l=1)
        with pytest.raises(InvalidQuantumNumbers):
            energy_table(p, 1, 5)

    @pytest.mark.parametrize("Z", [1, 30, 92, 136])
    @pytest.mark.parametrize("l", [1, 2, 5])
    def test_columns_equal_scalar_calls(self, Z, l):
        # one scalar call per n is the reference for the array columns
        p = PhysicalParams(Z=Z, l=l)
        table = energy_table(p, l + 1, 410)
        ns = range(l + 1, 411)
        assert np.array_equal(table.eps_plus,
                              [reduced_energy(Z, n, l + 0.5) for n in ns])
        assert np.array_equal(table.eps_minus,
                              [reduced_energy(Z, n, l - 0.5) for n in ns])
        assert np.array_equal(table.omega, [energy_splitting(p, n) for n in ns])
        with pytest.raises(InvalidQuantumNumbers):
            energy_table(p, 9, 5)


def _fd_derivative(Z, j, n_av, order, alpha=ALPHA):
    """Central finite differences with one Richardson extrapolation step."""
    mp.dps = 40

    def f(n):
        return eps_mp(Z, n, j, alpha, dps=40)

    def diff(h):
        h = mpf(h)
        n = mpf(n_av)
        if order == 1:
            return (f(n + h) - f(n - h)) / (2 * h)
        if order == 2:
            return (f(n + h) - 2 * f(n) + f(n - h)) / h ** 2
        return (f(n + 2 * h) - 2 * f(n + h) + 2 * f(n - h)
                - f(n - 2 * h)) / (2 * h ** 3)

    d1 = diff("1e-3")
    d2 = diff("5e-4")
    return float((4 * d2 - d1) / 3)


class TestTimeScales:
    @pytest.mark.parametrize("Z,n_av", [(1, 80), (92, 80), (92, 30)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_analytic_derivatives_vs_finite_differences(self, Z, n_av, order):
        p = PhysicalParams(Z=Z, l=1)
        analytic = energy_derivatives(p, float(n_av))[order - 1]
        fd = _fd_derivative(Z, 1.5, n_av, order)
        assert analytic == pytest.approx(fd, rel=1e-7)

    def test_kepler_period_z1(self):
        p = PhysicalParams(Z=1, l=1)
        assert time_scales(p, 80).t_cl == pytest.approx(
            2.0 * math.pi * 80 ** 3, rel=1e-3)

    def test_revival_time_z1(self):
        scales = time_scales(PhysicalParams(Z=1, l=1), 80)
        assert scales.t_rev == pytest.approx(
            (2.0 * 80 / 3.0) * scales.t_cl, rel=5e-3)

    def test_spin_orbit_faster_than_revival_high_z(self):
        scales = time_scales(PhysicalParams(Z=92, l=1), 80)
        assert scales.t_ls < scales.t_rev


class TestSpinOrbitPeriod:
    @pytest.mark.parametrize("Z,n_av", [(1, 20), (47, 80), (92, 150)])
    def test_definitional_identity(self, Z, n_av):
        p = PhysicalParams(Z=Z, l=1)
        t_ls = time_scales(p, n_av).t_ls
        assert t_ls * abs(energy_splitting(p, n_av)) == pytest.approx(
            2.0 * math.pi, rel=1e-14)

    def test_lowest_order_ratio_z1(self):
        scales = time_scales(PhysicalParams(Z=1, l=1), 80)
        ratio = scales.t_ls / scales.t_cl
        assert ratio == pytest.approx(4.0 / ALPHA ** 2, rel=1e-3)

    def test_lowest_order_ratio_z92(self):
        # Z alpha ~ 0.67: the leading-order formula is only a rough guide
        scales = time_scales(PhysicalParams(Z=92, l=1), 80)
        ratio = scales.t_ls / scales.t_cl
        expected = 4.0 / (92 * ALPHA) ** 2
        assert abs(ratio / expected - 1.0) < 0.25

    def test_half_t_ls2_matches_omega_slope(self):
        # omega ~ n^-3 gives 2 pi / |domega/dn| ~ (n/3) T_ls ~ t_ls2 / 2
        p = PhysicalParams(Z=92, l=1)
        h = 1
        slope = (energy_splitting(p, 81) - energy_splitting(p, 79)) / (2 * h)
        period = 2.0 * math.pi / abs(slope)
        half = 0.5 * time_scales(p, 80).t_ls2
        assert half == pytest.approx(period, rel=0.05)

    def test_nonrelativistic_scaling(self):
        # T_ls/T_cl * (alpha/alpha0)^2 settles to 2 l (l+1) / Z^2 alpha0^2...
        # i.e. the ratio scales like alpha^-2 as alpha shrinks
        vals = []
        for scale in (10.0, 100.0):
            p = PhysicalParams(Z=5, l=1, alpha=ALPHA / scale)
            scales = time_scales(p, 40)
            ratio = scales.t_ls / scales.t_cl
            vals.append(ratio * (ALPHA / scale) ** 2)
        assert vals[0] == pytest.approx(vals[1], rel=1e-4)
        assert vals[0] == pytest.approx(4.0 / 25.0, rel=1e-3)

    def test_lowest_order_helper(self):
        p = PhysicalParams(Z=1, l=1)
        assert t_ls_lowest_order(p, 80) == pytest.approx(
            4.0 / ALPHA ** 2 * time_scales(p, 80).t_cl, rel=1e-12)


def test_time_scales_bundle(u92, u92_scales):
    assert u92_scales.t_cl < u92_scales.t_ls < u92_scales.t_rev
    assert u92_scales.t_ls2 == pytest.approx(
        (2.0 / 3.0) * 80 * u92_scales.t_ls, rel=1e-15)
