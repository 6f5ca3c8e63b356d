"""Radial wavefunctions, grids and quadrature."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from rwp.core import PhysicalParams
from rwp.errors import InvalidGridSpec, InvalidQuantumNumbers, LengthMismatch
from rwp.radial import (DEFAULT_GRID_POINTS, _check_stride, inner_product,
                        make_grid, outer_radius, radial_table,
                        simpson_weights)


def reference_radial(Z, n, l, r):
    """Textbook closed form with factorial normalization; valid for small n."""
    rho = 2.0 * Z * np.asarray(r, dtype=float) / n
    norm = math.sqrt((2.0 * Z / n) ** 3 * math.factorial(n - l - 1)
                     / (2.0 * n * math.factorial(n + l)))
    return norm * np.exp(-rho / 2.0) * rho ** l * eval_genlaguerre(n - l - 1, 2 * l + 1, rho)


# One radial row as the package had it before radial_table ran all n at once:
# one row per call, checked for rescaling at every step.  The bit-for-bit
# reference of the blocked recurrence, which checks every few steps.  A radius
# whose start weight lies below 2^(-2^40) gives +0.0, as in the package.
_LN2 = math.log(2.0)
_RESCALE_POW = 500
_RESCALE_UP = 2.0 ** _RESCALE_POW
_RESCALE_DOWN = 2.0 ** -_RESCALE_POW
_LOG2W_MIN = -2.0 ** 40


def ref_radial_eval(Z: int, n: int, l: int, r) -> np.ndarray:
    if n < l + 1 or l < 0 or Z < 1:
        raise InvalidQuantumNumbers(f"invalid (Z, n, l) = ({Z}, {n}, {l})")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr < 0):
        raise InvalidQuantumNumbers("r must be >= 0")
    with np.errstate(over="ignore"):
        rho = 2.0 * Z * r_arr / n

    lognorm = (1.5 * math.log(2.0 * Z / n)
               + 0.5 * (math.lgamma(n - l) - math.log(2.0 * n)
                        - math.lgamma(n + l + 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = lognorm - 0.5 * rho + l * np.log(rho)
    if l == 0:
        logw = lognorm - 0.5 * rho  # rho^0 = 1 even at r = 0
    live = logw / _LN2 >= _LOG2W_MIN
    rho[~live] = 0.0
    expo = np.zeros(len(rho), dtype=np.int64)
    expo[live] = np.floor(logw[live] / _LN2).astype(np.int64)
    mant = np.zeros(len(rho))
    mant[live] = np.exp(logw[live] - expo[live] * _LN2)

    alpha = 2 * l + 1
    k_top = n - l - 1
    f_prev = mant.copy()  # degree 0: L_0 = 1
    if k_top == 0:
        out = np.ldexp(f_prev, expo)
    else:
        f_cur = mant * (1.0 + alpha - rho)
        for k in range(1, k_top):
            f_next = ((2.0 * k + 1.0 + alpha - rho) * f_cur
                      - (k + alpha) * f_prev) / (k + 1.0)
            f_prev, f_cur = f_cur, f_next
            big = np.abs(f_cur) > _RESCALE_UP
            if big.any():
                f_cur[big] *= _RESCALE_DOWN
                f_prev[big] *= _RESCALE_DOWN
                expo[big] += _RESCALE_POW
            tiny = (np.abs(f_cur) < _RESCALE_DOWN) & (f_cur != 0.0)
            if tiny.any():
                f_cur[tiny] *= _RESCALE_UP
                f_prev[tiny] *= _RESCALE_UP
                expo[tiny] -= _RESCALE_POW
        out = np.ldexp(f_cur, expo)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out[0])
    return out


def row(Z, n, l, r):
    """R_{n,l}(r) as the row of a one-n radial_table.  PhysicalParams needs
    l >= 1 (both j = l +/- 1/2); radial_table reads only Z and l, so a
    stand-in carries l = 0."""
    params = PhysicalParams(Z=Z, l=l) if l else SimpleNamespace(Z=Z, l=0)
    return radial_table(params, n, n, r).values[0]


class TestGrid:
    def test_r_max_formula(self):
        g = make_grid(PhysicalParams(Z=1, l=1), 100, 4001)
        assert g.r_max == pytest.approx(25000.0)
        g = make_grid(PhysicalParams(Z=92, l=1), 100, 4001)
        assert g.r_max == pytest.approx(2.5 * 100 ** 2 / 92)
        # below n_max = 80 the margin past the turning point is 40 n_max/Z
        g = make_grid(PhysicalParams(Z=1, l=1), 10, 4001)
        assert g.r_max == pytest.approx(600.0)
        g = make_grid(PhysicalParams(Z=92, l=1), 79, 4001)
        assert g.r_max == pytest.approx((2 * 79 + 40) * 79 / 92)
        assert outer_radius(PhysicalParams(Z=92, l=1), 80) == 2.5 * 80 ** 2 / 92

    def test_weights_integrate_constant(self):
        g = make_grid(PhysicalParams(Z=1, l=1), 50, 1001)
        assert np.sum(g.quad_w) == pytest.approx(g.r_max, rel=1e-12)

    def test_weights_integrate_r_squared_exactly(self):
        # r dr = 2 r_max^2 x^3 dx is cubic in x, where Simpson is exact
        g = make_grid(PhysicalParams(Z=1, l=1), 50, 1001)
        assert np.sum(g.quad_w * g.r) == pytest.approx(g.r_max ** 2 / 2.0,
                                                       rel=1e-12)
        # r^2 dr is quintic in x: exact to rounding on the default grid
        g = make_grid(PhysicalParams(Z=1, l=1), 50)
        exact = g.r_max ** 3 / 3.0
        assert np.sum(g.quad_w * g.r ** 2) == pytest.approx(exact, rel=1e-12)

    def test_mapped_points(self):
        p = PhysicalParams(Z=92, l=1)
        g = make_grid(p, 90, 1001)
        x = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(g.r, outer_radius(p, 90) * x * x)
        assert g.r_max == outer_radius(p, 90)
        assert np.all(np.diff(g.r) > 0) and g.r[0] == 0.0
        assert g.quad_w[0] == 0.0
        assert len(make_grid(p, 90)) == DEFAULT_GRID_POINTS

    @pytest.mark.parametrize("points", [500, 4000, 3, 0])
    def test_invalid_point_counts(self, points):
        with pytest.raises(InvalidGridSpec):
            make_grid(PhysicalParams(Z=1, l=1), 50, points)

    def test_simpson_weight_pattern(self):
        w = simpson_weights(5, 1.0)
        assert np.allclose(w, np.array([1, 4, 2, 4, 1]) / 3.0)


class TestRadialEval:
    def test_hydrogen_1s(self):
        assert row(1, 1, 0, 1.0)[0] == pytest.approx(2.0 * math.exp(-1.0),
                                                     rel=1e-13)

    def test_hydrogen_2p(self):
        expected = math.exp(-1.0) / math.sqrt(6.0)
        assert row(1, 2, 1, 2.0)[0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n,l", [(3, 0), (5, 1), (12, 1), (25, 2), (30, 1)])
    def test_against_factorial_closed_form(self, n, l):
        r = np.linspace(0.0, 4.0 * n ** 2, 400)
        got = row(1, n, l, r)
        ref = reference_radial(1, n, l, r)
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_large_n_orthonormality(self):
        p = PhysicalParams(Z=1, l=1)
        g = make_grid(p, 81)
        r80 = row(1, 80, 1, g.r)
        r81 = row(1, 81, 1, g.r)
        assert inner_product(r80, r80, g) == pytest.approx(1.0, abs=1e-8)
        assert abs(inner_product(r80, r81, g)) < 1e-8

    def test_node_count(self):
        p = PhysicalParams(Z=1, l=1)
        for n in (5, 20, 60):
            g = make_grid(p, n, 8001)
            vals = row(1, n, 1, g.r[1:])
            # ignore the underflowed far tail when counting sign changes
            live = vals[np.abs(vals) > 1e-30]
            changes = int(np.sum(np.diff(np.sign(live)) != 0))
            assert changes == n - 1 - 1

    def test_charge_scaling_law(self):
        # R_{n,l}(r; Z) = Z^(3/2) R_{n,l}(Z r; 1)
        r = np.linspace(0.0, 30.0, 200)
        for Z in (2, 92):
            lhs = row(Z, 8, 1, r)
            rhs = Z ** 1.5 * row(1, 8, 1, Z * r)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    def test_no_overflow_stress_n200(self):
        p = PhysicalParams(Z=1, l=1)
        g = make_grid(p, 200, 4001)
        vals = row(1, 200, 1, g.r)
        assert np.all(np.isfinite(vals))
        assert inner_product(vals, vals, g) == pytest.approx(1.0, abs=1e-4)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidQuantumNumbers):
            row(1, 1, 1, 1.0)
        with pytest.raises(InvalidQuantumNumbers):
            row(1, 3, 1, -1.0)

    def test_scalar_round_trip(self):
        # one radius is a table of one column, at that radius
        t = radial_table(PhysicalParams(Z=1, l=1), 3, 3, 2.5)
        assert t.r.shape == (1,) and t.r[0] == 2.5
        assert t.values.shape == (1, 1)

    @pytest.mark.parametrize("Z, n, l, r", [
        (1, 3, 1, 2.5), (1, 1, 0, 1.0), (1, 2, 1, 0.0), (92, 200, 1, 0.3),
        (1, 410, 2, 3.0e5)])
    def test_scalar_matches_reference(self, Z, n, l, r):
        assert row(Z, n, l, r)[0] == ref_radial_eval(Z, n, l, r)

    def test_huge_finite_radius_is_positive_zero(self):
        # rho = 1e20 puts the start exponent past int64, and 2 Z r/n
        # overflows to inf at r = 1e308: both are +0.0, with no warning
        v = row(1, 2, 1, 1e20)[0]
        assert v == 0.0 and math.copysign(1.0, v) == 1.0
        got = radial_table(PhysicalParams(Z=136, l=1), 2, 6,
                           [1e-3, 1e308]).values
        assert np.array_equal(got[:, 1], np.zeros(5))
        assert not np.any(np.signbit(got[:, 1]))
        assert np.array_equal(got[:, 0], [row(136, n, 1, 1e-3)[0]
                                          for n in range(2, 7)])
        assert np.all(got[:, 0] > 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(InvalidQuantumNumbers, match="finite"):
            row(1, 3, 1, bad)
        with pytest.raises(InvalidQuantumNumbers, match="finite"):
            row(1, 3, 1, np.array([1.0, bad, 2.0]))
        with pytest.raises(InvalidQuantumNumbers, match="finite"):
            radial_table(PhysicalParams(Z=92, l=1), 2, 5,
                         np.array([0.0, 1.0, bad]))


def _axes(params, n_max):
    """The mapped quadrature grid, the carpet's uniform axis and an unsorted
    axis over two column blocks with r = 0, -0.0, a repeated radius and a
    radius whose rho underflows to 0."""
    uniform = np.linspace(0.0, outer_radius(params, n_max), DEFAULT_GRID_POINTS)
    rep = uniform[777]
    unsorted = np.random.default_rng(n_max).permutation(np.concatenate(
        [uniform[1:1500], [0.0, 0.0, -0.0, 5e-324, rep, rep]]))
    return {"grid": make_grid(params, n_max).r, "uniform": uniform,
            "unsorted": unsorted}


class TestRadialTable:
    @pytest.mark.parametrize("Z, n_min, n_max", [
        (92, None, None), (92, 70, 90), (92, 156, 200),
        (1, None, None), (1, 70, 90), (1, 390, 410)],
        ids=["92-lowest", "92-70-90", "92-156-200",
             "1-lowest", "1-70-90", "1-390-410"])
    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_rows_bit_identical_to_reference(self, Z, n_min, n_max, l):
        # PhysicalParams needs l >= 1 (both j = l +/- 1/2); radial_table
        # reads only Z and l, so a stand-in carries l = 0
        params = SimpleNamespace(Z=Z, l=l)
        if n_min is None:  # rows with k_top = 0 and 1 first
            n_min, n_max = l + 1, l + 12
        for r in _axes(params, n_max).values():
            got = radial_table(params, n_min, n_max, r).values
            ref = np.vstack([ref_radial_eval(Z, n, l, r)
                             for n in range(n_min, n_max + 1)])
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_wide_radii_bit_identical_to_reference(self):
        # every order of magnitude a radius can take, up to N_LIMIT: the
        # table checks for rescaling every few steps, the reference at every
        # step, and no bit differs (sign included)
        r = np.geomspace(1e-6, 1e300, 200)
        got = radial_table(PhysicalParams(Z=1, l=1), 2, 1000, r).values
        for n in (2, 3, 500, 999, 1000):
            ref = ref_radial_eval(1, n, 1, r)
            assert np.array_equal(got[n - 2], ref)
            assert np.array_equal(np.signbit(got[n - 2]), np.signbit(ref))

    def test_rescale_between_strided_checks(self):
        # n = 1000 around the turning point: checks run 38 steps apart, and
        # R / 2^(start exponent) lies far past the double range, so the
        # recurrence must have rescaled at least twice
        Z, n, l = 1, 1000, 1
        r = np.linspace(1.6e6, 2.2e6, 301)
        rho = 2.0 * Z * r / n
        assert _check_stride(n - l - 1, 2 * l + 1, rho.max()) == 38
        got = radial_table(PhysicalParams(Z=Z, l=l), n, n, r).values[0]
        ref = ref_radial_eval(Z, n, l, r)
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        lognorm = (1.5 * math.log(2.0 * Z / n)
                   + 0.5 * (math.lgamma(n - l) - math.log(2.0 * n)
                            - math.lgamma(n + l + 1)))
        start = np.floor((lognorm - 0.5 * rho + l * np.log(rho)) / _LN2)
        assert np.all(got != 0.0)
        assert np.all(np.log2(np.abs(got)) - start > 2 * 1024)

    def test_norms(self, u92, u92_grid, u92_table):
        for i in range(len(u92_table.n_range)):
            row = u92_table.values[i]
            assert inner_product(row, row, u92_grid) == pytest.approx(1.0, abs=1e-8)

    def test_gram_identity(self, u92_grid, u92_table):
        weighted = u92_table.values * u92_grid.quad_w * u92_grid.r ** 2
        gram = weighted @ u92_table.values.T
        assert np.abs(gram - np.eye(len(u92_table.n_range))).max() < 1e-8

    @pytest.mark.parametrize("Z, n_min, n_max", [
        (92, 156, 200), (1, 390, 410),
        # up to N_LIMIT: every n a packet may reach is checked
        (1, 960, 1000), (92, 960, 1000),
        # small n, where a margin of n_max^2/(2Z) cut off the tail of R_{n_max}
        (92, 2, 10), (92, 2, 30), (92, 20, 40), (1, 2, 10)])
    def test_gram_identity_rydberg_default_grid(self, Z, n_min, n_max):
        p = PhysicalParams(Z=Z, l=1)
        g = make_grid(p, n_max)
        vals = radial_table(p, n_min, n_max, g.r).values
        gram = (vals * (g.quad_w * g.r ** 2)) @ vals.T
        assert np.abs(gram - np.eye(len(vals))).max() <= 1e-8

    def test_single_row(self):
        # Rydberg regime: at n = 80 the axis ends 25% past the turning point,
        # which holds the tunneling tail below 1e-8
        p = PhysicalParams(Z=1, l=1)
        g = make_grid(p, 80)
        t = radial_table(p, 80, 80, g.r)
        assert t.values.shape == (1, len(g))
        assert inner_product(t.values[0], t.values[0], g) == pytest.approx(
            1.0, abs=1e-8)


class TestInnerProduct:
    def test_normalization(self):
        p = PhysicalParams(Z=1, l=1)
        g = make_grid(p, 5)
        r10 = row(1, 1, 0, g.r)
        assert inner_product(r10, r10, g) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self):
        p = PhysicalParams(Z=1, l=1)
        g = make_grid(p, 5)
        r21 = row(1, 2, 1, g.r)
        r31 = row(1, 3, 1, g.r)
        assert abs(inner_product(r21, r31, g)) < 1e-10

    def test_polynomial_exactness(self):
        # f g r^2 dr with f g = 1/r is cubic in x, where Simpson is exact;
        # r = 0 carries zero weight, so the value put there does not count
        p = PhysicalParams(Z=1, l=1)
        g = make_grid(p, 5, 501)
        ones = np.ones(len(g))
        inv_r = np.zeros(len(g))
        inv_r[1:] = 1.0 / g.r[1:]
        assert inner_product(ones, inv_r, g) == pytest.approx(
            g.r_max ** 2 / 2.0, rel=1e-12)
        g = make_grid(p, 5)
        ones = np.ones(len(g))
        assert inner_product(ones, ones, g) == pytest.approx(
            g.r_max ** 3 / 3.0, rel=1e-12)

    def test_length_mismatch(self):
        p = PhysicalParams(Z=1, l=1)
        g = make_grid(p, 5, 501)
        with pytest.raises(LengthMismatch):
            inner_product(np.ones(5), np.ones(len(g)), g)
