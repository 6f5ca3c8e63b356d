"""Stable hydrogenic radial wavefunctions, a mapped quadrature grid and
Simpson quadrature.

The quadrature grid is r = r_max x^2 with uniform steps in x and composite
Simpson weights in x, the Jacobian dr/dx folded in.  Points crowd towards the
nucleus, where R_{n,l} varies on the scale 1/Z, and thin out over the slowly
varying outer region, so a few thousand points hold the Gram matrix of
n <= 200 (Z = 92) and n <= 410 (Z = 1) within 1e-12 of identity.

R_{n,l}(r) is needed up to n ~ 200, where the textbook normalization
sqrt((n-l-1)!/(2n (n+l)!)) overflows long before the function values do.
Evaluation therefore runs the three-term Laguerre recurrence on the *fully
weighted* function (exponential, power and normalization folded in via
log-gamma) while carrying an explicit power-of-two exponent per grid point,
so no intermediate ever leaves the double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams
from .errors import InvalidGridSpec, InvalidQuantumNumbers, LengthMismatch

_LN2 = math.log(2.0)
# Simpson points in x on the mapped grid; 2001 already hold the Gram matrix of
# n 156-200 (Z = 92) and n 390-410 (Z = 1) within 1e-11 of identity.  5001
# also sets the default row count of the density CSV and the column count of
# the carpet images.
DEFAULT_GRID_POINTS = 5001
# renormalize the recurrence when the mantissa leaves [2^-500, 2^500]
_RESCALE_POW = 500
_RESCALE_UP = 2.0 ** _RESCALE_POW
_RESCALE_DOWN = 2.0 ** -_RESCALE_POW


@dataclass(frozen=True)
class RadialGrid:
    """Mapped radial grid r = r_max x^2 on [0, r_max] with quadrature weights.

    ``sum(quad_w * f)`` approximates the integral of f dr: the weights are
    composite Simpson weights in x times the Jacobian dr/dx = 2 r_max x, so
    the steps in r grow linearly and the point r = 0 carries zero weight.
    """

    r: np.ndarray
    quad_w: np.ndarray

    @property
    def r_max(self) -> float:
        return float(self.r[-1])

    def __len__(self):
        return len(self.r)


@dataclass(frozen=True)
class RadialTable:
    """Rows of R_{n,l}(r) sampled at common radii, one row per n."""

    values: np.ndarray  # shape (len(n_range), len(r))
    n_range: np.ndarray
    l: int
    Z: int

    def row(self, n: int) -> np.ndarray:
        idx = n - int(self.n_range[0])
        if idx < 0 or idx >= len(self.n_range):
            raise InvalidQuantumNumbers(f"n = {n} not tabulated")
        return self.values[idx]


def simpson_weights(points: int, h: float) -> np.ndarray:
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def outer_radius(params: PhysicalParams, n_max: int) -> float:
    """Outer edge max(2.5 n_max, 2 n_max + 40) n_max/Z of every radial axis:
    the turning point ~2 n_max^2/Z plus a margin of at least 40 n_max/Z, which
    holds the Gram matrix of any 21 consecutive n <= 100 within 2e-13 of
    identity (a margin of n_max^2/(2Z) alone left 1.3e-3 at n 2-10, Z = 92)."""
    if n_max < params.l + 1:
        raise InvalidQuantumNumbers(f"n_max = {n_max} < l+1 = {params.l + 1}")
    return max(2.5 * n_max, 2.0 * n_max + 40) * n_max / params.Z


def make_grid(params: PhysicalParams, n_max: int,
              points: int = DEFAULT_GRID_POINTS) -> RadialGrid:
    """Mapped grid r = r_max x^2 out to ``outer_radius``, Simpson in x."""
    if points < 501 or points % 2 == 0:
        raise InvalidGridSpec(
            f"composite Simpson needs an odd point count >= 501, got {points}"
        )
    r_max = outer_radius(params, n_max)
    x = np.linspace(0.0, 1.0, points)
    quad_w = simpson_weights(points, 1.0 / (points - 1)) * (2.0 * r_max * x)
    return RadialGrid(r=r_max * x * x, quad_w=quad_w)


def radial_eval(Z: int, n: int, l: int, r) -> np.ndarray:
    """Normalized bound radial function R_{n,l}(r), stable up to n ~ 200.

    Uses the degree recurrence of the generalized Laguerre polynomials
    applied to the weighted function

        F_k(rho) = N * exp(-rho/2) * rho^l * L_k^{2l+1}(rho),  rho = 2 Z r / n,

    which obeys the same recurrence because the weight is degree-independent.
    The starting weight is split into mantissa and power-of-two exponent from
    its logarithm; the exponent rides along and is re-applied at the end with
    ldexp (tail underflow flushes cleanly to zero).
    """
    if n < l + 1 or l < 0 or Z < 1:
        raise InvalidQuantumNumbers(f"invalid (Z, n, l) = ({Z}, {n}, {l})")
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr < 0):
        raise InvalidQuantumNumbers("r must be >= 0")
    rho = 2.0 * Z * r_arr / n

    lognorm = (1.5 * math.log(2.0 * Z / n)
               + 0.5 * (math.lgamma(n - l) - math.log(2.0 * n)
                        - math.lgamma(n + l + 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        logw = lognorm - 0.5 * rho + l * np.log(rho)
    if l == 0:
        logw = lognorm - 0.5 * rho  # rho^0 = 1 even at r = 0
    finite = np.isfinite(logw)
    expo = np.zeros(len(rho), dtype=np.int64)
    expo[finite] = np.floor(logw[finite] / _LN2).astype(np.int64)
    mant = np.zeros(len(rho))
    mant[finite] = np.exp(logw[finite] - expo[finite] * _LN2)

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


def radial_table(params: PhysicalParams, n_min: int, n_max: int,
                 r) -> RadialTable:
    """Tabulate R_{n,l} for n in [n_min, n_max] at the radii r (a quadrature
    grid's ``r`` or a display axis), one ``radial_eval`` row per n."""
    if not (params.l + 1 <= n_min <= n_max):
        raise InvalidQuantumNumbers(
            f"need l+1 <= n_min <= n_max, got l={params.l}, "
            f"n_min={n_min}, n_max={n_max}"
        )
    ns = np.arange(n_min, n_max + 1)
    rows = [radial_eval(params.Z, int(n), params.l, r) for n in ns]
    return RadialTable(values=np.vstack(rows), n_range=ns,
                       l=params.l, Z=params.Z)


def inner_product(f, g, grid: RadialGrid) -> float:
    """Composite-Simpson value of the radial integral  int f g r^2 dr."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if len(f) != len(grid) or len(g) != len(grid):
        raise LengthMismatch(
            f"sample lengths {len(f)}, {len(g)} vs grid {len(grid)}"
        )
    return float(np.sum(grid.quad_w * f * g * grid.r ** 2))
