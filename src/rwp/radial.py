"""Stable hydrogenic radial wavefunctions, a mapped quadrature grid and
Simpson quadrature.

The quadrature grid is r = r_max x^2 with uniform steps in x and composite
Simpson weights in x, the Jacobian dr/dx folded in.  Points crowd towards the
nucleus, where R_{n,l} varies on the scale 1/Z, and thin out over the slowly
varying outer region, so a few thousand points hold the Gram matrix of
n <= 200 (Z = 92) and n <= 410 (Z = 1) within 1e-12 of identity, and of
n 960-1000 (packet.N_LIMIT) at Z = 1 and Z = 92 within 3e-12.

R_{n,l}(r) is needed at Rydberg n (the tests go to n = 1000), where the
textbook normalization sqrt((n-l-1)!/(2n (n+l)!)) overflows long before the
function values do.  Evaluation therefore runs the three-term Laguerre
recurrence on the *fully weighted* function (exponential, power and
normalization folded in via log-gamma) while carrying an explicit
power-of-two exponent per grid point, so no intermediate ever leaves the
double range.  It carries k! L_k, so a step divides by nothing; the
1/(n-l-1)! of the last degree joins the normalization.  A table runs the
recurrence for all its n at once, over blocks of radii small enough to stay
in cache; a row that reaches its degree drops out.  The rescale check runs
only every few steps, as often as a growth bound per block requires, and
gives the bits of a check at every step.  A radius so far out that its start
weight lies below 2^(-2^40), or that 2 Z r/n overflows, gives +0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalParams
from .errors import InvalidGridSpec, InvalidQuantumNumbers

_LN2 = math.log(2.0)
# Simpson points in x on the mapped grid; 2001 already hold the Gram matrix of
# n 156-200 (Z = 92) and n 390-410 (Z = 1) within 1e-11 of identity.  5001
# also sets the default row count of the density CSV and the column count of
# the carpet images.
DEFAULT_GRID_POINTS = 5001
# renormalize the recurrence when the mantissa exceeds 2^500
_RESCALE_POW = 500
_RESCALE_UP = 2.0 ** _RESCALE_POW
_RESCALE_DOWN = 2.0 ** -_RESCALE_POW
# least log2 of a start weight that the recurrence runs (see _recurrence)
_LOG2W_MIN = -2.0 ** 40
# Elements per block of every block loop: rows x radii (radial_table), times
# x radii (densities), times x n (cmd_observables), pixels (write_pgm), two
# per value (write_csv, which traces about 230 bytes a value).  ms (best of
# 15-45) or cold CPU s (median of 6) / peak MB, traced or RSS, at 16384,
# 32768, 65536 and 131072 (2-core x86-64, AVX-512): densities 201 x 5001,
# 45/17.4, 45/18.6, 50/21.4, 53/26.6; two fig-6 PGMs, 26.4/0.25, 26.2/0.49,
# 27.4/1.05, 27.3/2.09; write_csv fig 4, 17.5/1.8, 17.0/3.6, 17.5/7.2,
# 18.7/14.3; observables fig 4 at 1,000,001 samples, 2.84/39.5, 2.70/41.3,
# 2.77/43.0, 2.79/48.3.  radial_table on the 5001-point grid, l = 1, median
# of 8 best-of-15 ms, at 32768 against blocks of 1024 radii: Z 92 n 70-90
# (N = 21, 1560 radii) 13.1/12.7, Z 1 n 390-410 (N = 21) 51.3/55.3, Z 92
# n 156-200 (N = 45, 728 radii) 50.7/49.4.
_BLOCK_ELEMENTS = 32768


def _blocks(length: int, width: int) -> list:
    """Slices of range(length), _BLOCK_ELEMENTS // width rows (>= 1) each."""
    step = max(1, _BLOCK_ELEMENTS // max(1, width))
    return [slice(i, i + step) for i in range(0, length, step)]


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


@dataclass(frozen=True)
class RadialTable:
    """Rows of R_{n,l}(r) sampled at the radii r, one row per n."""

    values: np.ndarray  # shape (len(n_range), len(r))
    r: np.ndarray
    n_range: np.ndarray
    l: int
    Z: int


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


def _lognorm(Z: int, n: int, l: int) -> float:
    """log of (2Z/n)^{3/2} sqrt((n-l-1)!/(2n (n+l)!)) / (n-l-1)!."""
    return (1.5 * math.log(2.0 * Z / n)
            + 0.5 * (-math.lgamma(n - l) - math.log(2.0 * n)
                     - math.lgamma(n + l + 1)))


def _check_stride(k_max: int, alpha: int, rho_max: float) -> int:
    """Steps between rescale checks of a block whose rows run to degree
    k_max over rho <= rho_max.

    A step forms (2k+1+alpha-rho) H_k - k(k+alpha) H_{k-1}, so no product
    or difference of a step exceeds G = 2 k_max + 1 + alpha + rho_max +
    k_max (k_max + alpha) times max(|H_k|, |H_{k-1}|).  A check leaves both
    below 2^523 (a value below 2^1023 scaled by 2^-500, or one left at
    <= 2^500), and so does the start (H_0 < 2, H_1 < 2 G), so stride steps
    with G^stride <= 2^500 keep every value below 2^1023.  A live rho stays
    below 2^41 (_LOG2W_MIN), so G < 2^42 and the stride is at least 11 while
    k_max and alpha stay below 2^20 (25 at n = 1000 near the turning point).
    """
    return int(_RESCALE_POW // math.log2(2.0 * k_max + 1 + alpha + rho_max
                                         + k_max * (k_max + alpha)))


def _recurrence(rho, lognorm, l, k_top, out):
    """Scaled Laguerre recurrence on one rows x columns rho block, into out."""
    if l == 0:
        logw = lognorm - 0.5 * rho  # rho^0 = 1 even at r = 0
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            logw = lognorm - 0.5 * rho + l * np.log(rho)
    alpha = 2 * l + 1
    log2w = logw / _LN2
    # A start weight below 2^(-2^40), or a NaN one (rho = inf), is dead: its
    # 1/k_top! is above 2^(-2^35) at k_top < 10^9, so it needs rho > 2^40,
    # where e^(-rho/2) stays 0 times k! L_k^alpha <= k! (k+alpha choose k)
    # (1 + rho)^k.  Dead columns run on rho = 0 with H = 0 and give +0.0;
    # r = 0 at l > 0 (log 0 = -inf) is one.  Above the cutoff expo fits int64
    # and logw - expo ln2 is within 2^-11 of [0, ln 2), so a start mantissa
    # lies in [1, 2) up to rounding.
    live = log2w >= _LOG2W_MIN
    rho = np.where(live, rho, 0.0)
    expo = np.zeros(rho.shape, dtype=np.int64)
    expo[live] = np.floor(log2w[live]).astype(np.int64)
    f_prev = np.zeros(rho.shape)  # degree 0: L_0 = 1
    f_prev[live] = np.exp(logw[live] - expo[live] * _LN2)
    # k_top is consecutive, so the rows done by degree k are the first
    # k - k_top[0] + 1 (clipped to 0..len): the suffix [i0:] still runs
    k0 = int(k_top[0])
    i0 = min(len(k_top), max(0, 1 - k0))
    np.ldexp(f_prev[:i0], expo[:i0], out=out[:i0])
    if i0 == len(rho):
        return
    stride = _check_stride(int(k_top[-1]), alpha, float(rho.max()))
    f_cur = np.empty(rho.shape)
    buf = np.empty(rho.shape)
    np.multiply(f_prev[i0:], (1.0 + alpha) - rho[i0:], out=f_cur[i0:])
    for k in range(1, int(k_top[-1])):
        i1 = min(len(k_top), k - k0 + 1)
        if i1 > i0:
            np.ldexp(f_cur[i0:i1], expo[i0:i1], out=out[i0:i1])
            i0 = i1
        # degree k+1 = (2k+1+alpha-rho) H_k - k(k+alpha) H_{k-1}, written
        # over H_{k-1}; then the two buffers swap names
        fp, fc, tmp, e = f_prev[i0:], f_cur[i0:], buf[i0:], expo[i0:]
        np.subtract(2.0 * k + 1.0 + alpha, rho[i0:], out=tmp)
        tmp *= fc
        fp *= float(k * (k + alpha))
        np.subtract(tmp, fp, out=fp)
        f_prev, f_cur = f_cur, f_prev
        fp, fc = fc, fp
        if k % stride:
            continue
        # Rescale an entry when H_k or H_{k-1} exceeds 2^500: with checks
        # stride steps apart, H_{k-1} can be large while H_k is not.  A row
        # that rescales every step instead (the test reference) ends with the
        # same bits: scaling both buffers by 2^-500 scales every later
        # product and difference exactly, as nothing overflows
        # (_check_stride) or goes subnormal (a checked row holds at most the
        # rescales of the every-step one, so its values are no smaller), and
        # ldexp rounds the same real number the same way.  Only large |H|
        # is rescaled: a start mantissa lies in [1, 2) and a step is one
        # subtraction, 0 or >= one ulp of its larger operand, so two
        # consecutive near-zero values cannot occur.  Deciding writes nothing.
        if max(fc.max(), fp.max(), -fc.min(), -fp.min()) > _RESCALE_UP:
            big = np.abs(fc, out=tmp) > _RESCALE_UP
            big |= np.abs(fp, out=tmp) > _RESCALE_UP
            fc[big] *= _RESCALE_DOWN
            fp[big] *= _RESCALE_DOWN
            e[big] += _RESCALE_POW
    np.ldexp(f_cur[i0:], expo[i0:], out=out[i0:])


def radial_table(params: PhysicalParams, n_min: int, n_max: int,
                 r) -> RadialTable:
    """Tabulate R_{n,l} for n in [n_min, n_max] at the radii r (a quadrature
    grid's ``r``, a display axis or one radius), one row per n.

    Runs the degree recurrence of the generalized Laguerre polynomials, in
    the form for k! L_k^alpha, on the weighted function

        H_k(rho) = N/k_top! * exp(-rho/2) * rho^l * k! L_k^{2l+1}(rho),

    rho = 2 Z r / n, which obeys the same recurrence because the weight is
    degree-independent, for all N rows at once, one block of ``_blocks``
    (_BLOCK_ELEMENTS // N radii) at a time.  Row n stops after k_top =
    n - l - 1 steps, at H = R_{n,l}; since the n ascend, the rows still
    running at step k are a suffix [i0:] and a row freezes by advancing i0.
    Each entry takes the arithmetic of a lone row up to exact power-of-two
    rescales, whose steps depend on the block, so a row's bits do not depend
    on which other n or r share its call.  The tests hold the Gram matrix
    within 1e-8 of identity at n 156-200 (Z = 92), 390-410 (Z = 1) and
    960-1000 (both).
    """
    if not (params.l + 1 <= n_min <= n_max):
        raise InvalidQuantumNumbers(
            f"need l+1 <= n_min <= n_max, got l={params.l}, "
            f"n_min={n_min}, n_max={n_max}"
        )
    Z, l = params.Z, params.l
    ns = np.arange(n_min, n_max + 1)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all(np.isfinite(r)):
        raise InvalidQuantumNumbers("r must be finite")
    if np.any(r < 0):
        raise InvalidQuantumNumbers("r must be >= 0")
    nf = ns.astype(float)[:, None]
    # scalar math per n: a row starts from the same bits in any table
    lognorm = np.array([_lognorm(Z, int(n), l) for n in ns])[:, None]
    k_top = ns - l - 1
    out = np.empty((len(ns), len(r)))  # _recurrence writes every entry
    for cols in _blocks(len(r), len(ns)):
        # r = 0 and rho = inf (r near the double limit) need no skip:
        # _recurrence's dead mask gives +0.0 there
        with np.errstate(over="ignore"):
            rho = 2.0 * Z * r[cols] / nf
        _recurrence(rho, lognorm, l, k_top, out[:, cols])
    return RadialTable(values=out, r=r, n_range=ns, l=l, Z=Z)
