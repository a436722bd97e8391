"""Wigner quasi-probability on a rectangular grid, with rotated marginals.

Units follow the package quadrature convention (vacuum variance 1/4), so

    W_vac(x1, x2) = (2/pi) e^{-2 (x1^2 + x2^2)}

and every Wigner function is bounded by |W| <= 2/pi.  Values come from the
displaced-parity kernel

    W(alpha) = (2/pi) sum_{mn} rho_{mn} (-1)^m <n|D(2 alpha)|m>,
    alpha = x1 + i x2

with the displacement matrix elements in associated-Laguerre form
(n >= m):  <n|D(b)|m> = sqrt(m!/n!) b^{n-m} e^{-|b|^2/2} L_m^{(n-m)}(|b|^2).

The Laguerre factors come from the upward three-term recurrence in m, one
diagonal d = n - m at a time, as in QuTiP's iterative Wigner method
(Johansson, Nation & Nori, Comput. Phys. Commun. 184, 1234 (2013)).
"""

__all__ = [
    "WignerGrid",
    "wigner_marginal",
    "wigner_of_state",
]

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import InvalidParameter, InvalidState, _shown, require_finite, require_int

WIGNER_BOUND = 2.0 / math.pi
MIN_RESOLUTION = 16
MIN_RANGE_WIDTH = 2.0  # four vacuum standard deviations
MAX_RANGE_END = 1e150  # keeps |2 alpha|^2 = 4 (x1^2 + x2^2) <= 8e300; see _max_range_end
DEFAULT_RANGE = (-4.0, 4.0)
DEFAULT_RESOLUTION = 201


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a rectangular grid: values[i, j] = W(x1[i], x2[j]).

    Each axis is a 1-D, finite, strictly ascending array of at least 2 real
    points, and values a real array of shape (x1.size, x2.size) within the
    2/pi bound.  All three are stored as read-only float arrays; any other
    input raises InvalidState.
    """

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray
    integral: float

    def __post_init__(self):
        x1, x2, values = (fock._numbers(getattr(self, n), n, InvalidState) for n in ("x1", "x2", "values"))
        for name, axis in (("x1", x1), ("x2", x2)):
            if not (axis.ndim == 1 and axis.size >= 2 and np.isfinite(axis).all() and (axis[1:] > axis[:-1]).all()):
                raise InvalidState(f"{name} must be a 1-D, finite, strictly ascending axis of at least 2 points")
        if values.shape != (x1.size, x2.size):
            raise InvalidState("values shape does not match the axes")
        if not (np.max(np.abs(values)) <= WIGNER_BOUND + 1e-9 and math.isfinite(self.integral)):
            raise InvalidState("Wigner values or integral are not finite, or values exceed the 2/pi bound")
        fock._freeze(self, x1=x1, x2=x2, values=values)

    @property
    def integral_error(self) -> float:
        """Deviation of the grid integral from 1 (tail clipping + discretization)."""
        return abs(self.integral - 1.0)


def _displacement_kernel(rho: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """(2/pi) sum_{mn} rho_{mn} (-1)^m <n|D(2 alpha)|m>, real part, in O(grid) memory.

    The recurrence updates work arrays allocated once per call, with the
    operations of the plain expressions in their order.  A diagonal with real
    coefficients (every diagonal of a squeezed vacuum, lossy or not)
    accumulates in float64 and adds front.real * acc: the complex sum's
    imaginary terms would all be +-0 and w starts at +0, so the bits are
    those of the complex sum.  Complex buffers are made only when needed.
    """
    dim = rho.shape[0]
    b = 2.0 * alpha
    x = (b * b.conj()).real
    front = np.exp(-0.5 * x).astype(complex)  # b^d e^{-|b|^2/2} / sqrt(d!) on diagonal d
    w = np.zeros(alpha.shape)
    prev, cur, t = (np.empty(x.shape) for _ in range(3))
    real_buffers, complex_buffers = (np.empty(x.shape), np.empty(x.shape)), None
    for d in range(dim):
        coeffs = np.diagonal(rho, d) * (-1.0) ** np.arange(dim - d)
        if coeffs.any():
            real = not coeffs.imag.any()
            if real:
                coeffs, (acc, term) = coeffs.real, real_buffers
            else:
                complex_buffers = complex_buffers or (np.empty(x.shape, complex), np.empty(x.shape, complex))
                acc, term = complex_buffers
            # l_m = sqrt(m! d! / (m + d)!) L_m^{(d)}(x): l_0 = 1 and
            # l_m = [(2m - 1 + d - x) l_{m-1} - sqrt((m - 1)(m - 1 + d)) l_{m-2}] / sqrt(m (m + d))
            prev.fill(0.0)
            cur.fill(1.0)
            acc.fill(coeffs[0])
            for m in range(1, dim - d):
                np.subtract(2 * m - 1 + d, x, out=t)
                t *= cur
                prev *= math.sqrt((m - 1) * (m - 1 + d))
                np.subtract(t, prev, out=prev)
                prev /= math.sqrt(m * (m + d))
                prev, cur = cur, prev
                np.multiply(coeffs[m], cur, out=term)
                acc += term
            np.multiply(front.real if real else front, acc, out=acc)
            part = acc.real
            if d > 0:
                part *= 2.0
            w += part
        front *= b
        front /= math.sqrt(d + 1)
    return (2.0 / math.pi) * w


def _max_range_end(dim: int) -> float:
    """Largest |x1|, |x2| on which _displacement_kernel stays finite for a
    dim-level state.

    On the grid x = |2 alpha|^2 <= 8 R^2.  The Laguerre recurrence at order m
    reaches about x^m / m!, and its products m times that, so the top order
    K = dim - 1 sets the bound: K ln(x) - ln(K!) + ln(K) <= 700, a margin of
    e^9.8 under the float maximum.  At K <= 1 no power of x beyond the first
    is formed, and MAX_RANGE_END keeps x itself finite.
    """
    k = dim - 1
    if k <= 1:
        return MAX_RANGE_END
    log_x = (700.0 + math.lgamma(k + 1) - math.log(k)) / k
    return min(MAX_RANGE_END, math.sqrt(math.exp(log_x) / 8.0))


def wigner_of_state(
    state: fock.FockDensity,
    x1_range: tuple[float, float] = DEFAULT_RANGE,
    x2_range: tuple[float, float] = DEFAULT_RANGE,
    resolution: int = DEFAULT_RESOLUTION,
) -> WignerGrid:
    """Evaluate W on a uniform resolution x resolution grid.

    The default window of +-4 (eight vacuum standard deviations) keeps the
    clipped tail of every state handled here far below the 1e-6 level at
    which grid normalization is checked.
    """
    require_int("resolution", resolution, MIN_RESOLUTION)
    end = _max_range_end(state.matrix.shape[0])
    for lo, hi in (x1_range, x2_range):
        if not (abs(lo) <= end and abs(hi) <= end and hi - lo >= MIN_RANGE_WIDTH):
            raise InvalidParameter(
                f"axis range must lie within +-{end:.4g} (at n_max = {state.n_max}) and span at least"
                f" {MIN_RANGE_WIDTH} quadrature units, got ({_shown(lo)}, {_shown(hi)})"
            )
    x1 = np.linspace(x1_range[0], x1_range[1], resolution)
    x2 = np.linspace(x2_range[0], x2_range[1], resolution)
    alpha = x1[:, None] + 1j * x2[None, :]
    values = _displacement_kernel(state.matrix, alpha)
    integral = float(np.trapezoid(np.trapezoid(values, x2, axis=1), x1))
    return WignerGrid(x1=x1, x2=x2, values=values, integral=integral)


def wigner_marginal(grid: WignerGrid, phi_lo: float) -> tuple[np.ndarray, np.ndarray]:
    """Marginal density of X_phi_lo by line integration across the grid.

    p(x) = integral of W(x cos(phi) - y sin(phi), x sin(phi) + y cos(phi)) dy,
    sampled bilinearly (zero outside the grid).  Returns (x axis, density);
    the density integrates to 1 up to the clipped corner mass, and the
    phi_lo = 0 and pi/2 cases reduce to plain row/column sums.
    """
    require_finite("LO phase", phi_lo)
    x = grid.x1
    y = grid.x2
    c, s = math.cos(phi_lo), math.sin(phi_lo)
    xx = x[:, None] * c - y[None, :] * s
    yy = x[:, None] * s + y[None, :] * c
    sampled = _bilinear(grid.values, (xx - x[0]) / (x[1] - x[0]), (yy - y[0]) / (y[1] - y[0]))
    return x, np.trapezoid(sampled, y, axis=1)


def _bilinear(values: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Order-1 interpolation of values at fractional indices (r, c); zero off the grid."""
    n1, n2 = values.shape
    inside = (r >= 0.0) & (r <= n1 - 1) & (c >= 0.0) & (c <= n2 - 1)
    i = np.minimum(np.where(inside, r, 0.0).astype(np.intp), n1 - 2)
    j = np.minimum(np.where(inside, c, 0.0).astype(np.intp), n2 - 2)
    fr, fc = r - i, c - j
    out = values[i, j] * (1.0 - fr) * (1.0 - fc) + values[i, j + 1] * (1.0 - fr) * fc
    out = out + values[i + 1, j] * fr * (1.0 - fc) + values[i + 1, j + 1] * fr * fc
    return np.where(inside, out, 0.0)
