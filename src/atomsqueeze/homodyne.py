"""Homodyne sampling: quadrature marginals, inverse-CDF Monte Carlo, estimators.

The marginal of X_phi for a truncated density matrix is

    p(x) = sum_{mn} Re(rho~_{mn}) psi_m(x) psi_n(x),
    rho~ = e^{-i phi n} rho e^{+i phi n}

(Im rho~ is antisymmetric for Hermitian rho~ and drops out), with the
oscillator eigenfunctions in these units (vacuum variance 1/4)

    psi_0(x) = (2/pi)^{1/4} e^{-x^2},
    psi_n(x) = (2x/sqrt(n)) psi_{n-1}(x) - sqrt((n-1)/n) psi_{n-2}(x).

It is evaluated as one real matrix product per block of 4,096 points.  A
squeezed vacuum has rho_mn = 0 for every odd m - n, and loss and the phase
rotation keep those zeros; for such a rho the product is two, on the even
and the odd Fock block, written into the two row-strided halves of one
product array.  That halves the multiplications, and the skipped products
are exact zeros, which OpenBLAS's SkylakeX dgemm kernel adds without
rounding, so the bits are those of the full product (its Haswell kernel
sums in another order, and there the two agree to round-off only).
The CDF grid is mirror-symmetric bit for bit: np.linspace's upper half,
and its exact negation below.  IEEE round-to-nearest is sign-symmetric, so
the recurrence gives psi_n(-x) = (-1)^n psi_n(x) exactly, and p(-x) is the
marginal at x of (-1)^(m+n) rho~_mn.  So the psi blocks cover the upper
half only, and the lower half is folded from them: for a rho~ with no odd
m - n entries that matrix is rho~ itself and p(-x) = p(x), with no second
product; otherwise each block takes one more product, on the sign-flipped
matrix.  Every value is the one the full grid's product gives, bit for
bit while psi_0(x) > 0 (|x| < 27.29; beyond, a zero may differ in sign).
`tabulated_cdf` computes each psi block as it needs it, so it never holds
an (n_max+1) x len(x) array of psi.  `phase_scan` computes the moments of
each phase once, for both the support and the exact variance, and
consecutive phases with equal supports (every n_max = 1 state has [-6, 6])
share one grid and its list of psi blocks, (n_max+1) x 2^15 doubles, and
every phase tabulates into one marginal and one CDF buffer.  The
arithmetic per block is the same either way.  The kernels rotate the
matrix and never build a state: rho~ is read, not checked again.

Sampling inverts a trapezoid-tabulated CDF on a 2^16-point grid over
[-w, w], w = max(6, |mean| + 6.5 sqrt(variance)) from the exact moments of
X_phi: every n_max = 1 state keeps [-6, 6], and wider states (squeezed
vacua at large cutoffs) get a support that holds their mass.  The tabulated
mass must be 1 within 1e-6.  The inverse CDF is np.interp(u, cdf, x) bit
for bit: below 16,384 draws it is np.interp itself, on the sorted uniforms
with each value put back in its uniform's place; above, a guide table
(Chen & Asau 1974; Devroye 1986, sec. III.2) brackets each u, one step
forward corrects most misses, and a slope table holding np.interp's own
per-bracket division gives the chord.  So a seed gives the same samples,
in the same order, as plain interpolation.  The table path works through
a few buffers of 2^13 values, allocated once per call and never returned,
and writes each chunk of samples over its uniforms, so the samples are its
only array the size of the draw.  Randomness comes from numpy's
counter-based Philox generator so sample streams are reproducible across
platforms for a given seed; substreams for multi-phase scans are spawned
through SeedSequence.

estimate_variance takes the sums of (x - mean)^2 and (x - mean)^4 in numpy's
own order, block by block, so its variance is np.var(x, ddof=1) and its m4
the one-shot np.einsum's, bit for bit, without an array of n squares.
"""

__all__ = [
    "GENERATOR_ID",
    "HomodyneRun",
    "VarianceEstimate",
    "estimate_variance",
    "marginal_density",
    "phase_scan",
    "sample_quadratures",
]

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import DegenerateData, InvalidParameter, require_finite, require_in, require_int, require_within

GENERATOR_ID = "numpy-philox4x64"
CDF_POINTS = 2**16
MIN_HALF_WIDTH = 6.0  # every n_max = 1 state fits well inside [-6, 6]
SUPPORT_SIGMAS = 6.5  # half-width beyond |mean| in units of the exact standard deviation
_MARGINAL_BLOCK = 4096  # x points per psi block in the marginal
_DRAW_CHUNK = 2**13  # uniforms per chunk of the inverse CDF
_GUIDE_BINS = 2**16  # most guide-table bins
_INTERP_MAX_DRAWS = 2**14  # fewer draws than this go to np.interp in ascending order
_SUM_LEAF = 2**16  # most samples per leaf of the variance's pairwise sum
_EINSUM_BLOCK = 8192  # np.einsum adds one partial sum per block of this many, whatever np.setbufsize says


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Oscillator eigenfunctions psi_0 .. psi_n_max on x, shape (n_max+1, *x.shape).

    Upward recurrence on the normalized functions; stable for every
    truncation used in this package.  It runs on x flattened, so x may have
    any shape.  Each row is written in place from one work row, with the
    operations of (2x / sqrt(n)) psi_{n-1} - sqrt((n-1)/n) psi_{n-2} in
    that order, so the values are those of the plain expression, bit for bit.
    """
    require_int("n_max", n_max, 0)
    x = fock._numbers(x, "x")
    shape, x = x.shape, x.ravel()
    out = np.empty((n_max + 1, x.size))
    out[0] = (2.0 / math.pi) ** 0.25 * np.exp(-(x**2))
    if n_max >= 1:
        two_x = 2.0 * x
        np.multiply(two_x, out[0], out=out[1])
        t = np.empty(x.size)
        for n in range(2, n_max + 1):
            np.divide(two_x, math.sqrt(n), out=t)
            t *= out[n - 1]
            np.multiply(out[n - 2], math.sqrt((n - 1.0) / n), out=out[n])
            np.subtract(t, out[n], out=out[n])
    return out.reshape(n_max + 1, *shape)


def _psi_blocks(n_max: int, xs: np.ndarray):
    """hermite_functions on consecutive blocks of _MARGINAL_BLOCK points of xs."""
    for start in range(0, xs.size, _MARGINAL_BLOCK):
        yield hermite_functions(n_max, xs[start : start + _MARGINAL_BLOCK])


def _parity_product(rho: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """rho @ psi for a rho whose odd-offset blocks are zero, from its even and odd Fock blocks."""
    prod = np.empty(psi.shape)
    np.matmul(rho[0::2, 0::2], psi[0::2], out=prod[0::2])
    np.matmul(rho[1::2, 1::2], psi[1::2], out=prod[1::2])
    return prod


def _marginal(rho: np.ndarray, blocks, size: int, out=None, mirror=None) -> np.ndarray:
    """p(x) = sum_mn rho_mn psi_m(x) psi_n(x) for real rho, block by block, into `out` if given.

    Where rho_mn is zero for every odd m - n, rho @ psi is two products on
    the even and the odd Fock block; the terms they skip are exact zeros.
    Given `mirror`, p(-x) goes there, point for point: psi_n(-x) is
    (-1)^n psi_n(x) exactly, so p(-x) is the marginal at x of
    (-1)^(m+n) rho_mn, which is rho itself where it splits; otherwise it
    takes a second product per block, on that sign-flipped matrix.
    """
    vals = np.empty(size) if out is None else out
    split = not (rho[0::2, 1::2].any() or rho[1::2, 0::2].any())
    if not (mirror is None or split):
        signs = (-1.0) ** np.arange(rho.shape[0])
        flipped = rho * np.outer(signs, signs)
    start = 0
    for psi in blocks:
        stop = start + psi.shape[1]
        # each product is a temporary, freed before the next psi block is built
        vals[start:stop] = np.einsum("mx,mx->x", psi, _parity_product(rho, psi) if split else rho @ psi)
        if mirror is not None:
            mirror[start:stop] = vals[start:stop] if split else np.einsum("mx,mx->x", psi, flipped @ psi)
        start = stop
    return vals


def marginal_density(state: fock.FockDensity, phi_lo: float):
    """Probability density of X_phi_lo as a callable of x.

    A scalar x gives a numpy float, and an array of any shape gives the
    density at each of its points, in x's shape.
    """
    # Im rho is antisymmetric for Hermitian rho, so only Re rho contributes
    rho = fock._rotated(state.matrix, phi_lo).real
    n_max = rho.shape[0] - 1

    def density(x):
        x = fock._numbers(x, "x")
        xs = x.ravel()
        if not np.all(np.isfinite(xs)):  # checked before hermite_functions turns them into NaN
            raise InvalidParameter(f"marginal density needs finite x, got {float(xs[~np.isfinite(xs)][0])!r}")
        vals = _marginal(rho, _psi_blocks(n_max, xs), xs.size)
        return vals[0] if x.ndim == 0 else vals.reshape(x.shape)

    return density


def _half_width(stats: fock.QuadratureStats) -> float:
    """w of the CDF support [-w, w]: max(6, |mean| + 6.5 sd) from the exact moments."""
    return max(MIN_HALF_WIDTH, abs(stats.mean) + SUPPORT_SIGMAS * math.sqrt(stats.variance))


def _grid(half: float) -> np.ndarray:
    """The CDF grid on [-half, half]: np.linspace's upper half, and its exact negation below."""
    xs = np.linspace(-half, half, CDF_POINTS)
    np.negative(xs[CDF_POINTS // 2 :][::-1], out=xs[: CDF_POINTS // 2])
    return xs


def _tabulate(state: fock.FockDensity, phi_lo: float, xs: np.ndarray, blocks, p=None, cdf=None) -> np.ndarray:
    """Normalised trapezoid CDF of X_phi_lo on a _grid xs, in `p` and `cdf` if given.

    `blocks` are the psi blocks of the grid's upper half; the lower half of
    the marginal is folded from them, since xs == -xs[::-1] exactly.
    """
    rho = fock._rotated(state.matrix, phi_lo).real
    p = np.empty(xs.size) if p is None else p
    mid = xs.size // 2
    _marginal(rho, blocks, mid, p[mid:], p[mid - 1 :: -1])
    least = np.min(p)
    require_within("marginal_floor", -least, least)
    # in place, in the order the out-of-place form took, so every bit is the same
    np.clip(p, 0.0, None, out=p)
    cdf = np.empty(xs.size) if cdf is None else cdf
    cdf[0] = 0.0
    trapezoids = cdf[1:]
    np.add(p[1:], p[:-1], out=trapezoids)
    trapezoids *= (xs[1] - xs[0]) / 2.0
    np.cumsum(trapezoids, out=trapezoids)
    total = cdf[-1]
    require_within("marginal_mass", abs(total - 1.0), -xs[-1], xs[-1], total)
    cdf /= total
    return cdf


def tabulated_cdf(state: fock.FockDensity, phi_lo: float) -> tuple[np.ndarray, np.ndarray]:
    """(x grid, CDF) of the X_phi_lo marginal on a support sized to the state."""
    xs = _grid(_half_width(fock.quadrature_stats(state, phi_lo)))
    return xs, _tabulate(state, phi_lo, xs, _psi_blocks(state.n_max, xs[CDF_POINTS // 2 :]))


@dataclass(frozen=True)
class HomodyneRun:
    """One Monte Carlo run: state, LO phase, total efficiency, size, seed."""

    state: fock.FockDensity
    phi_lo: float
    eta_total: float
    n_samples: int
    seed: int

    def __post_init__(self):
        require_finite("phi_lo", self.phi_lo)
        require_in("eta_total", self.eta_total, 0, 1)
        require_int("n_samples", self.n_samples, 100)
        require_int("seed", self.seed, 0)


@dataclass(frozen=True)
class VarianceEstimate:
    """Sample mean/variance with a distribution-free error bar on the variance."""

    n: int
    mean_hat: float
    var_hat: float
    std_error_of_var: float

    def __post_init__(self):
        require_int("n", self.n, 2)
        require_in("var_hat", self.var_hat, 0, open_lo=True)
        for name in ("mean_hat", "std_error_of_var", "std_error_normal_theory"):  # var_hat^2 overflows above ~1.3e154
            require_finite(name, getattr(self, name))

    @property
    def std_error_normal_theory(self) -> float:
        v = float(self.var_hat)  # as a Python float, an overflow is inf without a numpy warning
        return math.sqrt(2.0 * v * v / self.n)


def detected_state(state: fock.FockDensity, eta_total: float) -> fock.FockDensity:
    """State actually reaching the detector after total efficiency eta_total."""
    return state if eta_total == 1.0 else fock.apply_loss(state, eta_total)


def _draw(xs: np.ndarray, cdf: np.ndarray, n: int, rng: "np.random.Generator") -> np.ndarray:
    """np.interp(rng.random(n), cdf, xs) bit for bit, for a CDF from 0 to 1.

    The bracket of u is j, the last knot with cdf[j] <= u; the value depends
    on u and j alone.  Below _INTERP_MAX_DRAWS draws np.interp is fastest on
    ascending uniforms, whose bracket searches start at the last one instead
    of missing cache across the 2^16-point CDF; the values go back to their
    uniforms' places, so ties need no stable sort.  Above, the guide table
    holds the bracket of each bin edge b/bins, where bins is a power of two
    (so the edges are exact) no larger than n or 2^16 (so the table costs
    no more than the draws).  Every u in bin b has j >= guide[b].  Where u
    has passed the next knot, j takes one step forward: in the bulk of the
    CDF a bin holds at most one knot, so the step settles nearly every
    such u, and searchsorted brackets the few still short.  The value is
    then np.interp's own: xs[j] where u == cdf[j], else the chord
    slope[j] * (u - cdf[j]) + xs[j], with slope the same per-bracket
    division np.interp makes, done once per CDF.  Uniforms become samples
    in place, one chunk of _DRAW_CHUNK at a time: each chunk runs through
    the same five work buffers (two float, two index, one mask), allocated
    once per call, and its values are written over its uniforms.  The
    slope's temporaries are freed before the uniforms are drawn.
    """
    if n < _INTERP_MAX_DRAWS:
        u = rng.random(n)
        order = np.argsort(u)
        u[order] = np.interp(u[order], cdf, xs)
        return u
    bins = min(_GUIDE_BINS, 1 << (int(n).bit_length() - 1))
    guide = np.searchsorted(cdf, np.arange(bins + 1) / bins, "right") - 1
    # a flat CDF run gives an infinite slope, and a subnormal step can too;
    # np.interp meets one only where u == cdf[j], which takes xs[j] below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        slope = np.diff(xs) / np.diff(cdf)
        out = rng.random(n)
        work = (*np.empty((2, _DRAW_CHUNK)), *np.empty((2, _DRAW_CHUNK), np.intp), np.empty(_DRAW_CHUNK, bool))
        for start in range(0, n, _DRAW_CHUNK):
            u = out[start : start + _DRAW_CHUNK]
            t, v, j, b, hit = (a[: u.size] for a in work)
            np.copyto(b, np.multiply(u, bins, out=t), casting="unsafe")  # (u * bins).astype(np.intp)
            np.take(guide, b, out=j)
            j += np.greater_equal(u, np.take(cdf[1:], j, out=t), out=hit)  # u >= cdf[j + 1]
            if np.greater_equal(u, np.take(cdf[1:], j, out=t), out=hit).any():
                j[hit] = np.searchsorted(cdf, u[hit], "right") - 1
            np.equal(u, np.take(cdf, j, out=t), out=hit)  # on a knot, np.interp gives xs[j]
            np.subtract(u, t, out=t)
            t *= np.take(slope, j, out=v)
            np.add(t, np.take(xs, j, out=v), out=u)
            np.copyto(u, v, where=hit)
    return out


def sample_quadratures(run: HomodyneRun) -> np.ndarray:
    """Inverse-CDF samples of X_phi_lo behind the loss channel; reproducible per seed."""
    xs, cdf = tabulated_cdf(detected_state(run.state, run.eta_total), run.phi_lo)
    rng = np.random.Generator(np.random.Philox(run.seed))
    return _draw(xs, cdf, run.n_samples, rng)


def _real_vector(values, name: str = "samples") -> np.ndarray:
    """values as a 1-D float array by fock._numbers's rule; any shape but 1-D raises InvalidParameter."""
    x = fock._numbers(values, name)
    if x.ndim != 1:
        raise InvalidParameter(f"{name} must be a 1-D array, got shape {x.shape}")
    return x


def _pairwise(x: np.ndarray, leaf) -> float:
    """The sum numpy's contiguous add.reduce makes of x, with leaf(node) summing each node of at most _SUM_LEAF.

    add.reduce is one pairwise sum: above 128 elements it splits n at
    n//2 - (n//2) % 8 and adds the two halves' sums.  The leaves are called
    in order, and their sums are added back in the tree's order.
    """
    half = x.size // 2 - x.size // 2 % 8
    return leaf(x) if x.size <= _SUM_LEAF else _pairwise(x[:half], leaf) + _pairwise(x[half:], leaf)


def _d2_moments(x: np.ndarray, mean: float) -> tuple[float, float, bool]:
    """d2.sum() and np.einsum("i,i->", d2, d2) for d2 = (x - mean)^2, bit for bit, and np.all(x == x[0]).

    The last figure holds for finite x.  d2 is held one leaf of _pairwise
    at a time, in one buffer, never whole.  np.einsum's reduction adds one
    partial sum per block of _EINSUM_BLOCK elements, aligned at 0.  The
    leaves come in order, and the block that straddles a leaf's end moves to
    the front of the buffer to be finished by the next leaf, so a running
    sum over those blocks gives the same double.  The x == x[0] test reads
    each leaf until one differs.
    """
    buf = np.empty(min(x.size, _SUM_LEAF) + _EINSUM_BLOCK)
    m4, carry, same = 0.0, 0, True

    def leaf(xs: np.ndarray) -> float:
        nonlocal m4, carry, same
        same = same and xs.min() == x[0] == xs.max()
        d2 = np.subtract(xs, mean, out=buf[carry : carry + xs.size])
        d2 *= d2
        total = float(np.add.reduce(d2))
        end = carry + xs.size
        carry = end % _EINSUM_BLOCK
        for start in range(0, end - carry, _EINSUM_BLOCK):
            block = buf[start : start + _EINSUM_BLOCK]
            m4 += float(np.einsum("i,i->", block, block))  # no BLAS: the bits do not depend on its thread count
        buf[:carry] = buf[end - carry : end]
        return total

    total = _pairwise(x, leaf)
    m4 += float(np.einsum("i,i->", buf[:carry], buf[:carry]))  # the last, short block
    return total, m4, same


def estimate_variance(samples: np.ndarray) -> VarianceEstimate:
    """Unbiased variance with standard error from the 4th central moment.

    se^2 = (m4 - s^4 (n-3)/(n-1)) / n; the normal-theory value
    sqrt(2 s^4 / n) is reported alongside for comparison.  The moments are
    those of np.var(x, ddof=1) and of the one-shot (x - mean)^2 sums, bit
    for bit, taken block by block (_d2_moments) in memory that does not
    grow with the sample count.
    """
    x = _real_vector(samples)
    n = x.size
    if n < 2:
        raise InvalidParameter(f"variance needs >= 2 samples, got {n}")
    # a non-finite sample, or one so far from the mean that its fourth power
    # overflows, makes m4 non-finite; the check reads the sums, not the samples
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(x))
        total, m4, same = _d2_moments(x, mean)
        if not math.isfinite(m4):
            bad = ~np.isfinite(x)
            # else the sample farthest from the mean, whose fourth power overflows
            i = int(np.argmax(bad) if bad.any() else np.argmax(np.square(x - mean)))
            raise InvalidParameter(
                f"sample {i} is {float(x[i])!r}: samples must be finite, and close enough"
                " to their mean that the fourth central moment is finite"
            )
    if same:
        raise DegenerateData("all samples identical; variance estimate is degenerate")
    var = total / (n - 1)  # np.var(x, ddof=1) bit for bit
    se2 = (m4 / n - var * var * (n - 3.0) / (n - 1.0)) / n
    return VarianceEstimate(
        n=n,
        mean_hat=mean,
        var_hat=var,
        std_error_of_var=math.sqrt(max(0.0, se2)),
    )


def ks_statistic(samples: np.ndarray, xs: np.ndarray, cdf: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between samples and a tabulated CDF.

    xs and cdf are 1-D of one length, xs ascends strictly and cdf is finite.
    """
    x = np.sort(_real_vector(samples))
    n = x.size
    if n == 0:
        raise InvalidParameter("KS statistic needs at least one sample")
    # a NaN sample would sort last and turn the distance into NaN, which
    # passes every "ks >= critical" check
    if not np.all(np.isfinite(x)):
        raise InvalidParameter("KS statistic needs finite samples")
    xs, cdf = _real_vector(xs, "xs"), _real_vector(cdf, "cdf")
    if xs.size != cdf.size:
        raise InvalidParameter(f"xs and cdf must have one length, got {xs.size} and {cdf.size}")
    if not (xs.size > 0 and np.all(np.diff(xs) > 0.0)):  # NaN fails the test
        raise InvalidParameter("xs must be a non-empty, strictly ascending grid")
    if not np.all(np.isfinite(cdf)):  # np.interp would carry a NaN into the distance
        raise InvalidParameter("cdf must be finite")
    f = np.interp(x, xs, cdf)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def phase_scan(
    state: fock.FockDensity,
    eta_total: float,
    n_samples: int,
    seed: int,
    n_phases: int,
) -> np.ndarray:
    """Monte Carlo variance vs LO phase over a uniform grid on [0, 2*pi).

    Each phase draws from an independent Philox substream spawned off the
    master seed.  Returns rows
    (phi_lo, var_hat, db_hat, std_error, var_exact, db_exact).
    """
    require_int("n_phases", n_phases, 4)
    lossy = detected_state(state, eta_total)  # rejects a bad eta; every phase reuses the lossy state
    require_int("n_samples", n_samples, 100)
    require_int("seed", seed, 0)
    streams = np.random.SeedSequence(seed).spawn(n_phases)
    # consecutive phases with equal supports (every n_max = 1 state has [-6, 6])
    # share one grid and its psi blocks; every phase tabulates into one buffer pair
    half = basis = None
    p, cdf = np.empty(CDF_POINTS), np.empty(CDF_POINTS)
    rows = np.empty((n_phases, 6))
    for k, phi in enumerate(np.linspace(0.0, 2.0 * math.pi, n_phases, endpoint=False)):
        stats = fock.quadrature_stats(lossy, phi)
        w = _half_width(stats)
        if w != half:
            half, xs = w, _grid(w)
            basis = list(_psi_blocks(lossy.n_max, xs[CDF_POINTS // 2 :]))
        _tabulate(lossy, phi, xs, basis, p, cdf)
        rng = np.random.Generator(np.random.Philox(streams[k]))
        est = estimate_variance(_draw(xs, cdf, n_samples, rng))
        rows[k] = (
            phi,
            est.var_hat,
            fock.variance_to_db(est.var_hat),
            est.std_error_of_var,
            stats.variance,
            fock.variance_to_db(stats.variance),
        )
    return rows
