"""Temporal modes, mode overlap, and the free-space detection budget.

A spontaneously emitted photon with intensity decay rate gamma = 1/tau has
the amplitude envelope

    f(t) = sqrt(gamma) e^{-gamma t / 2},  t >= 0

(the amplitude decays at gamma/2, the intensity at gamma).  A realistic
local oscillator is a truncated exponential on [0, T]; for a matched rate
the power overlap with the emitted mode is 1 - e^{-gamma T}, and an LO with
twice the amplitude decay rate reaches 8/9 as T -> infinity.

The detected squeezing budget folds collection solid angle, temporal-mode
overlap and detector quantum efficiency into one transmission
eta_total = eta_collection * eta_overlap * eta_detector, under which every
quadrature variance maps as V -> eta_total V + (1 - eta_total)/4.

A TemporalMode is checked once, when it is built; the closed forms read its
normalisation A = 1/sqrt(integral of e^{-2 rate t} over [0, window]) and
never sample the envelope.  Each record stores its inputs and derives the rest.
The window sweep builds the emitted mode once, reads each rate-matched LO's
normalisation from one integral, which is also its overlap integral with the
emitted mode, and builds one budget record per window.
"""

__all__ = [
    "EMITTER_PRESETS",
    "EfficiencyBudget",
    "EmitterParams",
    "TemporalMode",
    "detected_squeezing",
    "emitted_mode",
    "linewidth_check",
    "lo_linewidth_requirement",
    "lo_mode",
    "matched_overlap",
    "mode_overlap",
    "window_tradeoff",
]

import math
import sys
from dataclasses import dataclass

from .closed_forms import VACUUM_VARIANCE, SuperpositionSpec, min_variance, variance_to_db
from .errors import InvalidParameter, InvalidState, _shown, require_in

# Wigner-Weisskopf lifetimes, seconds; presets are data, not code
EMITTER_PRESETS = {
    "yb2+_3p1": 230e-9,
}

EXPONENTIAL = "exponential"
TRUNCATED_EXPONENTIAL = "truncated-exponential"


def _decay_integral(rate: float, window: float) -> float:
    """Integral of e^{-rate t} over [0, window], window <= inf, in closed form.

    expm1 keeps a tiny x = rate * window exact; below the normal range x / rate
    would lose digits, and the integral is window to round-off.
    """
    x = rate * window
    return -math.expm1(-x) / rate if x >= sys.float_info.min else window


@dataclass(frozen=True)
class EmitterParams:
    """Lifetime tau, with the decay rate 1/tau and linewidth 1/(2 pi tau) derived from it."""

    lifetime_tau: float

    def __post_init__(self):
        require_in("lifetime", self.lifetime_tau, 0, open_lo=True)
        if not math.isfinite(1.0 / float(self.lifetime_tau)):  # the smallest subnormal lifetimes have no finite rate
            raise InvalidParameter(f"lifetime {_shown(self.lifetime_tau)} is too small: 1/lifetime overflows")

    @property
    def gamma_rate(self) -> float:
        return 1.0 / self.lifetime_tau

    @property
    def linewidth_hz(self) -> float:
        # in Python floats, a product past the largest double is inf without numpy's overflow warning
        return 1.0 / (2.0 * math.pi * float(self.lifetime_tau))

    @classmethod
    def from_lifetime(cls, tau: float) -> "EmitterParams":
        return cls(lifetime_tau=tau)

    @classmethod
    def from_preset(cls, name: str) -> "EmitterParams":
        if name not in EMITTER_PRESETS:
            raise InvalidParameter(f"unknown emitter preset {name!r}; known: {sorted(EMITTER_PRESETS)}")
        return cls.from_lifetime(EMITTER_PRESETS[name])


@dataclass(frozen=True)
class TemporalMode:
    """L2-normalized exponential envelope: amplitude ~ e^{-rate t} on [0, window].

    rate is the amplitude decay rate (half the intensity decay rate);
    window is infinite for the emitted mode, finite for a truncated LO.
    """

    rate: float
    window: float = math.inf

    def __post_init__(self):
        require_in("amplitude decay rate", self.rate, 0, open_lo=True)
        if self.window != math.inf:
            require_in("window", self.window, 0, open_lo=True)
        a = self._front
        # A (A I), not A^2 I: for a subnormal window A^2 overflows while A I does not
        norm = a * (a * _decay_integral(2.0 * self.rate, self.window))
        if not (abs(norm - 1.0) <= 1e-10):
            raise InvalidState(f"mode L2 norm is {norm!r}, not 1 within 1e-10")

    @property
    def shape(self) -> str:
        return EXPONENTIAL if self.window == math.inf else TRUNCATED_EXPONENTIAL

    @property
    def _front(self) -> float:
        # 1/sqrt of the integral of e^{-2 rate t}; an overflowed 2 rate yields inf, so NaN norm
        integral = _decay_integral(2.0 * self.rate, self.window)
        return 1.0 / math.sqrt(integral) if integral > 0.0 else math.inf

    def amplitude(self, t):
        import numpy as np  # the closed forms never sample the envelope, so numpy stays out of a `budget` run

        from .fock import _numbers

        ts = _numbers(t, "amplitude time t")
        if np.isnan(ts).any():  # a NaN fails both window comparisons, which would read it as 0
            raise InvalidParameter("amplitude time t must not be NaN")
        vals = np.where(
            (ts >= 0.0) & (ts <= self.window),
            self._front * np.exp(-self.rate * ts),
            0.0,
        )
        return float(vals) if ts.ndim == 0 else vals


def exponential_mode(amplitude_rate: float, window: float = math.inf) -> TemporalMode:
    """Exponential envelope by amplitude decay rate, truncated iff window is finite."""
    return TemporalMode(rate=amplitude_rate, window=window)


def emitted_mode(gamma: float) -> TemporalMode:
    """Spontaneous-emission envelope for intensity decay rate gamma = 1/tau."""
    return exponential_mode(gamma / 2.0)


def lo_mode(gamma: float, window: float) -> TemporalMode:
    """Rate-matched truncated-exponential LO on [0, window]."""
    return exponential_mode(gamma / 2.0, window)


def mode_overlap(mode_a: TemporalMode, mode_b: TemporalMode) -> float:
    """Power overlap |<f_a, f_b>|^2 in closed form, in [0, 1]."""
    inner = mode_a._front * mode_b._front
    inner *= _decay_integral(mode_a.rate + mode_b.rate, min(mode_a.window, mode_b.window))
    # Cauchy-Schwarz bound; only round-off can poke above 1
    return min(1.0, inner * inner)


def matched_overlap(gamma: float, window: float) -> float:
    """Closed-form overlap of the emitted mode with a rate-matched truncated LO."""
    require_in("gamma", gamma, 0, open_lo=True)
    require_in("window", window, 0, open_lo=True)
    return -math.expm1(-gamma * window)


def linewidth_check(emitter: EmitterParams, claimed_hz: float | None = None, rel_tol: float = 0.05):
    """Natural linewidth 1/(2 pi tau) and its consistency with a claimed value.

    Returns (computed_hz, consistent); with no claim the check is vacuously
    consistent.
    """
    computed = emitter.linewidth_hz
    if claimed_hz is None:
        return computed, True
    # an infinite claim or tolerance would pass as inf <= inf, so both must be finite
    require_in("claimed_hz", claimed_hz, 0, open_lo=True)
    require_in("rel_tol", rel_tol, 0, open_lo=True)
    return computed, bool(abs(computed - claimed_hz) <= rel_tol * claimed_hz)


def lo_linewidth_requirement(emitter: EmitterParams, ratio: float) -> float:
    """LO linewidth needed to sit at `ratio` times the emitter linewidth."""
    require_in("ratio", ratio, 0, 1, open_lo=True, open_hi=True)
    return ratio * emitter.linewidth_hz


@dataclass(frozen=True)
class EfficiencyBudget:
    """Detection budget: partial efficiencies and source variance; their product and the outcome derive."""

    preset: str
    eta_collection: float
    eta_overlap: float
    eta_detector: float
    input_variance: float

    def __post_init__(self):
        for name in ("eta_collection", "eta_overlap", "eta_detector"):
            require_in(name, getattr(self, name), 0, 1)
        # with every eta in [0, 1], a finite positive variance keeps every derived value finite and > 0
        if not (0.0 < self.input_variance < math.inf):
            raise InvalidState(f"input variance must be finite and > 0, got {_shown(self.input_variance)}")

    @property
    def eta_total(self) -> float:
        return self.eta_collection * self.eta_overlap * self.eta_detector

    @property
    def detected_variance(self) -> float:
        eta = self.eta_total
        return eta * self.input_variance + (1.0 - eta) * VACUUM_VARIANCE

    @property
    def detected_db(self) -> float:
        return variance_to_db(self.detected_variance)


def detected_squeezing(
    source: SuperpositionSpec,
    eta_collection: float,
    emitted: TemporalMode,
    lo: TemporalMode,
    eta_detector: float = 1.0,
    preset: str = "custom",
) -> EfficiencyBudget:
    """Squeezing of the source state at the detector, LO phased to the minimum variance."""
    return EfficiencyBudget(
        preset=preset,
        eta_collection=eta_collection,
        eta_overlap=mode_overlap(emitted, lo),
        eta_detector=eta_detector,
        input_variance=min_variance(source),
    )


def _window_rows(source: SuperpositionSpec, eta_collection: float, emitter: EmitterParams, windows: list[float],
                 eta_detector: float = 1.0) -> list[tuple]:
    """window_tradeoff's rows as float tuples, for windows the caller has checked.

    Each rate-matched LO's normalisation is read from one integral, which is
    also its overlap integral with the emitted mode (em.rate + em.rate ==
    2.0 * em.rate exactly), so no LO mode is built and inner is mode_overlap's,
    in its order of operations.  A finite window > 0 and the emitted mode's
    checked rate put that integral in (0, inf), where the LO's checks cannot
    fail.  Each window builds one budget record, as detected_squeezing does.
    """
    em = emitted_mode(emitter.gamma_rate)
    rows = []
    for w in windows:
        integral = _decay_integral(2.0 * em.rate, w)
        inner = em._front * (1.0 / math.sqrt(integral)) * integral
        budget = EfficiencyBudget("custom", eta_collection, min(1.0, inner * inner), eta_detector, min_variance(source))
        rows.append((w, budget.eta_overlap, budget.detected_db))
    return rows


def window_tradeoff(
    source: SuperpositionSpec,
    eta_collection: float,
    emitter: EmitterParams,
    windows,
    eta_detector: float = 1.0,
) -> "np.ndarray":
    """Detected squeezing vs LO window, matched-rate truncated-exponential LO.

    Returns rows (window_seconds, eta_overlap, detected_db) for an
    ascending grid of windows.
    """
    import numpy as np  # kept here, with TemporalMode.amplitude's, so that importing modes loads no numpy

    from .fock import _numbers

    ws = _numbers(windows, "windows")
    # finite first, as np.diff warns on two infinite windows; each test is one a NaN fails
    if ws.ndim != 1 or ws.size < 1 or not (np.isfinite(ws).all() and ws[0] > 0.0 and (np.diff(ws) > 0.0).all()):
        raise InvalidParameter("windows must be a strictly ascending grid of finite positive times")
    return np.array(_window_rows(source, eta_collection, emitter, ws.tolist(), eta_detector))
