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
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock, superposition
from .errors import InvalidParameter, InvalidState

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


def _l2_norm_sq(mode: "TemporalMode") -> float:
    """Squared L2 norm A^2 (1 - e^{-2 rate window}) / (2 rate), A = amplitude(0)."""
    a = mode.amplitude(0.0)
    # A (A I), not A^2 I: for a subnormal window A^2 overflows while A I does not
    return a * (a * _decay_integral(2.0 * mode.rate, mode.window))


@dataclass(frozen=True)
class EmitterParams:
    """Lifetime tau with the derived decay rate 1/tau and linewidth 1/(2 pi tau)."""

    lifetime_tau: float
    gamma_rate: float
    linewidth_hz: float

    def __post_init__(self):
        if not math.isfinite(self.lifetime_tau) or self.lifetime_tau <= 0.0:
            raise InvalidParameter(f"lifetime must be finite and > 0, got {self.lifetime_tau!r}")
        if not (abs(self.gamma_rate * self.lifetime_tau - 1.0) <= 1e-12):
            raise InvalidParameter("gamma_rate is not 1/lifetime within 1e-12")
        if not (abs(self.linewidth_hz * 2.0 * math.pi * self.lifetime_tau - 1.0) <= 1e-12):
            raise InvalidParameter("linewidth_hz is not 1/(2 pi lifetime) within 1e-12")

    @classmethod
    def from_lifetime(cls, tau: float) -> "EmitterParams":
        if not math.isfinite(tau) or tau <= 0.0:
            raise InvalidParameter(f"lifetime must be finite and > 0, got {tau!r}")
        if not math.isfinite(1.0 / tau):  # the smallest subnormal lifetimes have no finite rate
            raise InvalidParameter(f"lifetime {tau!r} is too small: 1/lifetime overflows")
        return cls(lifetime_tau=tau, gamma_rate=1.0 / tau, linewidth_hz=1.0 / (2.0 * math.pi * tau))

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

    shape: str
    rate: float
    window: float

    def __post_init__(self):
        if self.shape not in (EXPONENTIAL, TRUNCATED_EXPONENTIAL):
            raise InvalidParameter(f"unknown mode shape {self.shape!r}")
        if not math.isfinite(self.rate) or self.rate <= 0.0:
            raise InvalidParameter(f"amplitude decay rate must be finite and > 0, got {self.rate!r}")
        if self.shape == TRUNCATED_EXPONENTIAL:
            if not math.isfinite(self.window) or self.window <= 0.0:
                raise InvalidParameter(f"window must be finite and > 0, got {self.window!r}")
        elif not (self.window == math.inf):
            raise InvalidParameter("an untruncated exponential mode has window = inf")
        norm = _l2_norm_sq(self)
        if not (abs(norm - 1.0) <= 1e-10):
            raise InvalidState(f"mode L2 norm is {norm!r}, not 1 within 1e-10")

    @property
    def _front(self) -> float:
        # 1/sqrt of the integral of e^{-2 rate t}; an overflowed 2 rate yields inf, so NaN norm
        integral = _decay_integral(2.0 * self.rate, self.window)
        return 1.0 / math.sqrt(integral) if integral > 0.0 else math.inf

    def amplitude(self, t):
        ts = np.asarray(t, dtype=float)
        vals = np.where(
            (ts >= 0.0) & (ts <= self.window),
            self._front * np.exp(-self.rate * np.minimum(ts, self.window)),
            0.0,
        )
        return float(vals) if np.ndim(t) == 0 else vals


def exponential_mode(amplitude_rate: float, window: float = math.inf) -> TemporalMode:
    """Exponential envelope by amplitude decay rate, truncated iff window is finite."""
    shape = EXPONENTIAL if math.isinf(window) else TRUNCATED_EXPONENTIAL
    return TemporalMode(shape=shape, rate=amplitude_rate, window=window)


def emitted_mode(gamma: float) -> TemporalMode:
    """Spontaneous-emission envelope for intensity decay rate gamma = 1/tau."""
    return exponential_mode(gamma / 2.0)


def lo_mode(gamma: float, window: float) -> TemporalMode:
    """Rate-matched truncated-exponential LO on [0, window]."""
    return exponential_mode(gamma / 2.0, window)


def mode_overlap(mode_a: TemporalMode, mode_b: TemporalMode) -> float:
    """Power overlap |<f_a, f_b>|^2 in closed form, in [0, 1]."""
    for label, m in (("mode_a", mode_a), ("mode_b", mode_b)):
        norm = _l2_norm_sq(m)
        if not (abs(norm - 1.0) <= 1e-10):
            raise InvalidParameter(f"{label} is not unit-normalized (L2 norm^2 = {norm!r})")
    inner = mode_a.amplitude(0.0) * mode_b.amplitude(0.0)
    inner *= _decay_integral(mode_a.rate + mode_b.rate, min(mode_a.window, mode_b.window))
    # Cauchy-Schwarz bound; only round-off can poke above 1
    return min(1.0, inner * inner)


def matched_overlap(gamma: float, window: float) -> float:
    """Closed-form overlap of the emitted mode with a rate-matched truncated LO."""
    if not (gamma > 0.0) or not (window > 0.0):
        raise InvalidParameter("gamma and window must be > 0")
    return -math.expm1(-gamma * window)


def linewidth_check(emitter: EmitterParams, claimed_hz: float | None = None, rel_tol: float = 0.05):
    """Natural linewidth 1/(2 pi tau) and its consistency with a claimed value.

    Returns (computed_hz, consistent); with no claim the check is vacuously
    consistent.
    """
    computed = emitter.linewidth_hz
    if claimed_hz is None:
        return computed, True
    if not (claimed_hz > 0.0) or not (rel_tol > 0.0):
        raise InvalidParameter("claimed_hz and rel_tol must be > 0")
    return computed, abs(computed - claimed_hz) <= rel_tol * claimed_hz


def lo_linewidth_requirement(emitter: EmitterParams, ratio: float) -> float:
    """LO linewidth needed to sit at `ratio` times the emitter linewidth."""
    if not (0.0 < ratio < 1.0):
        raise InvalidParameter(f"ratio must be in (0, 1), got {ratio!r}")
    return ratio * emitter.linewidth_hz


@dataclass(frozen=True)
class EfficiencyBudget:
    """Detection budget: partial efficiencies, their product, and the outcome."""

    preset: str
    eta_collection: float
    eta_overlap: float
    eta_detector: float
    eta_total: float
    input_variance: float
    detected_variance: float
    detected_db: float

    def __post_init__(self):
        for name in ("eta_collection", "eta_overlap", "eta_detector", "eta_total"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidParameter(f"{name} must be in [0, 1], got {v!r}")
        if not (abs(self.eta_total - self.eta_collection * self.eta_overlap * self.eta_detector) <= 1e-12):
            raise InvalidState("eta_total is not the product of its factors")
        expected = self.eta_total * self.input_variance + (1.0 - self.eta_total) * fock.VACUUM_VARIANCE
        if not (abs(self.detected_variance - expected) <= 1e-12):
            raise InvalidState("detected variance violates V -> eta V + (1 - eta)/4")


def detected_squeezing(
    source: superposition.SuperpositionSpec,
    eta_collection: float,
    emitted: TemporalMode,
    lo: TemporalMode,
    eta_detector: float = 1.0,
    preset: str = "custom",
) -> EfficiencyBudget:
    """Squeezing of the source state at the detector, LO phased to the minimum variance."""
    for name, v in (("eta_collection", eta_collection), ("eta_detector", eta_detector)):
        if not (0.0 <= v <= 1.0):
            raise InvalidParameter(f"{name} must be in [0, 1], got {v!r}")
    eta_overlap = mode_overlap(emitted, lo)
    eta_total = eta_collection * eta_overlap * eta_detector
    v_source = superposition.min_variance(source)
    v_detected = eta_total * v_source + (1.0 - eta_total) * fock.VACUUM_VARIANCE

    return EfficiencyBudget(
        preset=preset,
        eta_collection=eta_collection,
        eta_overlap=eta_overlap,
        eta_detector=eta_detector,
        eta_total=eta_total,
        input_variance=v_source,
        detected_variance=v_detected,
        detected_db=fock.variance_to_db(v_detected),
    )


def window_tradeoff(
    source: superposition.SuperpositionSpec,
    eta_collection: float,
    emitter: EmitterParams,
    windows,
    eta_detector: float = 1.0,
) -> np.ndarray:
    """Detected squeezing vs LO window, matched-rate truncated-exponential LO.

    Returns rows (window_seconds, eta_overlap, detected_db) for an
    ascending grid of windows.
    """
    ws = np.asarray(windows, dtype=float)
    if ws.ndim != 1 or ws.size < 1 or np.any(ws <= 0.0) or np.any(np.diff(ws) <= 0.0):
        raise InvalidParameter("windows must be a strictly ascending grid of positive times")
    em = emitted_mode(emitter.gamma_rate)
    rows = np.empty((ws.size, 3))
    for i, w in enumerate(ws):
        budget = detected_squeezing(
            source, eta_collection, em, lo_mode(emitter.gamma_rate, float(w)), eta_detector
        )
        rows[i] = (w, budget.eta_overlap, budget.detected_db)
    return rows
