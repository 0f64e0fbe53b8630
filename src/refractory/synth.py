"""Seeded synthetic event streams with a planted non-linear class signal.

Every patient receives a latent magnitude vector g over the signal codes and
the pre-index count for signal code j is round(|g_j|). Each coordinate of g
sits on one of two per-code shells: code j contributes r_lo * s_j or
r_hi * s_j (s_j is a fixed per-code scale ramp, shell_radii = (r_lo, r_hi)),
plus noise_scale-scaled jitter. Which shell a coordinate lands on is a fair
coin for both classes, so every per-code marginal, and hence every per-code
mean and variance, is identical between cases and controls: no linear
functional of the counts separates the classes. The class lives purely in
how shell choices co-occur: signal codes are paired, and within a pair the
two coordinates land on the same shell for cases and on opposite shells for
controls (each pair independently flipped with probability PAIR_FLIP_RATE
to keep the signal noisy). Recovering it requires conjunctions of per-code
magnitude states, which is exactly what an RBF kernel map or depth>=2 trees
can express and a linear model cannot.

Per-code class mean-count gaps are zero in expectation; for the default
configuration the observed per-code gap stays below MEAN_GAP_THRESHOLD
across seeds (checked in the test suite).

Non-signal codes draw counts from one shared Poisson background for both
classes, spread over the whole timeline. Signal-code events are placed
strictly before the patient's first AED_FAILURE day so the planted counts
survive the pre-index feature cut unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import EVENT_KINDS, EventTable

TIMELINE_DAYS = 360

# Poisson rate per (patient, background code) over the full timeline.
BACKGROUND_RATE = 0.3

# Probability that a signal pair disagrees with its class parity.
PAIR_FLIP_RATE = 0.15

# Declared bound on the observed per-code class mean-count gap for the
# default configuration (population value is zero by construction).
MEAN_GAP_THRESHOLD = 0.25

_KIND_CYCLE = ("DIAGNOSIS", "DRUG", "PROCEDURE")

# Extra post-index failures for cases beyond the required four.
_EXTRA_FAILURE_RATE = 1.0


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic stream.

    shell_radii gives the (low, high) per-code magnitude shells before the
    per-code scale ramp is applied; the two radii must be positive and
    distinct, and their gap relative to noise_scale sets how cleanly the
    per-code states separate.
    """

    n_case: int = 200
    n_control: int = 200
    n_codes: int = 500
    n_signal_codes: int = 20
    seed: int = 0
    noise_scale: float = 0.5
    shell_radii: tuple[float, float] = (1.0, 5.0)

    def __post_init__(self):
        if self.n_case < 1 or self.n_control < 1:
            raise ValueError("n_case and n_control must be positive")
        if self.n_signal_codes < 2:
            raise ValueError("need at least 2 signal codes to carry a pair signal")
        if self.n_signal_codes > self.n_codes:
            raise ValueError("n_signal_codes cannot exceed n_codes")
        lo, hi = self.shell_radii
        if lo <= 0 or hi <= 0:
            raise ValueError("shell radii must be positive")
        if lo == hi:
            raise ValueError("shell radii must be distinct")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")

    def code_names(self) -> list[str]:
        width = max(4, len(str(self.n_codes - 1)))
        return [f"C{i:0{width}d}" for i in range(self.n_codes)]

    def signal_codes(self) -> list[str]:
        return self.code_names()[: self.n_signal_codes]

    def background_codes(self) -> list[str]:
        return self.code_names()[self.n_signal_codes :]


def _code_kind(index: int, n_signal: int) -> str:
    # Signal codes are all diagnoses; background codes cycle through kinds.
    if index < n_signal:
        return "DIAGNOSIS"
    return _KIND_CYCLE[(index - n_signal) % len(_KIND_CYCLE)]


def code_scales(n_signal_codes: int) -> np.ndarray:
    """Per-code shrink of both shells; distinct values keep the per-code
    variances distinct so spectral embeddings cannot rotate codes together."""
    j = np.arange(n_signal_codes, dtype=float)
    return 1.0 / (1.0 + 0.07 * j)


def generate_events(config: GeneratorConfig) -> EventTable:
    """Generate the full event stream for a fixed seed.

    Cases end up with their first AED_FAILURE in the middle third of the
    timeline and at least four more strictly after it; controls get exactly
    one failure and nothing after. Deterministic: equal configs give
    byte-identical tables.
    """
    rng = np.random.default_rng(config.seed)
    scales = code_scales(config.n_signal_codes)
    lo, hi = config.shell_radii
    n_signal = config.n_signal_codes
    # Row 0 is the AED failure; row 1 + i is generator code i. An event
    # stores its row, which is also its code's index in the dictionary.
    codes = ["AED", *config.code_names()]
    row_kind = [EVENT_KINDS.index("AED_FAILURE")]
    row_kind += [EVENT_KINDS.index(_code_kind(i, n_signal)) for i in range(config.n_codes)]

    patient_rows: list[np.ndarray] = []
    patient_days: list[np.ndarray] = []
    lo_third = TIMELINE_DAYS // 3
    hi_third = 2 * TIMELINE_DAYS // 3

    ids = [f"case-{i:04d}" for i in range(config.n_case)] + [f"ctrl-{i:04d}" for i in range(config.n_control)]

    for is_case in [True] * config.n_case + [False] * config.n_control:
        index_day = int(rng.integers(lo_third, hi_third))

        # AED failure schedule: the index failure, plus >= 4 later ones for cases.
        n_post = 4 + int(rng.poisson(_EXTRA_FAILURE_RATE)) if is_case else 0
        failure_days = [index_day, *rng.integers(index_day + 1, TIMELINE_DAYS, size=n_post)]

        # Per-code shell states. Pairs agree for cases, disagree for controls,
        # with a small flip rate; a trailing unpaired code is a fair coin.
        states = np.zeros(n_signal, dtype=np.int64)
        for p in range(n_signal // 2):
            agree = is_case == (rng.random() >= PAIR_FLIP_RATE)
            first = int(rng.integers(2))
            states[2 * p] = first
            states[2 * p + 1] = first if agree else 1 - first
        if n_signal % 2:
            states[-1] = int(rng.integers(2))

        radii = np.where(states == 1, hi, lo) * scales
        latent = radii + config.noise_scale * scales * rng.standard_normal(n_signal)
        counts = np.rint(np.abs(latent)).astype(np.int64)

        # Planted counts become pre-index diagnosis events; the shared,
        # class-independent background spreads over the whole timeline.
        # One draw per block gives the same values, and leaves the same
        # generator state, as one draw per code with the same bounds.
        signal_days = rng.integers(0, index_day, size=counts.sum())
        bg_counts = rng.poisson(BACKGROUND_RATE, size=config.n_codes - n_signal)
        bg_days = rng.integers(0, TIMELINE_DAYS, size=bg_counts.sum())

        code_counts = np.concatenate(([len(failure_days)], counts, bg_counts))
        patient_rows.append(np.repeat(np.arange(len(codes)), code_counts))
        patient_days.append(np.concatenate((failure_days, signal_days, bg_days)))

    rows = np.concatenate(patient_rows)
    patient = np.repeat(np.arange(len(ids)), [len(r) for r in patient_rows])
    return EventTable._adopt(ids, codes, patient, np.take(row_kind, rows), rows, np.concatenate(patient_days))
