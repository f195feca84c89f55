"""Balanced polarimeter model: pulse detection, noise, and waveforms.

The measured quantity per pulse is the +-45 degree photon-number imbalance
dN' = theta N_L t_h t_v plus Gaussian noise of variance N_L (shot noise of
the balanced split) + electronic_noise_var (amplifier noise quoted as an
equivalent photon number).  t_h and t_v are the amplitude transmissions of
the two polarization paths; extract_angle inverts the same relation.

Waveform synthesis emits the Fig.-style sampled detector trace: a Gaussian
bump of width filter_sigma whose integration-window sum encodes the pulse
imbalance: the samples in [window_start, window_end), summed and divided by
calibration_factor, give the record's integrated_imbalance to rounding.

The module loads without numpy.  The waveform is computed in plain floats
with the C library's exp, and its window is summed in np.sum's pairwise
order (summation.pairwise_sum).  A pulse's noise is one standard-normal
draw, passed in as a number (coldspin.rng draws them).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .csvio import MAX_ARRAY_SIZE, format_table
from .errors import ValidationError
from .frozen import Frozen
from .summation import pairwise_sum

PULSE_CSV_COLUMNS = {"sample_index": int, "value": float}


class DetectorSpec(Frozen):
    """Noise and waveform parameters of the balanced detector."""

    electronic_noise_var: float = 1.0e5  # photon-number-equivalent variance
    calibration_factor: float = 1.0      # output signal units per photon
    filter_sigma_s: float = 2.5e-7       # Gaussian filter response width
    sample_rate_hz: float = 1.0e8

    def __post_init__(self):
        if not (self.electronic_noise_var >= 0.0 and math.isfinite(self.electronic_noise_var)):
            raise ValidationError(
                f"electronic_noise_var must be >= 0, got {self.electronic_noise_var!r}"
            )
        for name in ("calibration_factor", "filter_sigma_s", "sample_rate_hz"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be positive, got {value!r}")
        if self.sample_rate_hz * self.filter_sigma_s < 4.0:
            raise ValidationError(
                "sample_rate_hz * filter_sigma_s must be >= 4 so the sampled "
                "waveform resolves the filter response, got "
                f"{self.sample_rate_hz * self.filter_sigma_s!r}"
            )


class TransmissionSpec(Frozen):
    """Amplitude transmissions of the two polarization paths, in (0, 1]."""

    t_h: float = 1.0
    t_v: float = 1.0

    def __post_init__(self):
        for name in ("t_h", "t_v"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValidationError(f"{name} must be in (0, 1], got {value!r}")


class PulseRecord(Frozen):
    """One sampled detector trace with its integration window.

    samples are in output signal units (photon number times the calibration
    factor); [window_start, window_end) delimits the integration window in
    sample indices.  integrated_imbalance records the photon-number
    imbalance the trace encodes.
    """

    samples: tuple[float, ...]
    window_start: int
    window_end: int
    integrated_imbalance: float
    sample_rate_hz: float

    def __post_init__(self):
        if not (0 <= self.window_start < self.window_end <= len(self.samples)):
            raise ValidationError(
                f"window [{self.window_start}, {self.window_end}) is outside "
                f"the {len(self.samples)}-sample record"
            )


def _check_photons(n_photons: float) -> None:
    if not n_photons > 0:
        raise ValidationError(f"n_photons must be positive, got {n_photons!r}")


def simulate_pulse_detection(
    theta_true: float,
    n_photons: float,
    det: DetectorSpec,
    tr: TransmissionSpec,
    normal: float | None = None,
) -> float:
    """One measured imbalance dN' = theta N_L t_h t_v + noise.

    The noise term is Gaussian with variance N_L + electronic_noise_var:
    sqrt(N_L + electronic_noise_var) times normal, one standard-normal
    draw.  Pass normal=None for the noiseless signal model (used to invert
    and to test the round trip).  Small-angle model; valid for
    |theta| << 1.
    """
    _check_photons(n_photons)
    signal = theta_true * n_photons * tr.t_h * tr.t_v
    if normal is None:
        return signal
    sigma = math.sqrt(n_photons + det.electronic_noise_var)
    return signal + sigma * float(normal)


def angle_denominator(n_photons: float, tr: TransmissionSpec) -> float:
    """N_L t_h t_v, the imbalance per radian of rotation, which
    extract_angle divides by; a product that underflows to 0 raises
    ArithmeticError."""
    _check_photons(n_photons)
    denominator = n_photons * tr.t_h * tr.t_v
    if denominator == 0.0:  # t_h and t_v are positive: the product underflowed
        raise ArithmeticError("n_photons * t_h * t_v underflows to 0")
    return denominator


def extract_angle(delta_count: float, n_photons: float, tr: TransmissionSpec) -> float:
    """Rotation angle from a measured imbalance: theta = dN'/(N_L t_h t_v)."""
    return delta_count / angle_denominator(n_photons, tr)


def angle_variance(n_photons: float, det: DetectorSpec, tr: TransmissionSpec) -> float:
    """Variance of the extracted angle for one pulse:
    (N_L + electronic_noise_var) / (N_L t_h t_v)^2."""
    return (n_photons + det.electronic_noise_var) / angle_denominator(n_photons, tr) ** 2


def synthesize_waveform(
    delta_count: float,
    det: DetectorSpec,
    pulse_duration_s: float,
) -> PulseRecord:
    """Sampled detector trace encoding one pulse imbalance.

    The trace is a Gaussian bump of width filter_sigma_s centered on the
    pulse, padded with baseline on both sides; the sum of the samples inside
    the integration window equals delta_count * calibration_factor, so
    the window sum over calibration_factor recovers delta_count.
    """
    if not pulse_duration_s > 0:
        raise ValidationError(
            f"pulse_duration_s must be positive, got {pulse_duration_s!r}"
        )
    dt = 1.0 / det.sample_rate_hz
    pad = 8.0 * det.filter_sigma_s
    total = pulse_duration_s + 2.0 * pad
    if not total / dt <= MAX_ARRAY_SIZE:
        raise ValidationError(
            f"the waveform would take {total / dt:.3g} samples, more than "
            f"{MAX_ARRAY_SIZE}: shorten pulse_duration_s or filter_sigma_s"
        )
    n_samples = int(math.ceil(total / dt))
    t = [(i + 0.5) * dt for i in range(n_samples)]
    center = total / 2.0
    # window: center of the record +- (pulse half-width + 4 filter sigmas)
    half_window = pulse_duration_s / 2.0 + 4.0 * det.filter_sigma_s
    window_start = bisect_left(t, center - half_window)
    window_end = bisect_right(t, center + half_window)
    shape = []
    for ti in t:
        u = (ti - center) / det.filter_sigma_s
        shape.append(math.exp(-0.5 * (u * u)))
    window_weight = pairwise_sum(shape[window_start:window_end])
    scale = delta_count * det.calibration_factor / window_weight
    samples = tuple(value * scale for value in shape)
    return PulseRecord(
        samples=samples,
        window_start=window_start,
        window_end=window_end,
        integrated_imbalance=float(delta_count),
        sample_rate_hz=det.sample_rate_hz,
    )


def format_pulse_csv(record: PulseRecord, path) -> bytearray:
    """The bytes of a trace's CSV table (sample_index, value); path only
    names the file in errors."""
    return format_table(path, PULSE_CSV_COLUMNS, enumerate(record.samples))
