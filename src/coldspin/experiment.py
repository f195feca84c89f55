"""Synthetic experiment orchestration: pulse trains and detuning scans.

A pulse train probes one prepared sample repeatedly, decaying the mean
pumped spin by a fixed fraction per pulse.  A detuning scan prepares
runs_per_point fresh samples at every detuning, probes each with
pulses_per_sample pulses, and aggregates per-point statistics the way the
measured datasets are reported: mean over runs, sample standard deviation
over runs, and standard error of that mean.

Randomness is fully deterministic: every detuning draws from its own
stream, exactly np.random.Generator(np.random.PCG64(
np.random.SeedSequence(seed, spawn_key=(detuning_index,)))), seeded by
rng.spawned_state on the standard library.  Its runs read that stream in
run order, two draws a run, so results do not depend on execution order,
and a scan with more runs per point extends each detuning's runs without
changing those of a scan with fewer.

A pulse train (run_pulse_train) is the scalar chain itself, pulse by
pulse: faraday_angle -> simulate_pulse_detection -> extract_angle ->
decay_mean_z, with one standard-normal draw per pulse passed in.

A scan reports only each detuning's mean, spread and standard error over
its runs' mean angles, and a run's mean angle is set by two numbers.
Pulse k of a run extracts (g J_z keep**k N t_h t_v + sigma n_k) / D, with
keep = 1 - per_pulse_decay, D = N t_h t_v and n_k independent standard
normals, so the run's P angles sum to g J_z N t_h t_v S / D plus
sigma (n_0 + ... + n_(P-1)) / D, where S = -expm1(P log1p(-decay)) / decay
(P without decay) is the sum of keep**k.  A sum of P independent standard
normals is distributed as sqrt(P) z for one standard normal z, so run r
reads draws 2r and 2r + 1 of its detuning's stream: the atom-number
normal, read only when the scan has a spread, then z.  The scan is
therefore equal in distribution to running each run through
run_pulse_train, not equal to it bit for bit, and only while the
per-pulse noise is Gaussian with a constant sigma.  It costs the same at
any pulse count and imports no numpy.  One aggregation (_scan_point)
then sums the runs' mean angles as np.mean and np.std do.  A scan reads
only the photon number of a pulse, so it takes no pulse duration.  The
dataset and its CSV table are scandata's.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .atomic_data import AtomSpec
from .detector import (
    MAX_ARRAY_SIZE, DetectorSpec, TransmissionSpec, angle_denominator, extract_angle,
    simulate_pulse_detection,
)
from .errors import NearResonanceError, ValidationError
from .frozen import Frozen
from .rng import normal_draws, spawned_state
from .scandata import ScanDataset, ScanPoint
from .spin_optics import (
    DEFAULT_GUARD_LINEWIDTHS,
    CollectiveSpinState,
    CouplingParams,
    StokesState,
    coupling_constant,
    decay_mean_z,
    detuning_factor,
    faraday_angle,
)
from .summation import pairwise_sum

class DestructionModel(Frozen):
    """Deterministic per-pulse decay of the mean pumped spin.

    The default fraction 1e-4 is calibrated so a 1000-pulse train loses
    about 9.5% of the mean signal, matching observed probe destruction
    rather than the (much larger) photon-scattering upper bound.
    """

    per_pulse_decay: float = 1.0e-4

    def __post_init__(self):
        if not 0.0 <= self.per_pulse_decay < 1.0:
            raise ValidationError(
                f"per_pulse_decay must be in [0, 1), got {self.per_pulse_decay!r}"
            )


class ScanConfig(Frozen):
    """Detuning scan layout and per-pulse probe settings.

    atom_number_spread is the fractional rms scatter of the prepared atom
    number from run to run (trap loading noise); it dominates the scan error
    bars at realistic settings, far above shot noise.  Detunings are stored
    sorted ascending; each detuning's stream is keyed by its position in
    the sorted list.
    """

    detunings_hz: tuple[float, ...]
    photons_per_pulse: float = 4.0e6
    pulses_per_sample: int = 10
    runs_per_point: int = 40
    atom_number_spread: float = 0.10
    seed: int = 0

    def __post_init__(self):
        detunings = tuple(float(d) for d in self.detunings_hz)
        if len(detunings) == 0:
            raise ValidationError("detunings_hz must not be empty")
        for d in detunings:
            if not math.isfinite(d):
                raise ValidationError(f"detunings_hz must be finite, got {d!r}")
        object.__setattr__(self, "detunings_hz", tuple(sorted(detunings)))
        if not self.photons_per_pulse > 0:
            raise ValidationError(
                f"photons_per_pulse must be positive, got {self.photons_per_pulse!r}"
            )
        for name in ("pulses_per_sample", "runs_per_point"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        size = self.runs_per_point * (self.pulses_per_sample + 1)
        if size > MAX_ARRAY_SIZE:
            raise ValidationError(
                f"runs_per_point * (pulses_per_sample + 1) is {size}, more than "
                f"the scan's size limit of {MAX_ARRAY_SIZE}"
            )
        if not (0.0 <= self.atom_number_spread and math.isfinite(self.atom_number_spread)):
            raise ValidationError(
                f"atom_number_spread must be >= 0, got {self.atom_number_spread!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")


def run_pulse_train(
    n_pulses: int,
    atoms: CollectiveSpinState,
    cp: CouplingParams,
    light_template: StokesState,
    dm: DestructionModel,
    det: DetectorSpec,
    tr: TransmissionSpec,
    normals: Sequence[float] | None,
) -> tuple[list[tuple[int, float, float]], CollectiveSpinState]:
    """Probe one sample n_pulses times.

    Per pulse: the rotation angle follows the current <J_z>, one detection
    is simulated with the pulse's standard-normal draw from normals, a
    sequence of n_pulses of them (noiseless when None), the angle is
    extracted, then the destruction model decays <J_z>.  Returns the list
    of (pulse_index, measured imbalance, extracted angle) and the
    post-train atomic state; the input state is never mutated.
    """
    if not (isinstance(n_pulses, int) and n_pulses >= 0):
        raise ValidationError(f"n_pulses must be an integer >= 0, got {n_pulses!r}")
    if normals is None:
        normals = [None] * n_pulses
    elif len(normals) != n_pulses:
        raise ValidationError(
            f"normals must hold one draw per pulse, {n_pulses}, got {len(normals)}"
        )
    n_photons = light_template.n_photons
    records = []
    for pulse_index, normal in enumerate(normals):
        theta = faraday_angle(atoms, cp.g)
        delta = simulate_pulse_detection(theta, n_photons, det, tr, normal)
        records.append((pulse_index, delta, extract_angle(delta, n_photons, tr)))
        atoms = decay_mean_z(atoms, dm.per_pulse_decay)
    return records, atoms


def run_detuning_scan(
    cfg: ScanConfig,
    atoms_template: CollectiveSpinState,
    spec: AtomSpec,
    area_m2: float,
    det: DetectorSpec,
    tr: TransmissionSpec,
    dm: DestructionModel,
    *,
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> ScanDataset:
    """Full synthetic detuning scan.

    Every detuning must pass the near-resonance guard (checked up front so
    the failure names the offending detuning).  Each detuning's runs are
    drawn in run order from its stream, two normals a run (_run_means), so
    the dataset depends only on its inputs and their seeds.
    """
    couplings = []
    for detuning in cfg.detunings_hz:
        try:
            couplings.append(
                coupling_constant(
                    detuning, area_m2, spec, guard_linewidths=guard_linewidths
                )
            )
        except NearResonanceError as exc:
            raise NearResonanceError(
                f"scan detuning {detuning:.6g} Hz rejected: {exc}"
            ) from exc

    run_means = _run_means(
        cfg, atoms_template.mean_j[2], [cp.g for cp in couplings], dm, det, tr
    )
    points = [
        _scan_point(detuning, values, cfg.pulses_per_sample)
        for detuning, values in zip(cfg.detunings_hz, run_means)
    ]
    return ScanDataset(points=tuple(points))


def _decay_sum(per_pulse_decay: float, n_pulses: int) -> float:
    """S = sum of (1 - per_pulse_decay)**k over the n_pulses pulses k of a
    train, in closed form: -expm1(P log1p(-decay)) / decay, or P without
    decay.  S / P is the train's mean fraction of the first pulse's
    signal."""
    if per_pulse_decay == 0.0:
        return float(n_pulses)
    return -math.expm1(n_pulses * math.log1p(-per_pulse_decay)) / per_pulse_decay


def _run_means(
    cfg: ScanConfig,
    j_z_template: float,
    couplings_g: list[float],
    dm: DestructionModel,
    det: DetectorSpec,
    tr: TransmissionSpec,
) -> Iterator[list[float]]:
    """Each detuning's runs' mean extracted angles in turn, two draws a
    run from the detuning's stream (see the module docstring): the run's P
    angles sum to g J_z N t_h t_v S / D + sigma sqrt(P) z / D.  The
    noiseless angle is divided by D before it is scaled by S, as each
    pulse's is, so that a sum overflows only where the pulses' angles
    would."""
    n_photons, n_pulses = cfg.photons_per_pulse, cfg.pulses_per_sample
    t_h, t_v = tr.t_h, tr.t_v
    denominator = angle_denominator(n_photons, tr)
    signal_sum = _decay_sum(dm.per_pulse_decay, n_pulses)
    noise_sum = (
        math.sqrt(n_photons + det.electronic_noise_var) * math.sqrt(n_pulses) / denominator
    )
    spread = cfg.atom_number_spread
    for d_index, g in enumerate(couplings_g):
        draws = normal_draws(*spawned_state(cfg.seed, d_index), 2 * cfg.runs_per_point)[0]
        means = []
        for atom_normal, noise_normal in zip(draws[0::2], draws[1::2]):
            j_z = j_z_template
            if spread > 0.0:
                j_z *= max(0.0, 1.0 + spread * atom_normal)
            total = (g * j_z * n_photons * t_h * t_v / denominator * signal_sum
                     + noise_sum * noise_normal)
            means.append(total / n_pulses)
        yield means


def _scan_point(detuning: float, values: list[float], n_pulses: int) -> ScanPoint:
    """One detuning's point from its runs' mean angles: their mean, sample
    standard deviation (ddof=1) and standard error, summed pairwise so that
    they equal np.mean and np.std(ddof=1) of the values bit for bit."""
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"scan detuning {detuning:.6g} Hz: a mean angle overflows")
    n_runs = len(values)
    mean = pairwise_sum(values) / n_runs
    stddev = 0.0
    if n_runs > 1:
        squares = [d * d for d in (value - mean for value in values)]
        stddev = math.sqrt(pairwise_sum(squares) / (n_runs - 1))
    if not (math.isfinite(mean) and math.isfinite(stddev)):
        raise OverflowError(
            f"scan detuning {detuning:.6g} Hz: the mean or spread of the runs' angles overflows"
        )
    return ScanPoint(
        detuning_hz=detuning,
        theta_mean_rad=mean,
        theta_stderr_rad=stddev / math.sqrt(n_runs),
        theta_stddev_rad=stddev,
        n_runs=n_runs,
        n_pulses=n_pulses,
    )


def scattering_probability(
    detuning_hz: float,
    n_photons: float,
    area_m2: float,
    spec: AtomSpec,
    *,
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> float:
    """Per-atom photon-scattering estimate for one pulse:
    N_L sigma_0 (Gamma/2 Delta)^2 / A.

    This is an upper bound on probe destruction (coherence-preserving
    elastic events do not depolarize); the same near-resonance guard as the
    coupling applies.
    """
    if n_photons < 0:
        raise ValidationError(f"n_photons must be >= 0, got {n_photons!r}")
    if not area_m2 > 0:
        raise ValidationError(f"area_m2 must be positive, got {area_m2!r}")
    # evaluated only for the guard; far detuned is a precondition here
    for f_prime in (0, 1, 2):
        detuning_factor(detuning_hz, f_prime, spec, guard_linewidths=guard_linewidths)
    ratio = spec.linewidth_hz / (2.0 * detuning_hz)
    return n_photons * spec.cross_section_m2 * ratio * ratio / area_m2
