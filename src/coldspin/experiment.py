"""Synthetic experiment orchestration: pulse trains and detuning scans.

A pulse train probes one prepared sample repeatedly, decaying the mean
pumped spin by a fixed fraction per pulse.  A detuning scan prepares
runs_per_point fresh samples at every detuning, probes each with
pulses_per_sample pulses, and aggregates per-point statistics the way the
measured datasets are reported: mean over runs, sample standard deviation
over runs, and standard error of that mean.

Each detuning is one array kernel over all its runs, with one row per
(detuning, run) cell: the per-pulse <J_z> is a running product along the
row, and the row's pulse noise is one vector draw from the cell's stream.
The kernel performs the same floating-point operations in the same order
as probing pulse by pulse, so its output is bit-identical to that loop.

Randomness is fully deterministic: every (detuning index, run index) cell
draws from its own stream, exactly
np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed,
spawn_key=(detuning_index, run_index)))), so results are identical
regardless of execution order.  The scan computes those streams' seeded
states for a whole detuning at once (_cell_states) and sets each in turn
on one reused generator instead of constructing a generator per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atomic_data import AtomSpec
from .detector import MAX_ARRAY_SIZE, DetectorSpec, TransmissionSpec, extract_angle
from .errors import NearResonanceError, ValidationError
from .rng import POOL_SIZE, pcg64_seed, seed_sequence_words, uint32_words
# the dataset and its CSV table live in scandata, which the fit loads
# without numpy; read_scan_csv and write_scan_csv are re-exported here
from .scandata import ScanDataset, ScanPoint, read_scan_csv, write_scan_csv
from .spin_optics import (
    DEFAULT_GUARD_LINEWIDTHS,
    CollectiveSpinState,
    CouplingParams,
    StokesState,
    coherent_pulse,
    coupling_constant,
    detuning_factor,
)


@dataclass(frozen=True)
class DestructionModel:
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


@dataclass(frozen=True)
class ScanConfig:
    """Detuning scan layout and per-pulse probe settings.

    atom_number_spread is the fractional rms scatter of the prepared atom
    number from run to run (trap loading noise); it dominates the scan error
    bars at realistic settings, far above shot noise.  Detunings are stored
    sorted ascending; child streams are keyed by position in the sorted
    list.  pulse_period_s is validated (it must exceed pulse_duration_s)
    and recorded, but changes no output: nothing in the model depends on
    the time between pulses.
    """

    detunings_hz: tuple[float, ...]
    photons_per_pulse: float = 4.0e6
    pulse_duration_s: float = 1.0e-6
    pulse_period_s: float = 2.0e-5
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
        if not self.pulse_duration_s > 0:
            raise ValidationError(
                f"pulse_duration_s must be positive, got {self.pulse_duration_s!r}"
            )
        if not self.pulse_period_s > self.pulse_duration_s:
            raise ValidationError(
                "pulse_period_s must exceed pulse_duration_s, got "
                f"{self.pulse_period_s!r} <= {self.pulse_duration_s!r}"
            )
        for name in ("pulses_per_sample", "runs_per_point"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 1):
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        block = self.runs_per_point * (self.pulses_per_sample + 1)
        if block > MAX_ARRAY_SIZE:
            raise ValidationError(
                f"runs_per_point * (pulses_per_sample + 1) is {block}, more than "
                f"the {MAX_ARRAY_SIZE} elements one array may take"
            )
        if not (0.0 <= self.atom_number_spread and math.isfinite(self.atom_number_spread)):
            raise ValidationError(
                f"atom_number_spread must be >= 0, got {self.atom_number_spread!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")


def _cell_states(seed: int, detuning_index: int, run_indices) -> list[tuple[int, int]]:
    """(state, inc) of np.random.PCG64(np.random.SeedSequence(seed,
    spawn_key=(detuning_index, r))) for every r in run_indices at once.

    rng's SeedSequence hash runs on uint64 arrays with one element per
    cell; its hash constants depend only on word positions, so they are the
    same for every cell.  The run indices must share one 32-bit word count,
    as every index below 2**32 does.
    """
    lead = uint32_words(seed)
    lead += [0] * (POOL_SIZE - len(lead))  # spawned sequences pad to the pool
    lead += uint32_words(detuning_index)
    runs = np.array(run_indices, dtype=object)  # Python ints of any size
    width = len(uint32_words(runs.max()))
    if len(uint32_words(runs.min())) != width:
        raise ValueError("run indices must share one 32-bit word count")
    # the words every cell shares stay ints; each run-index word is an
    # array with one element per cell
    entropy = lead + [((runs >> 32 * k) & 0xFFFFFFFF).astype(np.uint64) for k in range(width)]
    # PCG64 seeding in Python ints, over all cells at once
    state, inc = pcg64_seed(*(word.astype(object) for word in seed_sequence_words(entropy)))
    return list(zip(state.tolist(), inc.tolist()))


def _set_cell_state(generator: np.random.Generator, state: int, inc: int) -> None:
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def child_stream(seed: int, detuning_index: int, run_index: int) -> np.random.Generator:
    """Independent generator for one (detuning, run) cell: exactly
    np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed,
    spawn_key=(detuning_index, run_index)))), deterministic and
    schedule-independent."""
    generator = np.random.Generator(np.random.PCG64(0))
    _set_cell_state(generator, *_cell_states(seed, detuning_index, (run_index,))[0])
    return generator


def _pulse_kernel(
    n_pulses: int,
    j_z0: np.ndarray,
    g: float,
    n_photons: float,
    per_pulse_decay: float,
    det: DetectorSpec,
    tr: TransmissionSpec,
    noise: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pulse trains as (rows x pulses) arrays, one row per sample with its
    initial <J_z> in j_z0: <J_z> before each pulse plus the post-train
    value (n_pulses + 1 columns), the measured imbalances and the extracted
    angles.  noise holds each row's standard normals, or None for
    noiseless detection.

    Every element is computed with the operations of the scalar chain
    faraday_angle -> simulate_pulse_detection -> extract_angle ->
    decay_mean_z, in the same order: cumprod multiplies sequentially along
    each row, and n_pulses normals drawn at once equal n_pulses scalar
    draws.
    """
    factors = np.full((len(j_z0), n_pulses + 1), 1.0 - per_pulse_decay)
    factors[:, 0] = j_z0
    j_z = np.cumprod(factors, axis=1)
    delta = g * j_z[:, :-1] * n_photons * tr.t_h * tr.t_v
    if noise is not None:
        sigma = math.sqrt(n_photons + det.electronic_noise_var)
        delta = delta + sigma * noise
    return j_z, delta, extract_angle(delta, n_photons, tr)


def run_pulse_train(
    n_pulses: int,
    atoms: CollectiveSpinState,
    cp: CouplingParams,
    light_template: StokesState,
    dm: DestructionModel,
    det: DetectorSpec,
    tr: TransmissionSpec,
    stream: np.random.Generator | None,
) -> tuple[list[tuple[int, float, float]], CollectiveSpinState]:
    """Probe one sample n_pulses times.

    Per pulse: the rotation angle follows the current <J_z>, one detection
    is simulated, then the destruction model decays <J_z>.  Returns the list
    of (pulse_index, measured imbalance, extracted angle) and the post-train
    atomic state; the input state is never mutated.
    """
    if not (isinstance(n_pulses, int) and n_pulses >= 0):
        raise ValidationError(f"n_pulses must be an integer >= 0, got {n_pulses!r}")
    j_x, j_y, j_z0 = atoms.mean_j
    noise = None if stream is None else stream.standard_normal(n_pulses)[np.newaxis]
    j_z, delta, theta_hat = _pulse_kernel(
        n_pulses, np.array([j_z0]), cp.g, light_template.n_photons,
        dm.per_pulse_decay, det, tr, noise,
    )
    records = list(zip(range(n_pulses), delta[0].tolist(), theta_hat[0].tolist()))
    after = CollectiveSpinState((j_x, j_y, float(j_z[0, -1])), atoms.var_j, atoms.n_atoms)
    return records, after


def run_detuning_scan(
    cfg: ScanConfig,
    atoms_template: CollectiveSpinState,
    spec: AtomSpec,
    area_m2: float,
    det: DetectorSpec,
    tr: TransmissionSpec,
    dm: DestructionModel,
    *,
    convention: str = "physical",
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> ScanDataset:
    """Full synthetic detuning scan.

    Every detuning must pass the near-resonance guard (checked up front so
    the failure names the offending detuning).  Each detuning's runs are
    drawn in run order and probed by one kernel call, so the dataset
    depends only on its inputs and their seeds.
    """
    couplings = []
    for detuning in cfg.detunings_hz:
        try:
            couplings.append(
                coupling_constant(
                    detuning,
                    area_m2,
                    spec,
                    convention=convention,
                    guard_linewidths=guard_linewidths,
                )
            )
        except NearResonanceError as exc:
            raise NearResonanceError(
                f"scan detuning {detuning:.6g} Hz rejected: {exc}"
            ) from exc
    light = coherent_pulse(cfg.photons_per_pulse, cfg.pulse_duration_s, "x")

    n_runs = cfg.runs_per_point
    n_pulses = cfg.pulses_per_sample
    j_z_template = atoms_template.mean_j[2]
    generator = np.random.Generator(np.random.PCG64(0))
    points = []
    for d_index, detuning in enumerate(cfg.detunings_hz):
        # each run draws from its own cell stream, in the order a fresh
        # child_stream would: the atom-number normal, then the pulse noise
        j_z0 = []
        noise = np.empty((n_runs, n_pulses))
        states = _cell_states(cfg.seed, d_index, range(n_runs))
        for run_index, (state, inc) in enumerate(states):
            _set_cell_state(generator, state, inc)
            factor = 1.0
            if cfg.atom_number_spread > 0.0:
                factor = max(
                    0.0, 1.0 + cfg.atom_number_spread * float(generator.standard_normal())
                )
            j_z0.append(j_z_template * factor)
            generator.standard_normal(out=noise[run_index])
        _, _, theta_hat = _pulse_kernel(
            n_pulses, np.array(j_z0), couplings[d_index].g, light.n_photons,
            dm.per_pulse_decay, det, tr, noise,
        )
        # a sequential sum in pulse order, as the per-pulse loop summed
        values = np.cumsum(theta_hat, axis=1)[:, -1] / n_pulses
        if not np.isfinite(values).all():
            raise OverflowError(f"scan detuning {detuning:.6g} Hz: a mean angle overflows")
        mean = float(values.mean())
        if n_runs > 1:
            stddev = float(values.std(ddof=1))
        else:
            stddev = 0.0
        stderr = stddev / math.sqrt(n_runs)
        points.append(
            ScanPoint(
                detuning_hz=detuning,
                theta_mean_rad=mean,
                theta_stderr_rad=stderr,
                theta_stddev_rad=stddev,
                n_runs=n_runs,
                n_pulses=n_pulses,
            )
        )
    return ScanDataset(points=tuple(points), seed=cfg.seed)


def scattering_probability(
    detuning_hz: float,
    n_photons: float,
    area_m2: float,
    spec: AtomSpec,
    *,
    convention: str = "physical",
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
        detuning_factor(
            detuning_hz,
            f_prime,
            spec,
            convention=convention,
            guard_linewidths=guard_linewidths,
        )
    ratio = spec.linewidth_hz / (2.0 * detuning_hz)
    return n_photons * spec.cross_section_m2 * ratio * ratio / area_m2
