"""Synthetic experiment orchestration: pulse trains and detuning scans.

A pulse train probes one prepared sample repeatedly, decaying the mean
pumped spin by a fixed fraction per pulse.  A detuning scan prepares
runs_per_point fresh samples at every detuning, probes each with
pulses_per_sample pulses, and aggregates per-point statistics the way the
measured datasets are reported: mean over runs, sample standard deviation
over runs, and standard error of that mean.

Randomness is fully deterministic: every (detuning index, run index) cell
draws from its own stream, exactly
np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed,
spawn_key=(detuning_index, run_index)))), so results are identical
regardless of execution order.  rng.spawned_states seeds all of a
detuning's cells at once, on the standard library, for either scan path.

A pulse train (run_pulse_train) is the scalar chain itself, pulse by
pulse: faraday_angle -> simulate_pulse_detection -> extract_angle ->
decay_mean_z, with one standard-normal draw per pulse passed in.  A scan
computes the same operations in the same order on one of two paths,
chosen from its shape alone (_PLAIN_SCAN_WORK); both give the same values
bit for bit.  A scan up to the cutoff (a 15 x 400 x 10 one, 60,000 pulses
in 6000 cells, among them) runs in plain floats: each cell takes all its
draws from one rng.normal_draws call and computes its pulses one by one,
so the scan never imports numpy, whose import would cost more than the
whole scan.  A larger scan imports numpy: it sets each cell's state in
turn on one reused generator, which fills the cell's row of draws in one
call, and probes all of a detuning's runs in one array computation, where
the per-pulse <J_z> is a running product along each row.  Both paths lay
a cell's draws out alike: the atom-number normal first, when the scan has
a spread, then one per pulse.  One aggregation (_scan_point) then sums
the runs' mean angles as np.mean and np.std do.  A scan reads only the
photon number of a pulse, so it takes no pulse duration.  The dataset and
its CSV table are scandata's.
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
from .rng import normal_draws, spawned_states
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

# A scan runs in plain Python when cells * (pulses_per_sample +
# _PLAIN_CELL_PULSES) is at most _PLAIN_SCAN_WORK, and imports numpy above
# it.  Measured on a 2-core x86-64 host (Python 3.11.7, numpy 2.4.6), best
# of 20 per shape over five shapes from 300 x 1 to 15 x 201 runs x pulses
# at 15 detunings, fitted as cells * (a + b * pulses), three fits: the
# plain path costs b = 0.92 us a pulse and a = 4.0 us a cell, the numpy
# path 0.06 us and 6.7 us, as it sets a generator's state for every cell;
# both seed a detuning's cells at once (rng.spawned_states).  So a plain cell
# weighs (4.0 - 6.7) / (0.92 - 0.06) = -3 pulses against a numpy one, and
# each unit of work costs the plain path 0.86 us more.  The numpy path
# first imports numpy: 82 to 125 ms here (best and median of 15 for
# "import numpy" minus "pass", each in a fresh interpreter, in two
# spells), which is 95,000-145,000 units.  2**17 (131,072) sits in that
# range.  So the 15 x 400 x 10 scan (42,000 units) runs plain and the
# 15 x 40 x 1000 one (598,200) on numpy; a scan of at most 3 pulses a cell
# runs plain at any size, where the plain path is the faster per cell.
_PLAIN_CELL_PULSES = -3
_PLAIN_SCAN_WORK = 2**17


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
    sorted ascending; cell streams are keyed by position in the sorted
    list.
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


def _set_cell_state(generator, state: int, inc: int) -> None:
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


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
    convention: str = "physical",
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> ScanDataset:
    """Full synthetic detuning scan.

    Every detuning must pass the near-resonance guard (checked up front so
    the failure names the offending detuning).  Each detuning's runs are
    drawn in run order and probed on the path the scan's shape picks
    (_PLAIN_SCAN_WORK), so the dataset depends only on its inputs and their
    seeds.
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

    cells = len(cfg.detunings_hz) * cfg.runs_per_point
    plain = cells * (cfg.pulses_per_sample + _PLAIN_CELL_PULSES) <= _PLAIN_SCAN_WORK
    run_means = (_plain_run_means if plain else _numpy_run_means)(
        cfg, atoms_template.mean_j[2], [cp.g for cp in couplings], cfg.photons_per_pulse,
        dm, det, tr,
    )
    points = [
        _scan_point(detuning, values, cfg.pulses_per_sample)
        for detuning, values in zip(cfg.detunings_hz, run_means)
    ]
    return ScanDataset(points=tuple(points))


def _plain_run_means(
    cfg: ScanConfig,
    j_z_template: float,
    couplings_g: list[float],
    n_photons: float,
    dm: DestructionModel,
    det: DetectorSpec,
    tr: TransmissionSpec,
) -> Iterator[list[float]]:
    """Each detuning's runs' mean extracted angles in turn, in plain floats.

    The draws are _numpy_run_means', each cell's drawn in one
    rng.normal_draws call, and each pulse is computed with
    run_pulse_train's operations in the same order, so the values are
    equal bit for bit: extract_angle's division by N_L t_h t_v, whose
    checks run once per scan.
    """
    sigma = math.sqrt(n_photons + det.electronic_noise_var)
    keep = 1.0 - dm.per_pulse_decay
    t_h, t_v = tr.t_h, tr.t_v
    denominator = angle_denominator(n_photons, tr)
    spread, n_pulses = cfg.atom_number_spread, cfg.pulses_per_sample
    n_draws = n_pulses + 1 if spread > 0.0 else n_pulses
    for d_index, g in enumerate(couplings_g):
        means = []
        for state, inc in spawned_states(cfg.seed, d_index, cfg.runs_per_point):
            draws = iter(normal_draws(state, inc, n_draws)[0])
            factor = 1.0
            if spread > 0.0:
                factor = max(0.0, 1.0 + spread * next(draws))
            j_z = j_z_template * factor
            total = -0.0  # -0.0 + x is x, as cumsum starts from the first angle
            for normal in draws:
                total += (g * j_z * n_photons * t_h * t_v + sigma * normal) / denominator
                j_z *= keep
            means.append(total / n_pulses)
        yield means


def _numpy_run_means(
    cfg: ScanConfig,
    j_z_template: float,
    couplings_g: list[float],
    n_photons: float,
    dm: DestructionModel,
    det: DetectorSpec,
    tr: TransmissionSpec,
) -> Iterator[list[float]]:
    """Each detuning's runs' mean extracted angles in turn, with numpy:
    every cell's state is set in turn on one generator, reused for the
    whole scan, which fills the cell's row of a detuning's block of draws
    in one call, and one array computation probes all of a detuning's runs
    with run_pulse_train's operations, in the same order: cumprod
    multiplies sequentially along each row, and a row of normals drawn at
    once equals as many scalar draws.

    One generator serves the scan, so numpy is imported once per scan;
    each detuning's arrays are still alive when the next one's are
    allocated, so the C allocator reuses their memory instead of handing it
    back to the system and faulting it in again (10 ms of a 15 x 40 x 1000
    scan when each detuning ran in a function call of its own).
    """
    import numpy as np

    generator = np.random.Generator(np.random.PCG64(0))
    n_runs, n_pulses = cfg.runs_per_point, cfg.pulses_per_sample
    spread = cfg.atom_number_spread
    lead = 1 if spread > 0.0 else 0
    sigma = math.sqrt(n_photons + det.electronic_noise_var)
    for d_index, g in enumerate(couplings_g):
        # each row holds one cell's draws, in the order a fresh generator
        # draws them: the atom-number normal when there is a spread, then
        # the pulse noise
        block = np.empty((n_runs, n_pulses + lead))
        for row, (state, inc) in enumerate(spawned_states(cfg.seed, d_index, n_runs)):
            _set_cell_state(generator, state, inc)
            generator.standard_normal(out=block[row])
        factors = np.full((n_runs, n_pulses), 1.0 - dm.per_pulse_decay)
        if lead:
            # in Python floats, as numpy would warn on an overflow
            factors[:, 0] = [
                j_z_template * max(0.0, 1.0 + spread * x) for x in block[:, 0].tolist()
            ]
        else:
            factors[:, 0] = j_z_template
        j_z = np.cumprod(factors, axis=1)  # <J_z> before each pulse
        delta = g * j_z * n_photons * tr.t_h * tr.t_v + sigma * block[:, lead:]
        theta_hat = extract_angle(delta, n_photons, tr)
        # a sequential sum in pulse order, as the per-pulse loop summed
        yield (np.cumsum(theta_hat, axis=1)[:, -1] / n_pulses).tolist()


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
