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
regardless of execution order.  The seed words a detuning's cells share
are hashed once per detuning (_detuning_pool).

A scan draws and probes each detuning on one of two paths, chosen from its
shape alone (_PLAIN_SCAN_WORK); both give the same values bit for bit.  A
small scan runs in plain floats: each cell finishes its seeding in ints
and draws from an rng.NormalStream, and its pulses are computed one by
one, so it never imports numpy, whose import would cost more than the
whole scan.  A larger scan imports numpy: it seeds all of a detuning's
cells at once in uint64 arrays (_cell_states), sets each state in turn on
one reused generator, and probes all the runs in one array kernel
(_pulse_kernel), where the per-pulse <J_z> is a running product along each
row.  Either path performs the floating-point operations of probing pulse
by pulse, in the same order, and one aggregation (_scan_point) sums the
runs' mean angles as np.mean and np.std do.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator

from .atomic_data import AtomSpec
from .detector import MAX_ARRAY_SIZE, DetectorSpec, TransmissionSpec, extract_angle
from .errors import NearResonanceError, ValidationError
from .frozen import Frozen
from .rng import (
    POOL_SIZE, NormalStream, mix_entropy, pcg64_seed, seed_sequence_words, uint32_words,
)
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
from .summation import pairwise_sum

if TYPE_CHECKING:
    import numpy as np

# A scan runs in plain Python when cells * (pulses_per_sample + 12) is at
# most this, and imports numpy above it.  Measured on a 2-core x86-64 host
# (Python 3.11.7, numpy 2.4.6), best of 5-7: a plain pulse (one normal draw
# at 1.4 us plus its arithmetic) costs ~1.6 us, and a plain cell ~19 us on
# top, 14 us of it seeding from the detuning's shared pool (38 us for the
# full hash); that is the 12 pulses.  The numpy path computes a cell in
# ~1-8 us but first imports numpy: 190 ms here (python -c pass 66 ms,
# "import numpy" 257 ms), 130 ms in faster spells.  So the two break even
# near 80,000-120,000 units; 2**15 (~50 ms of plain work) stays a win on a
# host that imports numpy twice as fast, and keeps a 15 x 4 x 1000 scan
# (60,720) on the numpy path while the 15 x 40 x 10 default (13,200) runs
# plain.
_PLAIN_SCAN_WORK = 2**15


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
    pulse_duration_s: float = 1.0e-6
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


def _detuning_pool(seed: int, detuning_index: int) -> tuple:
    """rng.mix_entropy of the entropy words every cell of one detuning
    shares: the seed's words, padded to the pool as a spawned sequence pads
    them, then the detuning index."""
    lead = uint32_words(seed)
    lead += [0] * (POOL_SIZE - len(lead))
    return mix_entropy(lead + uint32_words(detuning_index))


def _cell_states(seed: int, detuning_index: int, run_indices) -> list[tuple[int, int]]:
    """(state, inc) of np.random.PCG64(np.random.SeedSequence(seed,
    spawn_key=(detuning_index, r))) for every r in run_indices at once.

    The detuning's shared words are hashed once in ints; the hash then runs
    on uint64 arrays of the run-index words, with one element per cell: its
    hash constants depend only on word positions, so they are the same for
    every cell.  The run indices must share one 32-bit word count, as every
    index below 2**32 does.
    """
    import numpy as np

    runs = np.array(run_indices, dtype=object)  # Python ints of any size
    width = len(uint32_words(runs.max()))
    if len(uint32_words(runs.min())) != width:
        raise ValueError("run indices must share one 32-bit word count")
    words = [((runs >> 32 * k) & 0xFFFFFFFF).astype(np.uint64) for k in range(width)]
    # PCG64 seeding in Python ints, over all cells at once
    state, inc = pcg64_seed(*(
        word.astype(object)
        for word in seed_sequence_words(words, _detuning_pool(seed, detuning_index))
    ))
    return list(zip(state.tolist(), inc.tolist()))


def _set_cell_state(generator: np.random.Generator, state: int, inc: int) -> None:
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


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
    import numpy as np

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
    import numpy as np

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
    light = coherent_pulse(cfg.photons_per_pulse, cfg.pulse_duration_s, "x")

    cells = len(cfg.detunings_hz) * cfg.runs_per_point
    plain = cells * (cfg.pulses_per_sample + 12) <= _PLAIN_SCAN_WORK
    run_means = (_plain_run_means if plain else _numpy_run_means)(
        cfg, atoms_template.mean_j[2], [cp.g for cp in couplings], light.n_photons, dm, det, tr
    )
    points = [
        _scan_point(detuning, values, cfg.pulses_per_sample)
        for detuning, values in zip(cfg.detunings_hz, run_means)
    ]
    return ScanDataset(points=tuple(points), seed=cfg.seed)


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

    The draws are _numpy_run_means', from rng.NormalStream, and each pulse
    is computed with _pulse_kernel's operations in the same order, so the
    values are equal bit for bit.
    """
    sigma = math.sqrt(n_photons + det.electronic_noise_var)
    keep = 1.0 - dm.per_pulse_decay
    t_h, t_v = tr.t_h, tr.t_v
    for d_index, g in enumerate(couplings_g):
        pool = _detuning_pool(cfg.seed, d_index)
        means = []
        for run_index in range(cfg.runs_per_point):
            state = pcg64_seed(*seed_sequence_words(uint32_words(run_index), pool))
            normal = NormalStream(pcg64_state=state).standard_normal
            factor = 1.0
            if cfg.atom_number_spread > 0.0:
                factor = max(0.0, 1.0 + cfg.atom_number_spread * normal())
            j_z = j_z_template * factor
            total = -0.0  # -0.0 + x is x, as cumsum starts from the first angle
            for _ in range(cfg.pulses_per_sample):
                delta = g * j_z * n_photons * t_h * t_v + sigma * normal()
                total += extract_angle(delta, n_photons, tr)
                j_z *= keep
            means.append(total / cfg.pulses_per_sample)
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
    whole scan, and one _pulse_kernel call probes a detuning's runs.

    One generator serves the scan, so numpy is imported once per scan;
    each detuning's arrays are still alive when the next one's are
    allocated, so the C allocator reuses their memory instead of handing it
    back to the system and faulting it in again (10 ms of a 15 x 40 x 1000
    scan when each detuning ran in a function call of its own).
    """
    import numpy as np

    generator = np.random.Generator(np.random.PCG64(0))
    n_runs, n_pulses = cfg.runs_per_point, cfg.pulses_per_sample
    for d_index, g in enumerate(couplings_g):
        j_z0 = []
        noise = np.empty((n_runs, n_pulses))
        # each run draws from its own cell stream, in the order a fresh
        # generator would: the atom-number normal, then the pulse noise
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
            n_pulses, np.array(j_z0), g, n_photons, dm.per_pulse_decay, det, tr, noise
        )
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
