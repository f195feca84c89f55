"""Synthetic experiment orchestration: pulse trains and detuning scans.

A pulse train probes one prepared sample repeatedly, decaying the mean
pumped spin by a fixed fraction per pulse.  A detuning scan prepares
runs_per_point fresh samples at every detuning, probes each with
pulses_per_sample pulses, and aggregates per-point statistics the way the
measured datasets are reported: mean over runs, sample standard deviation
over runs, and standard error of that mean.

Each (detuning, run) cell is one array kernel: the per-pulse <J_z> is a
running product, and the pulse noise is one vector draw from the cell's
stream.  The kernel performs the same floating-point operations in the
same order as probing pulse by pulse, so its output is bit-identical to
that loop.

Randomness is fully deterministic: every (detuning index, run index) cell
draws from its own child stream derived from the scan seed, so results are
identical regardless of execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .atomic_data import AtomSpec
from .detector import DetectorSpec, TransmissionSpec, extract_angle
from .errors import NearResonanceError, ValidationError
from .spin_optics import (
    DEFAULT_GUARD_LINEWIDTHS,
    CollectiveSpinState,
    CouplingParams,
    StokesState,
    coherent_pulse,
    coupling_constant,
    detuning_factor,
)

SCAN_CSV_COLUMNS = (
    "detuning_hz",
    "theta_mean_rad",
    "theta_stderr_rad",
    "theta_stddev_rad",
    "n_runs",
    "n_pulses",
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
    list.
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
        if not (0.0 <= self.atom_number_spread and math.isfinite(self.atom_number_spread)):
            raise ValidationError(
                f"atom_number_spread must be >= 0, got {self.atom_number_spread!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class ScanPoint:
    """Aggregated statistics of one scan detuning."""

    detuning_hz: float
    theta_mean_rad: float
    theta_stderr_rad: float
    theta_stddev_rad: float
    n_runs: int
    n_pulses: int

    def __post_init__(self):
        if self.theta_stderr_rad < 0 or self.theta_stddev_rad < 0:
            raise ValidationError("scan point spreads must be >= 0")


@dataclass(frozen=True)
class ScanDataset:
    """One record per configured detuning, ordered by detuning."""

    points: tuple[ScanPoint, ...]
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("a scan dataset needs at least one point")


def child_stream(seed: int, detuning_index: int, run_index: int) -> np.random.Generator:
    """Independent generator for one (detuning, run) cell; the spawn-key
    construction is deterministic and schedule-independent."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(detuning_index, run_index))
    return np.random.Generator(np.random.PCG64(sequence))


def _pulse_kernel(
    n_pulses: int,
    j_z0: float,
    g: float,
    n_photons: float,
    per_pulse_decay: float,
    det: DetectorSpec,
    tr: TransmissionSpec,
    stream: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pulse train as arrays: <J_z> before each pulse plus the
    post-train value (n_pulses + 1 entries), the measured imbalances and
    the extracted angles.

    Every element is computed with the operations of the scalar chain
    faraday_angle -> simulate_pulse_detection -> extract_angle ->
    decay_mean_z, in the same order: cumprod multiplies sequentially, and
    one vector draw of n_pulses normals yields the same values as
    n_pulses scalar draws.
    """
    factors = np.full(n_pulses + 1, 1.0 - per_pulse_decay)
    factors[0] = j_z0
    j_z = np.cumprod(factors)
    delta = g * j_z[:-1] * n_photons * tr.t_h * tr.t_v
    if stream is not None:
        sigma = math.sqrt(n_photons + det.electronic_noise_var)
        delta = delta + sigma * stream.standard_normal(n_pulses)
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
    if not 0.0 <= dm.per_pulse_decay <= 1.0:
        raise ValidationError(
            f"per_pulse_decay must be in [0, 1], got {dm.per_pulse_decay!r}"
        )
    j_x, j_y, j_z0 = atoms.mean_j
    j_z, delta, theta_hat = _pulse_kernel(
        n_pulses, j_z0, cp.g, light_template.n_photons, dm.per_pulse_decay,
        det, tr, stream,
    )
    records = list(zip(range(n_pulses), delta.tolist(), theta_hat.tolist()))
    after = CollectiveSpinState((j_x, j_y, float(j_z[-1])), atoms.var_j, atoms.n_atoms)
    return records, after


def _scan_cell(
    cfg: ScanConfig,
    detuning_index: int,
    run_index: int,
    atoms_template: CollectiveSpinState,
    cp: CouplingParams,
    light: StokesState,
    dm: DestructionModel,
    det: DetectorSpec,
    tr: TransmissionSpec,
) -> float:
    """Mean extracted angle of one freshly prepared sample."""
    stream = child_stream(cfg.seed, detuning_index, run_index)
    factor = 1.0
    if cfg.atom_number_spread > 0.0:
        factor = max(0.0, 1.0 + cfg.atom_number_spread * float(stream.standard_normal()))
    _, _, theta_hat = _pulse_kernel(
        cfg.pulses_per_sample, atoms_template.mean_j[2] * factor, cp.g,
        light.n_photons, dm.per_pulse_decay, det, tr, stream,
    )
    # Python's sum, in pulse order, as the per-pulse loop summed
    return sum(theta_hat.tolist()) / cfg.pulses_per_sample


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
    the failure names the offending detuning).  Cells run one after another
    in (detuning, run) order, so the dataset depends only on its inputs
    and their seeds.
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

    run_means = [
        _scan_cell(
            cfg, d_index, run_index, atoms_template, couplings[d_index],
            light, dm, det, tr,
        )
        for d_index in range(len(cfg.detunings_hz))
        for run_index in range(cfg.runs_per_point)
    ]

    points = []
    for d_index, detuning in enumerate(cfg.detunings_hz):
        start = d_index * cfg.runs_per_point
        values = np.array(run_means[start : start + cfg.runs_per_point])
        mean = float(values.mean())
        if cfg.runs_per_point > 1:
            stddev = float(values.std(ddof=1))
        else:
            stddev = 0.0
        stderr = stddev / math.sqrt(cfg.runs_per_point)
        points.append(
            ScanPoint(
                detuning_hz=detuning,
                theta_mean_rad=mean,
                theta_stderr_rad=stderr,
                theta_stddev_rad=stddev,
                n_runs=cfg.runs_per_point,
                n_pulses=cfg.pulses_per_sample,
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


def write_scan_csv(dataset: ScanDataset, path) -> None:
    """Serialize a scan as CSV (12 significant digits, scientific)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SCAN_CSV_COLUMNS)
        for p in dataset.points:
            writer.writerow(
                [
                    f"{p.detuning_hz:.11e}",
                    f"{p.theta_mean_rad:.11e}",
                    f"{p.theta_stderr_rad:.11e}",
                    f"{p.theta_stddev_rad:.11e}",
                    p.n_runs,
                    p.n_pulses,
                ]
            )


def read_scan_csv(path) -> ScanDataset:
    """Parse a scan CSV back into a dataset; errors name the bad row."""
    points = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path} is empty")
        if tuple(header) != SCAN_CSV_COLUMNS:
            raise ValidationError(
                f"{path} header does not match the scan schema: {header!r}"
            )
        for row_number, row in enumerate(reader, start=2):
            if len(row) != len(SCAN_CSV_COLUMNS):
                raise ValidationError(
                    f"{path}: row {row_number} has {len(row)} fields, expected "
                    f"{len(SCAN_CSV_COLUMNS)}"
                )
            try:
                points.append(
                    ScanPoint(
                        detuning_hz=float(row[0]),
                        theta_mean_rad=float(row[1]),
                        theta_stderr_rad=float(row[2]),
                        theta_stddev_rad=float(row[3]),
                        n_runs=int(row[4]),
                        n_pulses=int(row[5]),
                    )
                )
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"{path}: malformed row {row_number}: {exc}") from exc
    if not points:
        raise ValidationError(f"{path} contains a header but no data rows")
    return ScanDataset(points=tuple(points))
