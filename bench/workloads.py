"""Workload definitions and the correctness gate of the coldspin benchmark.

A workload is a fixed sequence of `coldspin` commands (one "pass"), run in
a fresh directory with relative paths, so that every pass of a run writes
byte-identical files, manifests included.  Each command names the files it
writes and the check its outputs must pass.  The checks use only the
standard library and the generating parameters; none of them calls into
coldspin, so they stay independent of the code under test.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Generating values of the packaged defaults (src/coldspin/cli.py).
N_ATOMS = 1.0e6
COLUMN_DENSITY_M2 = 2.65e14  # n_atoms / interaction_area_m2
DETUNING_START_HZ = -2.3e9
DETUNING_STOP_HZ = -0.8e9
N_DETUNINGS = 15
PER_PULSE_DECAY = 1.0e-4
CURVE_SAMPLES = 200
# tau_s is left out: over a 90 s record of a 1500 s lifetime it separates
# from beta only through curvature, and its estimate is skewed far beyond
# its reported sigma on about one seed in 500.
DECAY_TRUTH = {"n0": 1.2e6, "beta_m3_per_s": 8.0e-20}
DECAY_TIMES = 46
TOF_TEMPERATURE_K = 25.0e-6
TOF_SIGMA0_M = 8.5e-6
TOF_NOISE_M = 1.5e-6
TOF_TIMES = 8
RB87_MASS_KG = 1.4431606e-25
BOLTZMANN_J_PER_K = 1.380649e-23
BUDGET_THETA = 0.0268
BUDGET_PHOTONS_PER_PULSE = 4.3e6

# A correct program passes a 5-sigma recovery bound on all but ~1e-6 of
# seeds, so a failed bound is a defect, not bad luck.
RECOVERY_SIGMAS = 5.0


@dataclass(frozen=True)
class ScanShape:
    detunings: int
    runs: int
    pulses: int
    threads: int

    @property
    def cells(self) -> int:
        return self.detunings * self.runs

    @property
    def total_pulses(self) -> int:
        return self.cells * self.pulses


@dataclass(frozen=True)
class Command:
    """One coldspin invocation of a pass.

    label names the command within the pass; argv follows `coldspin`;
    outputs are the files it writes (relative to the pass directory);
    check names the content check; scan marks a command that simulates a
    scan of the workload's shape (replays included).
    """

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: str
    scan: bool = False
    replay: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    shape: ScanShape
    commands: tuple[Command, ...]
    config: dict = field(default_factory=dict)
    # fewest passes a run makes, whatever its length
    min_passes: int = 1
    # the machine-speed references its commands are scaled by (speed.py):
    # the kinds of work their wall time is made of
    references: tuple[str, ...] = ("startup", "compute")

    def prepare(self, pass_dir: Path) -> None:
        """Write the pass's config file, if it has one."""
        if self.config:
            (pass_dir / "shape.json").write_text(json.dumps(self.config), "utf-8")

    @property
    def pulses_per_pass(self) -> int:
        return sum(self.shape.total_pulses for c in self.commands if c.scan)

    @property
    def cells_per_pass(self) -> int:
        return sum(self.shape.cells for c in self.commands if c.scan)


def _scan_outputs(stem: str) -> tuple[str, ...]:
    return (f"{stem}.csv", f"{stem}_curve.csv", f"{stem}.csv.manifest.json")


def _session(seed: int) -> Workload:
    s = str(seed)
    commands = (
        Command("scan", ("scan", "--seed", s, "--out", "scan.csv"),
                _scan_outputs("scan"), "scan", scan=True),
        Command("fit", ("fit", "--in", "scan.csv", "--out", "fit.json"),
                ("fit.json", "fit.json.manifest.json"), "fit"),
        Command("budget", ("budget", "--theta", repr(BUDGET_THETA),
                           "--photons-per-pulse", repr(BUDGET_PHOTONS_PER_PULSE),
                           "--out", "budget.json"),
                ("budget.json", "budget.json.manifest.json"), "budget"),
        Command("decay-simulate", ("decay", "simulate", "--seed", s, "--out", "decay.csv"),
                ("decay.csv", "decay.csv.manifest.json"), "decay-simulate"),
        Command("decay-fit", ("decay", "fit", "--in", "decay.csv", "--out", "decay_fit.json"),
                ("decay_fit.json", "decay_fit.json.manifest.json"), "decay-fit"),
        Command("tof-simulate", ("tof", "simulate", "--seed", s, "--out", "tof.csv"),
                ("tof.csv", "tof.csv.manifest.json"), "tof-simulate"),
        Command("tof-fit", ("tof", "fit", "--in", "tof.csv", "--out", "tof_fit.json"),
                ("tof_fit.json", "tof_fit.json.manifest.json"), "tof-fit"),
        Command("pulse", ("pulse", "--noisy", "--seed", s, "--out", "pulse.csv"),
                ("pulse.csv", "pulse.csv.manifest.json"), "pulse"),
        Command("replay-scan", ("scan", "--manifest", "scan.csv.manifest.json"),
                _scan_outputs("scan")[:2], "replay", scan=True, replay=True),
        Command("replay-decay-fit", ("decay", "--manifest", "decay_fit.json.manifest.json"),
                ("decay_fit.json",), "replay", replay=True),
    )
    # four passes give 40 command samples, ten of them beyond the p75 tail
    return Workload("cli-session", ScanShape(N_DETUNINGS, 40, 10, 1), commands,
                    min_passes=4, references=("startup",))


def _scan_only(name: str, shape: ScanShape, seed: int) -> Workload:
    config = {"scan": {"runs_per_point": shape.runs, "pulses_per_sample": shape.pulses}}
    argv = ("scan", "--config", "shape.json", "--seed", str(seed),
            "--threads", str(shape.threads), "--out", "scan.csv")
    command = Command("scan", argv, _scan_outputs("scan"), "scan", scan=True)
    return Workload(name, shape, (command,), config=config)


def build(name: str, seed: int) -> Workload:
    """The workload `name` with its inputs derived from the benchmark seed."""
    program_seed = seed % 2**32  # coldspin seeds are non-negative
    if name == "cli-session":
        return _session(program_seed)
    if name == "scan-long":
        return _scan_only(name, ScanShape(N_DETUNINGS, 40, 1000, 1), program_seed)
    if name == "scan-wide":
        return _scan_only(name, ScanShape(N_DETUNINGS, 400, 10, 2), program_seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cli-session", "scan-long", "scan-wide")


# ----------------------------------------------------------------- checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path, header: tuple[str, ...]) -> list[list[float]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        if tuple(next(reader, ())) != header:
            raise ValueError(f"{path.name}: unexpected header")
        rows = [[float(x) for x in row] for row in reader if row]
    if not all(math.isfinite(x) for row in rows for x in row):
        raise ValueError(f"{path.name}: non-finite value")
    return rows


def _within(name: str, value: float, sigma: float, truth: float) -> list[str]:
    if not (math.isfinite(value) and sigma > 0 and math.isfinite(sigma)):
        return [f"{name} = {value!r} +- {sigma!r} is not a finite estimate"]
    pull = (value - truth) / sigma
    if abs(pull) > RECOVERY_SIGMAS:
        return [f"{name} = {value:.6g} is {pull:+.1f} sigma from {truth:.6g}"]
    return []


def _mean_destruction(pulses: int) -> float:
    """Mean of (1 - eps)^k over k = 0..P-1: the train-averaged signal."""
    return -math.expm1(pulses * math.log1p(-PER_PULSE_DECAY)) / (pulses * PER_PULSE_DECAY)


def _interp(x: float, xs: list[float], ys: list[float]) -> float:
    hi = min(max(bisect.bisect_right(xs, x), 1), len(xs) - 1)
    t = (x - xs[hi - 1]) / (xs[hi] - xs[hi - 1])
    return ys[hi - 1] + t * (ys[hi] - ys[hi - 1])


def _check_scan(pass_dir: Path, shape: ScanShape) -> list[str]:
    rows = _rows(pass_dir / "scan.csv", ("detuning_hz", "theta_mean_rad", "theta_stderr_rad",
                                         "theta_stddev_rad", "n_runs", "n_pulses"))
    curve = _rows(pass_dir / "scan_curve.csv", ("detuning_hz", "theta_model_rad"))
    problems = []
    if len(rows) != shape.detunings or len(curve) != CURVE_SAMPLES:
        return [f"scan has {len(rows)} rows and {len(curve)} curve rows"]
    step = (DETUNING_STOP_HZ - DETUNING_START_HZ) / (shape.detunings - 1)
    for i, (det, _, stderr, stddev, runs, pulses) in enumerate(rows):
        if abs(det - (DETUNING_START_HZ + i * step)) > 1e-9 * abs(det):
            problems.append(f"row {i}: detuning {det!r} off the scan grid")
        if (runs, pulses) != (shape.runs, shape.pulses):
            problems.append(f"row {i}: n_runs, n_pulses = {runs}, {pulses}")
        if not (stddev > 0 and abs(stderr - stddev / math.sqrt(runs)) <= 1e-9 * stderr):
            problems.append(f"row {i}: spreads {stderr!r}, {stddev!r} inconsistent")
    if problems:
        return problems
    # Weighted ratio of the simulated means to the noiseless model curve;
    # probe destruction lowers the train-averaged signal by its mean factor.
    xs = [r[0] for r in curve]
    ys = [r[1] for r in curve]
    sw = swm = 0.0
    for det, mean, stderr, *_ in rows:
        model = _interp(det, xs, ys)
        w = 1.0 / stderr**2
        sw += w * model * model
        swm += w * model * mean
    return _within("scan signal / model", swm / sw, sw**-0.5, _mean_destruction(shape.pulses))


def _fit_document(path: Path) -> dict:
    document = json.loads(path.read_text("utf-8"))
    if not document.get("converged"):
        raise ValueError(f"{path.name}: fit did not converge")
    return document


def _check_fit(pass_dir: Path) -> list[str]:
    fit = _fit_document(pass_dir / "fit.json")
    key = "column_density_m2"
    return _within(key, fit["params"][key], fit["sigmas"][key], COLUMN_DENSITY_M2)


def _check_decay_fit(pass_dir: Path) -> list[str]:
    fit = _fit_document(pass_dir / "decay_fit.json")
    problems = []
    for key, truth in DECAY_TRUTH.items():
        problems += _within(key, fit["params"][key], fit["sigmas"][key], truth)
    return problems


def _tof_temperature_sigma(times: list[float]) -> float:
    """Spread of the fitted temperature that the generating noise causes.

    The fit's own sigma rests on 6 residual degrees of freedom and
    understates the spread, so the bound uses the first-order propagation
    of the known radius noise through the straight-line fit of sigma^2
    against t^2: d(sigma^2) = 2 sigma d(sigma).
    """
    kb_over_m = BOLTZMANN_J_PER_K / RB87_MASS_KG
    x = [t * t for t in times]
    x_mean = sum(x) / len(x)
    s_xx = sum((xi - x_mean) ** 2 for xi in x)
    noise = [2.0 * math.sqrt(TOF_SIGMA0_M**2 + kb_over_m * TOF_TEMPERATURE_K * xi) * TOF_NOISE_M
             for xi in x]
    slope_sigma = math.sqrt(sum(((xi - x_mean) * ni) ** 2 for xi, ni in zip(x, noise))) / s_xx
    return slope_sigma / kb_over_m


def _check_tof_fit(pass_dir: Path) -> list[str]:
    fit = _fit_document(pass_dir / "tof_fit.json")
    times = [row[0] for row in _rows(pass_dir / "tof.csv", ("time_s", "sigma_m"))]
    key = "temperature_k"
    return _within(key, fit["params"][key], _tof_temperature_sigma(times), TOF_TEMPERATURE_K)


def _check_budget(pass_dir: Path) -> list[str]:
    document = json.loads((pass_dir / "budget.json").read_text("utf-8"))
    total = N_ATOMS / BUDGET_THETA**2
    expected = {"photons_total": total, "n_pulses": total / BUDGET_PHOTONS_PER_PULSE}
    return [
        f"{key} = {document.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if not abs(document.get(key, math.nan) - value) <= 1e-12 * value
    ]


def _check_rows(path: Path, header: tuple[str, ...], count: int) -> list[str]:
    rows = _rows(path, header)
    if len(rows) != count or any(r[1] <= 0 for r in rows):
        return [f"{path.name}: {len(rows)} rows, expected {count} with positive values"]
    return []


def _check_pulse(pass_dir: Path) -> list[str]:
    rows = _rows(pass_dir / "pulse.csv", ("sample_index", "value"))
    if not rows or [int(r[0]) for r in rows] != list(range(len(rows))):
        return ["pulse.csv: sample indices are not 0..n-1"]
    return []


def check(command: Command, pass_dir: Path, shape: ScanShape, stdout: str) -> list[str]:
    """Problems with a command's outputs; empty when they are correct."""
    try:
        if command.check == "scan":
            return _check_scan(pass_dir, shape)
        if command.check == "fit":
            return _check_fit(pass_dir)
        if command.check == "decay-fit":
            return _check_decay_fit(pass_dir)
        if command.check == "tof-fit":
            return _check_tof_fit(pass_dir)
        if command.check == "budget":
            return _check_budget(pass_dir)
        if command.check == "decay-simulate":
            return _check_rows(pass_dir / "decay.csv",
                               ("time_s", "atom_count", "count_sigma"), DECAY_TIMES)
        if command.check == "tof-simulate":
            return _check_rows(pass_dir / "tof.csv", ("time_s", "sigma_m"), TOF_TIMES)
        if command.check == "pulse":
            return _check_pulse(pass_dir)
        if command.check == "replay":
            missing = [o for o in command.outputs if f"reproduced {o}" not in stdout]
            return [f"replay did not verify {', '.join(missing)}"] if missing else []
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{command.label}: unreadable output: {exc}"]
    raise ValueError(f"unknown check {command.check!r}")
