"""Command-line front end.

Subcommands: scan, fit, budget, decay, tof, pulse.  One table,
_COMMANDS, declares each subcommand: its help, the config section whose
seed --seed sets, whether it takes a simulate|fit mode, and each of its
flags with the one config key the flag overrides.  build_parser and
_run_command both read it.  Every run resolves a full configuration
(packaged defaults, then the --config file, then the flags, merged with
the same type checks), executes, and writes a manifest recording the
command, tool version, seed, the fully resolved config with atomic
constants inlined, and a SHA-256 digest of every output file.
Re-invoking a command with only `--manifest PATH` replays that run from
the stored config and verifies the digests, so any (config, seed) pair is
reproducible byte-for-byte.

Exit codes: 0 success, 2 configuration or usage error, 3 numeric failure
(fit non-convergence, near-resonance guard, replay digest mismatch).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    FitResult,
    compute_od,
    fit_column_density,
    fit_tof_temperature,
    fit_two_body_decay,
    photon_budget,
)
from .atomic_data import default_atom_document, load_atom_spec
# bench/tracing.py times the CSV table I/O under these names
from .csvio import read_table as _read_rows_csv, write_table as _write_rows_csv
from .detector import (
    MAX_ARRAY_SIZE,
    DetectorSpec,
    TransmissionSpec,
    simulate_pulse_detection,
    synthesize_waveform,
    write_pulse_csv,
)
from .ensemble import (
    TrapPopulationParams,
    effective_two_body_volume,
    evolve_trap_population,
    tof_radius,
)
from .errors import FitError, NearResonanceError, ValidationError
from .experiment import (
    DestructionModel,
    ScanConfig,
    read_scan_csv,
    run_detuning_scan,
    write_scan_csv,
)
from .jsonio import decode_nonfinite, read_json, write_json
from .spin_optics import coherent_spin_state, rotation_cross_section

_SQRT_8LN2 = 2.0 * math.sqrt(2.0 * math.log(2.0))
CURVE_SAMPLES = 200
CURVE_CSV_COLUMNS = {"detuning_hz": float, "theta_model_rad": float}
DECAY_CSV_COLUMNS = {"time_s": float, "atom_count": float, "count_sigma": float}
TOF_CSV_COLUMNS = {"time_s": float, "sigma_m": float}

# Fully resolved fallback configuration. A --config file overrides
# section-by-section; flags override the file. The numbers are the
# benchmark operating point the package is validated against: 1e6 atoms
# probed 1.5 GHz to the red, a 1.2e6-atom cloud of 8.5 mm x 20 um FWHM
# decaying over 90 s, and 25 uK ballistic expansion out to 4 ms.
_DEFAULT_CONFIG = {
    "atom_data": None,
    "convention": "physical",
    "guard_linewidths": 10.0,
    "threads": 1,
    "ensemble": {
        "n_atoms": 1.0e6,
        # chosen so n_atoms/area is exactly 2.65e14 m^-2
        "interaction_area_m2": 1.0e6 / 2.65e14,
        "polarization": 1,
    },
    "scan": {
        "detunings_hz": None,
        "detuning_start_hz": -2.3e9,
        "detuning_stop_hz": -0.8e9,
        "n_detunings": 15,
        "photons_per_pulse": 4.0e6,
        "pulse_duration_s": 1.0e-6,
        "pulse_period_s": 2.0e-5,
        "pulses_per_sample": 10,
        "runs_per_point": 40,
        "atom_number_spread": 0.10,
        "seed": 20260816,
    },
    "detector": {
        "electronic_noise_var": 1.0e5,
        "calibration_factor": 1.0,
        "filter_sigma_s": 2.5e-7,
        "sample_rate_hz": 1.0e8,
    },
    "transmission": {"t_h": 1.0, "t_v": 1.0},
    "destruction": {"per_pulse_decay": 1.0e-4},
    "fit": {
        "weighted": True,
        "sigma_source": "stddev",
    },
    "budget": {
        "a": 1.0,
        "n_atoms": 1.0e6,
        "theta_rad": None,
        "photons_per_pulse": None,
    },
    "decay": {
        "n0": 1.2e6,
        "tau_s": 1500.0,
        "beta_m3_per_s": 8.0e-20,
        "sigma_z_m": 8.5e-3 / _SQRT_8LN2,
        "sigma_r_m": 20.0e-6 / _SQRT_8LN2,
        "temperature_k": 25.0e-6,
        "t_start_s": 0.0,
        "t_stop_s": 90.0,
        # beta and tau separate only through curvature of the decay, so
        # the lifetime/two-body split needs dense low-noise sampling: at
        # 0.2% counting noise and 2 s spacing the beta uncertainty is
        # about 2%, comfortably inside round-trip tolerances
        "n_times": 46,
        "noise_fraction": 0.002,
        "seed": 20260816,
    },
    "tof": {
        "sigma0_m": 8.5e-6,
        "temperature_k": 25.0e-6,
        "t_start_s": 0.5e-3,
        "t_stop_s": 4.0e-3,
        "n_times": 8,
        "noise_m": 1.5e-6,
        "seed": 20260816,
    },
    "pulse": {
        "theta_rad": 0.0268,
        "n_photons": 4.0e6,
        "pulse_duration_s": 1.0e-6,
        "noisy": False,
        "seed": 20260816,
    },
}


# ---------------------------------------------------------------- config


# keys whose default is null, with the JSON type of any other value
_NULLABLE = {
    "atom_data": "string",
    "scan.detunings_hz": "array",
    "budget.theta_rad": "number",
    "budget.photons_per_pulse": "number",
}


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    return {dict: "object", list: "array", str: "string"}[type(value)]


def _check_type(default, value, path: str) -> None:
    """Reject a config value whose JSON type differs from its default's:
    a number also takes an integer, a null default takes null or its
    _NULLABLE type, and a boolean is never a number."""
    expected = _NULLABLE[path] if default is None else _json_type(default)
    actual = _json_type(value)
    if actual == expected or (expected, actual) == ("number", "integer"):
        return
    if default is None and actual == "null":
        return
    raise ValidationError(f"config key {path!r} must be a JSON {expected}, got {value!r}")


def _merge_config(base: dict, override: dict, context: str) -> dict:
    """Recursive dict merge that rejects keys the base does not define and
    values of the wrong JSON type, so configuration typos fail loudly
    instead of silently using defaults or failing mid-run."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ValidationError(f"unknown config key {context}{key!r}")
        _check_type(base[key], value, context + key)
        if isinstance(base[key], dict):
            merged[key] = _merge_config(base[key], value, f"{context}{key}.")
        else:
            merged[key] = value
    return merged


def _check_types(base: dict, cfg: dict, context: str) -> None:
    """_check_type over every key of cfg that base defines, recursively;
    other keys (a manifest's inlined atom constants, paths, mode) are the
    runner's to check."""
    for key, value in cfg.items():
        if key in base:
            _check_type(base[key], value, context + key)
            if isinstance(value, dict):
                _check_types(base[key], value, f"{context}{key}.")


def _resolve_config(config_path: str | None) -> dict:
    cfg = copy.deepcopy(_DEFAULT_CONFIG)
    if config_path is not None:
        cfg = _merge_config(cfg, read_json(config_path), "")
    return cfg


def _attach_atom_constants(cfg: dict) -> None:
    """Inline the atomic-constants document into the config, resolving
    COLDSPIN_ATOM_DATA over the config's atom_data path over the packaged
    file.  Replayed configs already carry the constants and skip this."""
    if "atom_constants" in cfg:
        return
    env_path = os.environ.get("COLDSPIN_ATOM_DATA")
    if env_path:
        cfg["atom_constants"] = read_json(env_path)
    elif cfg.get("atom_data"):
        cfg["atom_constants"] = read_json(cfg["atom_data"])
    else:
        cfg["atom_constants"] = default_atom_document()


# ------------------------------------------------------------- file I/O


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: str, document: dict) -> None:
    # one named function for every CLI JSON write: bench/tracing.py times it
    write_json(path, document)


def _write_manifest(path: str, command: str, cfg: dict, outputs: dict) -> None:
    _write_json(
        path,
        {
            "command": command,
            "version": __version__,
            "seed": cfg.get("seed"),
            "config": cfg,
            "outputs": outputs,
        },
    )


def _digest_map(paths) -> dict:
    return {path: _sha256(path) for path in paths}


# ------------------------------------------------------------- runners
#
# Each runner consumes a fully resolved config (atom constants inlined,
# output paths stored under "out") and returns the digest map of every
# file it wrote. Replay calls the same runner with the stored config.


def _scan_curve_path(out: str) -> str:
    stem, extension = os.path.splitext(out)
    return f"{stem}_curve{extension or '.csv'}"


def _scan_detunings(section: dict) -> list[float]:
    if section.get("detunings_hz") is not None:
        values = section["detunings_hz"]
        if not values or any(_json_type(v) not in ("number", "integer") for v in values):
            raise ValidationError("scan.detunings_hz must be a non-empty array of numbers")
        return [float(v) for v in values]
    n = section["n_detunings"]
    if not (isinstance(n, int) and not isinstance(n, bool) and 1 <= n <= MAX_ARRAY_SIZE):
        raise ValidationError(
            f"scan.n_detunings must be an int in [1, {MAX_ARRAY_SIZE}], got {n!r}"
        )
    if n == 1:
        return [float(section["detuning_start_hz"])]
    start = float(section["detuning_start_hz"])
    stop = float(section["detuning_stop_hz"])
    return [float(v) for v in np.linspace(start, stop, n)]


def _run_scan(cfg: dict) -> dict:
    spec = load_atom_spec(cfg["atom_constants"])
    ens = cfg["ensemble"]
    if ens["polarization"] not in (1, -1):
        raise ValidationError(
            f"ensemble.polarization must be 1 or -1, got {ens['polarization']!r}"
        )
    area = float(ens["interaction_area_m2"])
    if not area > 0:
        raise ValidationError(f"ensemble.interaction_area_m2 must be positive, got {area!r}")
    section = cfg["scan"]
    scan_cfg = ScanConfig(
        detunings_hz=tuple(_scan_detunings(section)),
        photons_per_pulse=float(section["photons_per_pulse"]),
        pulse_duration_s=float(section["pulse_duration_s"]),
        pulse_period_s=float(section["pulse_period_s"]),
        pulses_per_sample=section["pulses_per_sample"],
        runs_per_point=section["runs_per_point"],
        atom_number_spread=float(section["atom_number_spread"]),
        seed=section["seed"],
    )
    axis = "z" if ens["polarization"] == 1 else "-z"
    atoms = coherent_spin_state(float(ens["n_atoms"]), axis)
    det = DetectorSpec(**{k: float(v) for k, v in cfg["detector"].items()})
    tr = TransmissionSpec(**{k: float(v) for k, v in cfg["transmission"].items()})
    dm = DestructionModel(float(cfg["destruction"]["per_pulse_decay"]))
    threads = cfg["threads"]
    if not (isinstance(threads, int) and not isinstance(threads, bool) and threads >= 1):
        raise ValidationError(f"threads must be a positive int, got {threads!r}")
    dataset = run_detuning_scan(
        scan_cfg,
        atoms,
        spec,
        area,
        det,
        tr,
        dm,
        convention=cfg["convention"],
        guard_linewidths=float(cfg["guard_linewidths"]),
    )
    out = cfg["out"]
    write_scan_csv(dataset, out)

    # noiseless forward-model curve for plotting, theta = +/- n_c g~/2
    column_density = float(ens["n_atoms"]) / area * ens["polarization"]
    low = min(scan_cfg.detunings_hz)
    high = max(scan_cfg.detunings_hz)
    curve_rows = []
    for detuning in np.linspace(low, high, CURVE_SAMPLES):
        g_tilde = rotation_cross_section(
            float(detuning),
            spec,
            convention=cfg["convention"],
            guard_linewidths=float(cfg["guard_linewidths"]),
        )
        curve_rows.append((float(detuning), 0.5 * column_density * g_tilde))
    curve_path = _scan_curve_path(out)
    _write_rows_csv(curve_path, CURVE_CSV_COLUMNS, curve_rows)
    return _digest_map([out, curve_path])


def _run_fit(cfg: dict) -> dict:
    spec = load_atom_spec(cfg["atom_constants"])
    dataset = read_scan_csv(cfg["in"])
    section = cfg["fit"]
    fit = fit_column_density(
        dataset,
        spec,
        weighted=bool(section["weighted"]),
        sigma_source=section["sigma_source"],
        convention=cfg["convention"],
        guard_linewidths=float(cfg["guard_linewidths"]),
    )
    od, od_sigma = compute_od(fit, spec)
    merged = FitResult(
        params={**fit.params, "od": od},
        sigmas={**fit.sigmas, "od": od_sigma},
        chi2=fit.chi2,
        dof=fit.dof,
        converged=fit.converged,
    )
    out = cfg["out"]
    _write_json(out, merged.to_json_dict())
    return _digest_map([out])


def _run_budget(cfg: dict) -> dict:
    section = cfg["budget"]
    if section["theta_rad"] is None:
        raise ValidationError(
            "budget needs a rotation angle: pass --theta or set budget.theta_rad"
        )
    total = photon_budget(
        float(section["a"]), float(section["n_atoms"]), float(section["theta_rad"])
    )
    document = {
        "a": float(section["a"]),
        "n_atoms": float(section["n_atoms"]),
        "theta_rad": float(section["theta_rad"]),
        "photons_total": total,
    }
    if section["photons_per_pulse"] is not None:
        per_pulse = float(section["photons_per_pulse"])
        if not per_pulse > 0:
            raise ValidationError(
                f"budget.photons_per_pulse must be positive, got {per_pulse!r}"
            )
        document["photons_per_pulse"] = per_pulse
        document["n_pulses"] = total / per_pulse
    out = cfg["out"]
    _write_json(out, document)
    return _digest_map([out])


def _generator(cfg: dict, section: str) -> np.random.Generator:
    seed = cfg[section]["seed"]
    if seed < 0:
        raise ValidationError(f"{section}.seed must be >= 0, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def _times(section: dict, what: str) -> np.ndarray:
    n = section["n_times"]
    if not (isinstance(n, int) and not isinstance(n, bool) and 2 <= n <= MAX_ARRAY_SIZE):
        raise ValidationError(
            f"{what}.n_times must be an int in [2, {MAX_ARRAY_SIZE}], got {n!r}"
        )
    start = float(section["t_start_s"])
    stop = float(section["t_stop_s"])
    if not stop > start:
        raise ValidationError(f"{what}: t_stop_s must exceed t_start_s")
    return np.linspace(start, stop, n)


def _run_decay(cfg: dict) -> dict:
    section = cfg["decay"]
    params = TrapPopulationParams(
        n0=float(section["n0"]),
        tau_s=float(section["tau_s"]),
        beta_m3_per_s=float(section["beta_m3_per_s"]),
        sigma_z_m=float(section["sigma_z_m"]),
        sigma_r_m=float(section["sigma_r_m"]),
        temperature_k=float(section["temperature_k"]),
    )
    out = cfg["out"]
    if cfg["mode"] == "simulate":
        noise = float(section["noise_fraction"])
        if noise < 0:
            raise ValidationError(f"decay.noise_fraction must be >= 0, got {noise!r}")
        rng = _generator(cfg, "decay")
        rows = []
        for t in _times(section, "decay"):
            model = evolve_trap_population(params, float(t))
            count = model * (1.0 + noise * rng.standard_normal()) if noise else model
            sigma = noise * model if noise else 1.0
            rows.append((float(t), count, sigma))
        _write_rows_csv(out, DECAY_CSV_COLUMNS, rows)
        return _digest_map([out])
    samples = _read_rows_csv(cfg["in"], DECAY_CSV_COLUMNS)
    fit = fit_two_body_decay(samples, params.v_eff_m3)
    if not fit.converged:
        raise FitError("two-body decay fit did not converge")
    _write_json(out, fit.to_json_dict())
    return _digest_map([out])


def _run_tof(cfg: dict) -> dict:
    spec = load_atom_spec(cfg["atom_constants"])
    section = cfg["tof"]
    out = cfg["out"]
    if cfg["mode"] == "simulate":
        noise = float(section["noise_m"])
        if noise < 0:
            raise ValidationError(f"tof.noise_m must be >= 0, got {noise!r}")
        rng = _generator(cfg, "tof")
        rows = []
        for t in _times(section, "tof"):
            radius = tof_radius(
                float(section["sigma0_m"]),
                float(section["temperature_k"]),
                float(t),
                spec.mass_kg,
            )
            if noise:
                radius = abs(radius + noise * rng.standard_normal())
            rows.append((float(t), radius))
        _write_rows_csv(out, TOF_CSV_COLUMNS, rows)
        return _digest_map([out])
    samples = _read_rows_csv(cfg["in"], TOF_CSV_COLUMNS)
    fit = fit_tof_temperature(samples, spec.mass_kg)
    _write_json(out, fit.to_json_dict())
    return _digest_map([out])


def _run_pulse(cfg: dict) -> dict:
    section = cfg["pulse"]
    det = DetectorSpec(**{k: float(v) for k, v in cfg["detector"].items()})
    tr = TransmissionSpec(**{k: float(v) for k, v in cfg["transmission"].items()})
    stream = _generator(cfg, "pulse") if section["noisy"] else None
    delta = simulate_pulse_detection(
        float(section["theta_rad"]),
        float(section["n_photons"]),
        det,
        tr,
        noise_stream=stream,
    )
    record = synthesize_waveform(delta, det, float(section["pulse_duration_s"]))
    out = cfg["out"]
    write_pulse_csv(record, out)
    return _digest_map([out])


_RUNNERS = {
    "scan": _run_scan,
    "fit": _run_fit,
    "budget": _run_budget,
    "decay": _run_decay,
    "tof": _run_tof,
    "pulse": _run_pulse,
}


# ------------------------------------------------------------- commands


class _Flag(NamedTuple):
    option: str
    key: str  # the config key the flag overrides, dotted below a section
    help: str
    type: type | None = float
    choices: tuple | None = None
    switch: bool | None = None  # a switch takes no value and stores this one


class _Command(NamedTuple):
    help: str
    seeded: str | None  # section whose seed --seed sets; None records seed null
    modes: bool  # takes a simulate|fit mode
    input_help: str | None  # help of --in; None when the command reads no file
    flags: tuple[_Flag, ...] = ()


_COMMANDS = {
    "scan": _Command("synthesize a detuning scan CSV", "scan", False, None, (
        _Flag("--atoms", "ensemble.n_atoms", "override ensemble.n_atoms"),
        _Flag("--threads", "threads", "validated and recorded in the manifest; scans "
              "run single-threaded and the value changes no output", int),
    )),
    "fit": _Command("fit column density to a scan CSV", None, False, "scan CSV to fit", (
        _Flag("--unweighted", "fit.weighted", "ignore per-point spreads in the fit",
              switch=False),
        _Flag("--sigma-source", "fit.sigma_source", "which reported spread weights the fit",
              None, ("stddev", "stderr")),
    )),
    "budget": _Command("photon budget for a target variance ratio", None, False, None, (
        _Flag("--a", "budget.a", "atomic-to-shot variance ratio"),
        _Flag("--atoms", "budget.n_atoms", "atom number"),
        _Flag("--theta", "budget.theta_rad", "single-pass rotation angle (rad)"),
        _Flag("--photons-per-pulse", "budget.photons_per_pulse", "also report the pulse count"),
    )),
    "decay": _Command(
        "trap-population decay (simulate or fit)", "decay", True, "decay CSV to fit"
    ),
    "tof": _Command(
        "ballistic expansion (simulate or fit)", "tof", True, "expansion CSV to fit"
    ),
    "pulse": _Command("emit a single balanced-detection waveform", "pulse", False, None, (
        _Flag("--theta", "pulse.theta_rad", "rotation angle (rad)"),
        _Flag("--photons", "pulse.n_photons", "photons in the pulse"),
        _Flag("--noisy", "pulse.noisy", "add shot and electronic noise to the imbalance",
              switch=True),
    )),
}


def _replay(command: str, manifest_path: str) -> int:
    document = decode_nonfinite(read_json(manifest_path))
    for key in ("command", "config", "outputs"):
        if key not in document:
            raise ValidationError(f"{manifest_path} is missing manifest key {key!r}")
    if document["command"] != command:
        raise ValidationError(
            f"{manifest_path} records command {document['command']!r}, "
            f"not {command!r}"
        )
    cfg = document["config"]
    for key in ("config", "outputs"):
        if not isinstance(document[key], dict):
            raise ValidationError(f"{manifest_path}: manifest key {key!r} must be an object")
    if "atom_constants" not in cfg:
        raise ValidationError(f"{manifest_path} config lacks atom_constants")
    try:
        _check_types(_DEFAULT_CONFIG, cfg, "")
        for key in ("out", "in"):  # a number would open that file descriptor
            if key in cfg:
                _check_type("", cfg[key], key)
    except ValidationError as exc:
        raise ValidationError(f"{manifest_path}: {exc}") from exc
    try:
        outputs = _RUNNERS[command](cfg)
    except KeyError as exc:
        raise ValidationError(
            f"{manifest_path} config is missing key {exc.args[0]!r}"
        ) from exc
    recorded = document["outputs"]
    if outputs != recorded:
        for path in sorted(set(recorded) | set(outputs)):
            old = recorded.get(path, "missing")
            new = outputs.get(path, "missing")
            marker = "ok" if old == new else "MISMATCH"
            print(f"{marker}: {path}", file=sys.stderr)
        print(f"replay of {manifest_path} did not reproduce outputs", file=sys.stderr)
        return 3
    for path in sorted(outputs):
        print(f"reproduced {path}")
    return 0


def _run_command(args) -> int:
    command = args.command
    row = _COMMANDS[command]
    given = {dest for dest, value in vars(args).items() if value is not None}
    if given == {"command", "manifest"}:
        return _replay(command, args.manifest)
    mode = getattr(args, "mode", None)
    if row.modes and mode is None:
        raise ValidationError(
            f"{command} needs a mode (simulate or fit), or --manifest alone to replay"
        )

    # flag values take the typed merge that --config values take
    overrides: dict = {}
    for flag in row.flags:
        value = getattr(args, flag.option[2:].replace("-", "_"))
        if value is not None:
            section, _, key = flag.key.rpartition(".")
            target = overrides.setdefault(section, {}) if section else overrides
            target[key] = value if flag.switch is None else flag.switch
    if row.seeded and args.seed is not None:
        overrides.setdefault(row.seeded, {})["seed"] = args.seed
    cfg = _merge_config(_resolve_config(args.config), overrides, "")
    # fit and budget draw no random numbers, so record no seed
    cfg["seed"] = cfg[row.seeded]["seed"] if row.seeded else None
    if row.modes:
        cfg["mode"] = mode
    if row.input_help and mode in (None, "fit"):  # simulate modes read no file
        if args.in_path is None:
            raise ValidationError("--in is required to fit (or replay with --manifest only)")
        cfg["in"] = args.in_path
    if args.out is None:
        raise ValidationError("--out is required (or replay with --manifest only)")
    cfg["out"] = args.out
    _attach_atom_constants(cfg)

    outputs = _RUNNERS[command](cfg)
    manifest_path = args.manifest or cfg["out"] + ".manifest.json"
    _write_manifest(manifest_path, command, cfg, outputs)
    for path in sorted(outputs):
        print(f"wrote {path}")
    print(f"wrote {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldspin",
        description="Faraday-rotation probe simulator and analysis tools",
    )
    parser.add_argument("--version", action="version", version=f"coldspin {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, row in _COMMANDS.items():
        sub = commands.add_parser(name, help=row.help)
        if row.modes:
            sub.add_argument("mode", nargs="?", choices=("simulate", "fit"))
        sub.add_argument("--config", metavar="PATH", help="JSON configuration file")
        sub.add_argument("--seed", type=int, metavar="INT", help="override the RNG seed")
        sub.add_argument("--out", metavar="PATH", help="primary output file")
        sub.add_argument(
            "--manifest",
            metavar="PATH",
            help="manifest path; given alone, replay that manifest and verify digests",
        )
        if row.input_help:
            sub.add_argument("--in", dest="in_path", metavar="PATH", help=row.input_help)
        for flag in row.flags:
            if flag.switch is None:
                sub.add_argument(flag.option, type=flag.type, choices=flag.choices,
                                 help=flag.help)
            else:
                sub.add_argument(flag.option, action="store_const", const=True,
                                 help=flag.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NearResonanceError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
