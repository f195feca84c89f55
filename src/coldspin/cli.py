"""Command-line front end.

Subcommands: scan, fit, budget, decay, tof, pulse.  Every run resolves a
full configuration (packaged defaults, then the --config file, then
overriding flags), executes, and writes a manifest recording the command,
tool version, seed, the fully resolved config with atomic constants
inlined, and a SHA-256 digest of every output file.  Re-invoking a command
with only `--manifest PATH` replays that run from the stored config and
verifies the digests, so any (config, seed) pair is reproducible
byte-for-byte.

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
from .detector import (
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


def _write_rows_csv(path: str, columns: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            handle.write(",".join(f"{value:.11e}" for value in row) + "\n")


def _read_rows_csv(path: str, columns: tuple[str, ...]) -> list[tuple[float, ...]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ValidationError(f"{path} is empty")
    if tuple(lines[0].split(",")) != columns:
        raise ValidationError(
            f"{path} row 1: expected header {','.join(columns)!r}, "
            f"got {lines[0]!r}"
        )
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ValidationError(
                f"{path} row {number}: expected {len(columns)} fields, "
                f"got {len(parts)}"
            )
        try:
            rows.append(tuple(float(part) for part in parts))
        except ValueError as exc:
            raise ValidationError(f"{path} row {number}: {exc}") from exc
    if not rows:
        raise ValidationError(f"{path} contains a header but no data rows")
    return rows


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
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
        raise ValidationError(f"scan.n_detunings must be a positive int, got {n!r}")
    if n == 1:
        return [float(section["detuning_start_hz"])]
    return [
        float(v)
        for v in np.linspace(
            section["detuning_start_hz"], section["detuning_stop_hz"], n
        )
    ]


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
    _write_rows_csv(curve_path, ("detuning_hz", "theta_model_rad"), curve_rows)
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


DECAY_CSV_COLUMNS = ("time_s", "atom_count", "count_sigma")
TOF_CSV_COLUMNS = ("time_s", "sigma_m")


def _times(section: dict, what: str) -> np.ndarray:
    n = section["n_times"]
    if not (isinstance(n, int) and not isinstance(n, bool) and n >= 2):
        raise ValidationError(f"{what}.n_times must be an int >= 2, got {n!r}")
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
        rng = np.random.Generator(np.random.PCG64(section["seed"]))
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
        rng = np.random.Generator(np.random.PCG64(section["seed"]))
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
    stream = (
        np.random.Generator(np.random.PCG64(section["seed"]))
        if section["noisy"]
        else None
    )
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


def _default_manifest_path(out: str) -> str:
    return out + ".manifest.json"


def _finish_run(command: str, cfg: dict, args) -> int:
    outputs = _RUNNERS[command](cfg)
    manifest_path = args.manifest or _default_manifest_path(cfg["out"])
    _write_manifest(manifest_path, command, cfg, outputs)
    for path in sorted(outputs):
        print(f"wrote {path}")
    print(f"wrote {manifest_path}")
    return 0


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


def _is_replay(args, fields: tuple[str, ...]) -> bool:
    if args.manifest is None:
        return False
    return all(getattr(args, field) is None for field in fields)


def _require_out(args) -> str:
    if args.out is None:
        raise ValidationError("--out is required (or replay with --manifest only)")
    return args.out


def _apply_seed(cfg: dict, section: str, args) -> None:
    if args.seed is not None:
        cfg[section]["seed"] = args.seed
    cfg["seed"] = cfg[section]["seed"]


def cmd_scan(args) -> int:
    if _is_replay(args, ("config", "seed", "out", "atoms", "threads")):
        return _replay("scan", args.manifest)
    cfg = _resolve_config(args.config)
    if args.atoms is not None:
        if args.atoms < 0:
            raise ValidationError(f"--atoms must be >= 0, got {args.atoms!r}")
        cfg["ensemble"]["n_atoms"] = args.atoms
    if args.threads is not None:
        cfg["threads"] = args.threads
    _apply_seed(cfg, "scan", args)
    _attach_atom_constants(cfg)
    cfg["out"] = _require_out(args)
    return _finish_run("scan", cfg, args)


def cmd_fit(args) -> int:
    if _is_replay(args, ("config", "seed", "out", "in_path", "sigma_source", "unweighted")):
        return _replay("fit", args.manifest)
    cfg = _resolve_config(args.config)
    if args.in_path is None:
        raise ValidationError("--in is required (or replay with --manifest only)")
    if args.unweighted:
        cfg["fit"]["weighted"] = False
    if args.sigma_source is not None:
        cfg["fit"]["sigma_source"] = args.sigma_source
    cfg["seed"] = None  # deterministic command, no randomness to seed
    _attach_atom_constants(cfg)
    cfg["in"] = args.in_path
    cfg["out"] = _require_out(args)
    return _finish_run("fit", cfg, args)


def cmd_budget(args) -> int:
    if _is_replay(args, ("config", "seed", "out", "a", "atoms", "theta", "photons_per_pulse")):
        return _replay("budget", args.manifest)
    cfg = _resolve_config(args.config)
    section = cfg["budget"]
    if args.a is not None:
        section["a"] = args.a
    if args.atoms is not None:
        section["n_atoms"] = args.atoms
    if args.theta is not None:
        section["theta_rad"] = args.theta
    if args.photons_per_pulse is not None:
        section["photons_per_pulse"] = args.photons_per_pulse
    cfg["seed"] = None
    _attach_atom_constants(cfg)
    cfg["out"] = _require_out(args)
    return _finish_run("budget", cfg, args)


def _cmd_decay_or_tof(command: str, args) -> int:
    if args.mode is None:
        if _is_replay(args, ("config", "seed", "out", "in_path")):
            return _replay(command, args.manifest)
        raise ValidationError(
            f"{command} needs a mode (simulate or fit), or --manifest alone to replay"
        )
    cfg = _resolve_config(args.config)
    cfg["mode"] = args.mode
    _apply_seed(cfg, command, args)
    _attach_atom_constants(cfg)
    if args.mode == "fit":
        if args.in_path is None:
            raise ValidationError(f"{command} fit requires --in")
        cfg["in"] = args.in_path
    cfg["out"] = _require_out(args)
    return _finish_run(command, cfg, args)


def cmd_decay(args) -> int:
    return _cmd_decay_or_tof("decay", args)


def cmd_tof(args) -> int:
    return _cmd_decay_or_tof("tof", args)


def cmd_pulse(args) -> int:
    if _is_replay(args, ("config", "seed", "out", "theta", "photons", "noisy")):
        return _replay("pulse", args.manifest)
    cfg = _resolve_config(args.config)
    section = cfg["pulse"]
    if args.theta is not None:
        section["theta_rad"] = args.theta
    if args.photons is not None:
        if not args.photons > 0:
            raise ValidationError(f"--photons must be positive, got {args.photons!r}")
        section["n_photons"] = args.photons
    if args.noisy:
        section["noisy"] = True
    _apply_seed(cfg, "pulse", args)
    _attach_atom_constants(cfg)
    cfg["out"] = _require_out(args)
    return _finish_run("pulse", cfg, args)


# -------------------------------------------------------------- parser


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON configuration file")
    parser.add_argument("--seed", type=int, metavar="INT", help="override the RNG seed")
    parser.add_argument("--out", metavar="PATH", help="primary output file")
    parser.add_argument(
        "--manifest",
        metavar="PATH",
        help="manifest path; given alone, replay that manifest and verify digests",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldspin",
        description="Faraday-rotation probe simulator and analysis tools",
    )
    parser.add_argument("--version", action="version", version=f"coldspin {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    scan = commands.add_parser("scan", help="synthesize a detuning scan CSV")
    _add_common_flags(scan)
    scan.add_argument("--atoms", type=float, help="override ensemble.n_atoms")
    scan.add_argument(
        "--threads",
        type=int,
        help="validated and recorded in the manifest; scans run single-threaded "
        "and the value changes no output",
    )
    scan.set_defaults(func=cmd_scan)

    fit = commands.add_parser("fit", help="fit column density to a scan CSV")
    _add_common_flags(fit)
    fit.add_argument("--in", dest="in_path", metavar="PATH", help="scan CSV to fit")
    fit.add_argument(
        "--unweighted",
        action="store_const",
        const=True,
        help="ignore per-point spreads in the fit",
    )
    fit.add_argument(
        "--sigma-source",
        choices=("stddev", "stderr"),
        help="which reported spread weights the fit",
    )
    fit.set_defaults(func=cmd_fit)

    budget = commands.add_parser("budget", help="photon budget for a target variance ratio")
    _add_common_flags(budget)
    budget.add_argument("--a", type=float, help="atomic-to-shot variance ratio")
    budget.add_argument("--atoms", type=float, help="atom number")
    budget.add_argument("--theta", type=float, help="single-pass rotation angle (rad)")
    budget.add_argument(
        "--photons-per-pulse", type=float, help="also report the pulse count"
    )
    budget.set_defaults(func=cmd_budget)

    decay = commands.add_parser("decay", help="trap-population decay (simulate or fit)")
    decay.add_argument("mode", nargs="?", choices=("simulate", "fit"))
    _add_common_flags(decay)
    decay.add_argument("--in", dest="in_path", metavar="PATH", help="decay CSV to fit")
    decay.set_defaults(func=cmd_decay)

    tof = commands.add_parser("tof", help="ballistic expansion (simulate or fit)")
    tof.add_argument("mode", nargs="?", choices=("simulate", "fit"))
    _add_common_flags(tof)
    tof.add_argument("--in", dest="in_path", metavar="PATH", help="expansion CSV to fit")
    tof.set_defaults(func=cmd_tof)

    pulse = commands.add_parser("pulse", help="emit a single balanced-detection waveform")
    _add_common_flags(pulse)
    pulse.add_argument("--theta", type=float, help="rotation angle (rad)")
    pulse.add_argument("--photons", type=float, help="photons in the pulse")
    pulse.add_argument(
        "--noisy",
        action="store_const",
        const=True,
        help="add shot and electronic noise to the imbalance",
    )
    pulse.set_defaults(func=cmd_pulse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NearResonanceError, FitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FloatingPointError, ZeroDivisionError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
