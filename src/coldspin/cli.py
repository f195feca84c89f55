"""Command-line front end.

Subcommands: scan, fit, budget, decay, tof, pulse.  One table,
_COMMANDS, declares each subcommand: its help and runner, the config
section whose seed --seed sets, whether it takes a simulate|fit mode, and
each of its flags with the one config key the flag overrides.
build_parser and _run_command both read it.  Every run resolves a full
configuration (packaged defaults, then the --config file, then the
flags), checks it once (_check_config), executes, and writes a manifest
recording the command, tool version, seed, the fully resolved config with
atomic constants inlined, and a SHA-256 digest of every output file.  The
constants come from one place: the JSON file the config key atom_data
names, or the packaged 87Rb D2 file when it is null.
Re-invoking a command with only `--manifest PATH` replays that run from
the stored config and verifies the digests, so any (config, seed) pair is
reproducible byte-for-byte.

Exit codes: 0 success, 2 configuration or usage error, 3 numeric failure
(fit non-convergence, near-resonance guard, replay digest mismatch).

A runner has no error handling of its own: it makes each library call
through _keyed, which turns a failure into an error naming the dotted
config keys the call reads, with their values, so every exit 2 or 3 a
config value causes names its key.  Each runner imports the library modules
it uses when it runs, and no command imports numpy: the decay, expansion
and pulse simulations take all their draws up front, none without noise,
as plain numbers from rng's copy of numpy's normal stream seeded with
the section's seed (_normals), and a scan draws two numbers a run from
the same copy, so every command and its replay runs on the standard
library alone.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import math
import operator
import os
import sys
from collections.abc import Callable

from . import __version__
from .atomic_data import default_atom_document, load_atom_spec
# bench/tracing.py times the CSV table I/O under these names
from .csvio import read_table as _read_rows_csv, write_table as _write_rows_csv
from .detector import MAX_ARRAY_SIZE
from .errors import FitError, NearResonanceError, ValidationError
from .frozen import Frozen
from .jsonio import decode_nonfinite, read_json, write_json

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


# keys whose default is null, with the JSON type of any other value; a
# replayed config also records the seed _run_command adds
_NULLABLE = {
    "seed": "integer",
    "atom_data": "string",
    "scan.detunings_hz": "array",
    "budget.theta_rad": "number",
    "budget.photons_per_pulse": "number",
}


def _count(low: int) -> tuple:
    return lambda v: low <= v <= MAX_ARRAY_SIZE, f"be in [{low}, {MAX_ARRAY_SIZE}]"


_POSITIVE = (lambda v: v > 0, "be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "be >= 0")
_FINITE = (math.isfinite, "be finite")

# The range of each key beyond its JSON type, as (test, what the value
# must be); a key without a row takes any value of its type but NaN, and
# a null default's null always passes.  The library's constructors check
# the rest (ScanConfig, DetectorSpec, TrapPopulationParams, ...).
_RULES = {
    "threads": (lambda v: v >= 1, "be >= 1"),
    "mode": (lambda v: v in ("simulate", "fit"), "be simulate or fit"),
    "ensemble.polarization": (lambda v: v in (1, -1), "be 1 or -1"),
    "ensemble.interaction_area_m2": _POSITIVE,
    "scan.detunings_hz": (bool, "be a non-empty array"),
    "scan.n_detunings": _count(1),
    "scan.seed": _NON_NEGATIVE,
    "budget.photons_per_pulse": _POSITIVE,
    "decay.t_start_s": _FINITE,
    "decay.t_stop_s": _FINITE,
    "decay.n_times": _count(2),
    "decay.noise_fraction": _NON_NEGATIVE,
    "decay.seed": _NON_NEGATIVE,
    "tof.t_start_s": _FINITE,
    "tof.t_stop_s": _FINITE,
    "tof.n_times": _count(2),
    "tof.noise_m": _NON_NEGATIVE,
    "tof.seed": _NON_NEGATIVE,
    "pulse.seed": _NON_NEGATIVE,
}


# ---------------------------------------------------------------- config


# the JSON type of each Python type json.load returns (bool is not int here)
_JSON_TYPES = {type(None): "null", bool: "boolean", int: "integer", float: "number",
               str: "string", list: "array", dict: "object"}


def _check_config(value, default=_DEFAULT_CONFIG, path: str = ""):
    """The one check of a config value against its default, recursively:
    an object holds exactly the keys of its default, each value has its
    default's JSON type (a null default takes null or its _NULLABLE type,
    an array holds numbers, a boolean is never a number), a number is never
    NaN, and _RULES bounds it.  Returns the value with an integer given for
    a number as a float; objects are typed in place."""
    expected = _NULLABLE[path] if default is None else _JSON_TYPES[type(default)]
    actual = _JSON_TYPES[type(value)]
    if default is None and actual == "null":
        return value
    if (expected, actual) == ("number", "integer"):
        try:
            value, actual = float(value), "number"
        except OverflowError:
            raise ValidationError(
                f"config key {path!r} must fit a float, got an integer beyond 1.8e308"
            ) from None
    if actual != expected:
        raise ValidationError(f"config key {path!r} must be a JSON {expected}, got {value!r}")
    if actual == "number" and math.isnan(value):
        raise ValidationError(f"config key {path!r} must not be NaN")
    if actual == "array":
        value = [_check_config(item, 0.0, f"{path}[{i}]") for i, item in enumerate(value)]
    if actual == "object":
        for key in {**value, **default}:  # every key of either, the value's first
            key_path = f"{path}.{key}" if path else key
            if key not in default:
                raise ValidationError(f"unknown config key {key_path!r}")
            if key not in value:
                raise ValidationError(f"config key {key_path!r} is missing")
            value[key] = _check_config(value[key], default[key], key_path)
    test, must = _RULES.get(path, (None, None))
    if test and not test(value):
        raise ValidationError(f"config key {path!r} must {must}, got {value!r}")
    return value


def _merge_config(base: dict, override: dict) -> dict:
    """Recursive dict merge, section by section; _check_config then checks
    the keys and values."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(base.get(key), dict) and isinstance(value, dict):
            merged[key] = _merge_config(base[key], value)
        else:
            merged[key] = value
    return merged


def _resolve_config(config_path: str | None) -> dict:
    cfg = copy.deepcopy(_DEFAULT_CONFIG)
    if config_path is not None:
        cfg = _merge_config(cfg, read_json(config_path))
    return cfg


def _attach_atom_constants(cfg: dict) -> None:
    """Inline the atomic-constants document into the config: the file the
    config's atom_data key names, else the packaged one.  Replayed configs
    already carry the constants."""
    if cfg["atom_data"]:
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


def _check_paths(cfg: dict, manifest_path: str, outputs=()) -> None:
    """Reject a run whose input, outputs (cfg["out"] and any others the
    runner returned) and manifest are not distinct files, so that none
    overwrites another."""
    files = [("input", cfg["in"])] if "in" in cfg else []
    files += [("output", path) for path in sorted({cfg["out"], *outputs})]
    named = {}
    for role, path in [*files, ("manifest", manifest_path)]:
        real = os.path.realpath(path)
        if real in named:
            raise ValidationError(f"the {named[real]} and the {role} {path!r} are one file")
        named[real] = f"{role} {path!r}"


# ------------------------------------------------------------- runners
#
# Each runner consumes a fully resolved, checked config (atom constants
# inlined, output paths stored under "out") and returns the digest map of
# every file it wrote. Replay calls the same runner with the stored config.
# A runner imports its library names when it runs, from the modules that
# bench/tracing.py rebinds, so a traced run sees them, and calls each
# through _keyed with the config keys the call reads.


def _key_values(cfg: dict, keys: tuple) -> str:
    """The config keys with their values, as an error names them: a dotted
    key, a top-level one, or a section's name for each key of the section."""
    values = []
    for key in keys:
        if isinstance(cfg.get(key), dict):
            values += [f"{key}.{name} = {value!r}" for name, value in cfg[key].items()]
        else:
            section, _, name = key.rpartition(".")
            values.append(f"{key} = {(cfg[section] if section else cfg)[name]!r}")
    return ", ".join(values)


def _keyed(cfg: dict, keys: tuple, function, *args, what: str | None = None, **kwargs):
    """function(*args, **kwargs) for a runner, the one place where a
    library failure turns into an error that names the config keys the
    call reads (see _key_values), with their values.  A ValidationError,
    NearResonanceError, FitError or ArithmeticError keeps its type and
    text, with the keys appended; where what names the computed value, an
    OverflowError, or a float result that is not finite, is reported as
    that value exceeding the float range."""
    try:
        result = function(*args, **kwargs)
        if what and isinstance(result, float) and not math.isfinite(result):
            raise OverflowError
    except (ValidationError, NearResonanceError, FitError, ArithmeticError) as exc:
        at = f"at {_key_values(cfg, keys)}"
        if what and isinstance(exc, OverflowError):
            raise OverflowError(f"{what} exceeds the float range {at}") from None
        raise type(exc)(f"{exc} {at}") from None
    return result


def _scan_curve_path(out: str) -> str:
    stem, extension = os.path.splitext(out)
    return f"{stem}_curve{extension or '.csv'}"


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num).tolist() for num >= 2, bit for bit."""
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # a subnormal span: numpy scales before multiplying (gh-5437)
        points = [(i / div) * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _scan_detunings(section: dict) -> list[float]:
    if section["detunings_hz"] is not None:
        return section["detunings_hz"]
    if section["n_detunings"] == 1:
        return [section["detuning_start_hz"]]
    return _linspace(
        section["detuning_start_hz"], section["detuning_stop_hz"], section["n_detunings"]
    )


def _run_scan(cfg: dict) -> dict:
    from .detector import DetectorSpec, TransmissionSpec
    from .experiment import DestructionModel, ScanConfig, run_detuning_scan
    from .scandata import write_scan_csv
    from .spin_optics import coherent_spin_state, rotation_cross_section

    spec = load_atom_spec(cfg["atom_constants"])
    ens = cfg["ensemble"]
    section = cfg["scan"]
    scan_cfg = _keyed(
        cfg, ("scan",), ScanConfig,
        detunings_hz=tuple(_scan_detunings(section)),
        photons_per_pulse=section["photons_per_pulse"],
        pulses_per_sample=section["pulses_per_sample"],
        runs_per_point=section["runs_per_point"],
        atom_number_spread=section["atom_number_spread"],
        seed=section["seed"],
    )
    axis = "z" if ens["polarization"] == 1 else "-z"
    atoms = _keyed(cfg, ("ensemble.n_atoms",), coherent_spin_state, ens["n_atoms"], axis,
                   what="the spin state's norm")
    dataset = _keyed(
        cfg, ("scan", "ensemble", "detector", "transmission", "destruction",
              "guard_linewidths"),
        run_detuning_scan,
        scan_cfg,
        atoms,
        spec,
        ens["interaction_area_m2"],
        _keyed(cfg, ("detector",), DetectorSpec, **cfg["detector"]),
        _keyed(cfg, ("transmission",), TransmissionSpec, **cfg["transmission"]),
        _keyed(cfg, ("destruction",), DestructionModel, **cfg["destruction"]),
        guard_linewidths=cfg["guard_linewidths"],
    )
    out = cfg["out"]
    write_scan_csv(dataset, out)

    # noiseless forward-model curve for plotting, theta = +/- n_c g~/2
    column_density = ens["n_atoms"] / ens["interaction_area_m2"] * ens["polarization"]
    low = min(scan_cfg.detunings_hz)
    high = max(scan_cfg.detunings_hz)
    curve_keys = ("scan", "ensemble", "guard_linewidths")
    curve_rows = []
    for detuning in _linspace(low, high, CURVE_SAMPLES):
        g_tilde = _keyed(cfg, curve_keys, rotation_cross_section, detuning, spec,
                         guard_linewidths=cfg["guard_linewidths"])
        curve_rows.append((detuning, 0.5 * column_density * g_tilde))
    curve_path = _scan_curve_path(out)
    _keyed(cfg, curve_keys, _write_rows_csv, curve_path, CURVE_CSV_COLUMNS, curve_rows)
    return _digest_map([out, curve_path])


def _run_fit(cfg: dict) -> dict:
    from .analysis import FitResult, compute_od, fit_column_density
    from .scandata import read_scan_csv

    spec = load_atom_spec(cfg["atom_constants"])
    dataset = read_scan_csv(cfg["in"])
    section = cfg["fit"]
    fit = _keyed(
        cfg, ("fit", "guard_linewidths"),
        fit_column_density,
        dataset,
        spec,
        weighted=section["weighted"],
        sigma_source=section["sigma_source"],
        guard_linewidths=cfg["guard_linewidths"],
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
    from .analysis import photon_budget

    section = cfg["budget"]
    if section["theta_rad"] is None:
        raise ValidationError(
            "budget needs a rotation angle: pass --theta or set budget.theta_rad"
        )
    document = {key: section[key] for key in ("a", "n_atoms", "theta_rad")}
    total = _keyed(cfg, ("budget",), photon_budget, **document,
                   what="photons_total = a * n_atoms / theta_rad**2")
    document["photons_total"] = total
    if section["photons_per_pulse"] is not None:
        document["photons_per_pulse"] = section["photons_per_pulse"]
        document["n_pulses"] = _keyed(
            cfg, ("budget",), operator.truediv, total, section["photons_per_pulse"],
            what="n_pulses = photons_total / photons_per_pulse",
        )
    out = cfg["out"]
    _write_json(out, document)
    return _digest_map([out])


def _normals(cfg: dict, section: str, count: int) -> list[float]:
    """The first count draws of the section's normal stream: those of
    numpy's Generator, PCG64 seeded with the section's seed, frozen in
    rng."""
    from .rng import normal_draws, seeded_state

    return normal_draws(*seeded_state(cfg[section]["seed"]), count)[0]


def _times(section: dict) -> list[float]:
    if not section["t_stop_s"] > section["t_start_s"]:
        raise ValidationError("t_stop_s must exceed t_start_s")
    return _linspace(section["t_start_s"], section["t_stop_s"], section["n_times"])


def _fit_decay(samples: list, v_eff_m3: float):
    from .analysis import fit_two_body_decay

    fit = fit_two_body_decay(samples, v_eff_m3)
    if not fit.converged:
        raise FitError("two-body decay fit did not converge")
    return fit


def _run_decay(cfg: dict) -> dict:
    from .ensemble import TrapPopulationParams, evolve_trap_population

    section = cfg["decay"]
    params = _keyed(
        cfg, ("decay",), TrapPopulationParams,
        n0=section["n0"],
        tau_s=section["tau_s"],
        beta_m3_per_s=section["beta_m3_per_s"],
        sigma_z_m=section["sigma_z_m"],
        sigma_r_m=section["sigma_r_m"],
        what="the two-body volume",
    )
    out = cfg["out"]
    if cfg["mode"] == "simulate":
        noise = section["noise_fraction"]
        times = _keyed(cfg, ("decay.t_start_s", "decay.t_stop_s"), _times, section)
        rows = []
        normals = _normals(cfg, "decay", len(times)) if noise else [0.0] * len(times)
        for t, normal in zip(times, normals):
            model = _keyed(cfg, ("decay",), evolve_trap_population, params, t,
                           what=f"the atom count at t = {t!r} s")
            if noise:
                rows.append((t, model * (1.0 + noise * normal), noise * model))
            else:
                rows.append((t, model, 1.0))
        _keyed(cfg, ("decay",), _write_rows_csv, out, DECAY_CSV_COLUMNS, rows)
        return _digest_map([out])
    samples = _read_rows_csv(cfg["in"], DECAY_CSV_COLUMNS)
    fit = _keyed(cfg, ("decay.sigma_z_m", "decay.sigma_r_m"), _fit_decay, samples,
                 params.v_eff_m3)
    _write_json(out, fit.to_json_dict())
    return _digest_map([out])


def _run_tof(cfg: dict) -> dict:
    from .ensemble import tof_radius

    spec = load_atom_spec(cfg["atom_constants"])
    section = cfg["tof"]
    out = cfg["out"]
    if cfg["mode"] == "simulate":
        noise = section["noise_m"]
        times = _keyed(cfg, ("tof.t_start_s", "tof.t_stop_s"), _times, section)
        rows = []
        normals = _normals(cfg, "tof", len(times)) if noise else [0.0] * len(times)
        for t, normal in zip(times, normals):
            radius = _keyed(cfg, ("tof",), tof_radius, section["sigma0_m"],
                            section["temperature_k"], t, spec.mass_kg,
                            what=f"the cloud radius at t = {t!r} s")
            rows.append((t, abs(radius + noise * normal) if noise else radius))
        _keyed(cfg, ("tof",), _write_rows_csv, out, TOF_CSV_COLUMNS, rows)
        return _digest_map([out])
    from .analysis import fit_tof_temperature

    samples = _read_rows_csv(cfg["in"], TOF_CSV_COLUMNS)
    fit = fit_tof_temperature(samples, spec.mass_kg)
    _write_json(out, fit.to_json_dict())
    return _digest_map([out])


def _run_pulse(cfg: dict) -> dict:
    from .detector import (
        DetectorSpec,
        TransmissionSpec,
        simulate_pulse_detection,
        synthesize_waveform,
        write_pulse_csv,
    )

    section = cfg["pulse"]
    keys = ("pulse", "detector", "transmission")
    det = _keyed(cfg, ("detector",), DetectorSpec, **cfg["detector"])
    delta = _keyed(
        cfg, keys,
        simulate_pulse_detection,
        section["theta_rad"],
        section["n_photons"],
        det,
        _keyed(cfg, ("transmission",), TransmissionSpec, **cfg["transmission"]),
        _normals(cfg, "pulse", 1)[0] if section["noisy"] else None,
        what="the imbalance",
    )
    record = _keyed(cfg, keys, synthesize_waveform, delta, det, section["pulse_duration_s"])
    out = cfg["out"]
    _keyed(cfg, keys, write_pulse_csv, record, out)
    return _digest_map([out])


# ------------------------------------------------------------- commands


class _Flag(Frozen):
    option: str
    key: str  # the config key the flag overrides, dotted below a section
    help: str
    type: type | None = float
    choices: tuple | None = None
    switch: bool | None = None  # a switch takes no value and stores this one


class _Command(Frozen):
    help: str
    runner: Callable[[dict], dict]  # runs a resolved config, returns its output digests
    seeded: str | None  # section whose seed --seed sets; None records seed null
    modes: bool  # takes a simulate|fit mode
    input_help: str | None  # help of --in; None when the command reads no file
    flags: tuple[_Flag, ...] = ()


_COMMANDS = {
    "scan": _Command("synthesize a detuning scan CSV", _run_scan, "scan", False, None, (
        _Flag("--atoms", "ensemble.n_atoms", "override ensemble.n_atoms"),
        _Flag("--threads", "threads", "validated and recorded in the manifest; scans "
              "run single-threaded and the value changes no output", int),
    )),
    "fit": _Command("fit column density to a scan CSV", _run_fit, None, False,
                    "scan CSV to fit", (
        _Flag("--unweighted", "fit.weighted", "ignore per-point spreads in the fit",
              switch=False),
        _Flag("--sigma-source", "fit.sigma_source", "which reported spread weights the fit",
              None, ("stddev", "stderr")),
    )),
    "budget": _Command("photon budget for a target variance ratio", _run_budget, None,
                       False, None, (
        _Flag("--a", "budget.a", "atomic-to-shot variance ratio"),
        _Flag("--atoms", "budget.n_atoms", "atom number"),
        _Flag("--theta", "budget.theta_rad", "single-pass rotation angle (rad)"),
        _Flag("--photons-per-pulse", "budget.photons_per_pulse", "also report the pulse count"),
    )),
    "decay": _Command("trap-population decay (simulate or fit)", _run_decay, "decay", True,
                      "decay CSV to fit"),
    "tof": _Command("ballistic expansion (simulate or fit)", _run_tof, "tof", True,
                    "expansion CSV to fit"),
    "pulse": _Command("emit a single balanced-detection waveform", _run_pulse, "pulse",
                      False, None, (
        _Flag("--theta", "pulse.theta_rad", "rotation angle (rad)"),
        _Flag("--photons", "pulse.n_photons", "photons in the pulse"),
        _Flag("--noisy", "pulse.noisy", "add shot and electronic noise to the imbalance",
              switch=True),
    )),
}


def _replay(command: str, manifest_path: str) -> int:
    document = decode_nonfinite(read_json(manifest_path))
    for key in ("command", "version", "config", "outputs"):
        if key not in document:
            raise ValidationError(f"{manifest_path} is missing manifest key {key!r}")
    if document["command"] != command:
        raise ValidationError(
            f"{manifest_path} records command {document['command']!r}, "
            f"not {command!r}"
        )
    for key in ("config", "outputs"):
        if not isinstance(document[key], dict):
            raise ValidationError(f"{manifest_path}: manifest key {key!r} must be an object")
    cfg = document["config"]
    row = _COMMANDS[command]
    # the keys _run_command adds: a path must be a string, as a number would
    # open that descriptor.  The inlined atom constants are load_atom_spec's
    # to check, as it checks the atom data of a --config run.
    added = {"seed": None, "out": ""}
    if row.modes:
        added["mode"] = ""
    if row.input_help and cfg.get("mode") != "simulate":
        added["in"] = ""
    constants = cfg.pop("atom_constants", None)
    try:
        if not isinstance(constants, dict):
            raise ValidationError("config key 'atom_constants' must be a JSON object")
        _check_config(cfg, {**_DEFAULT_CONFIG, **added})
        _check_paths(cfg, manifest_path, document["outputs"])
    except ValidationError as exc:
        raise ValidationError(f"{manifest_path}: {exc}") from exc
    cfg["atom_constants"] = constants
    outputs = row.runner(cfg)
    recorded = document["outputs"]
    if outputs != recorded:
        for path in sorted(set(recorded) | set(outputs)):
            old = recorded.get(path, "missing")
            new = outputs.get(path, "missing")
            marker = "ok" if old == new else "MISMATCH"
            print(f"{marker}: {path}", file=sys.stderr)
        if document["version"] != __version__:
            print(f"the manifest was written by coldspin {document['version']}, "
                  f"this is coldspin {__version__}", file=sys.stderr)
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

    # flag values are merged and checked as --config values are
    overrides: dict = {}
    for flag in row.flags:
        value = getattr(args, flag.option[2:].replace("-", "_"))
        if value is not None:
            section, _, key = flag.key.rpartition(".")
            target = overrides.setdefault(section, {}) if section else overrides
            target[key] = value if flag.switch is None else flag.switch
    if row.seeded and args.seed is not None:
        overrides.setdefault(row.seeded, {})["seed"] = args.seed
    cfg = _check_config(_merge_config(_resolve_config(args.config), overrides))
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
    manifest_path = args.manifest or cfg["out"] + ".manifest.json"
    _check_paths(cfg, manifest_path)
    _attach_atom_constants(cfg)

    outputs = row.runner(cfg)
    _check_paths(cfg, manifest_path, outputs)  # a scan's curve file shows only now
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
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
