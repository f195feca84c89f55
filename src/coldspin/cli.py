"""Command-line front end.

Subcommands: scan, fit, budget, decay, tof, pulse.  One table, _COMMANDS,
declares each subcommand: its help, whether it takes a simulate|fit mode,
and each of its flags with the one config key the flag overrides, --seed
among them for the four commands that draw.  _parse, build_parser and
_run_command all read it.  A run and a replay differ only in their front
end: a run resolves its config from the packaged defaults, the --config
file and the flags, and a replay (a command given only `--manifest PATH`)
takes the one its manifest records.  Each checks it once (_check_config),
with the keys _added says a run adds, the seed among them.  One tail,
_execute, then checks, before any work, that the files touched are
distinct, that no path is empty or holds a NUL and that each file written
is no directory and lies in one that exists (_check_paths), builds the
AtomSpec from the atomic constants (a run first inlines the file atom_data
names, or the packaged 87Rb D2 one), runs the command's runner, the module
of its name in coldspin.runners imported only now (_runner), which formats
every output to bytes and opens no file, and digests each output (SHA-256).
A run then writes its outputs and, last, a manifest recording the command,
version, seed, the resolved config with the constants inlined and the
digests; a replay writes its outputs only when every digest matches the
record, so any (config, seed) pair is reproducible byte for byte.
_write_files, the one place coldspin opens a file for writing, has one
caller, so a run or a replay that fails writes nothing.

Exit codes: 0 success, 2 configuration or usage error, 3 numeric failure
(fit non-convergence, near-resonance guard, replay digest mismatch).

A runner has no error handling of its own: it makes each library call
through runners._keyed, which turns a failure into an error naming the
dotted config keys the call reads, with their values, so every exit 2 or 3
a config value causes names its key.  A command loads only the modules it
calls: each runner imports its library modules when it runs, and no module
imports another for an annotation or a constant.  main parses a
well-formed command line (a command, its mode, then exact options, each
with its value) straight from the table (_parse), and hands any other,
--help, --version and every usage error among them, to the parser
build_parser makes from the table in coldspin.parser, the one module that
imports argparse and one no run loads, so help, usage and error text are
argparse's own.  Outputs are digested with CPython's built-in SHA-256
module rather than hashlib, which loads OpenSSL, and JSON is read and
written on CPython's _json accelerator rather than json, whose regular
expressions load re and enum (jsonio).  No command imports numpy: the
decay, expansion and pulse simulations take all their draws up front, none
without noise, as plain numbers from rng's copy of numpy's normal stream
seeded with the section's seed (runners._normals), and a scan draws two
numbers a run from the same copy, so every command and its replay runs on
the standard library alone.
"""

from __future__ import annotations

import math
import os
import sys

from . import __version__, csvio
from .atomic_data import default_atom_document, load_atom_spec
from .errors import FitError, NearResonanceError, ValidationError
from .frozen import Frozen
from .jsonio import decode_nonfinite, format_json as _write_json, read_json
from .runners import _keyed, _scan_curve_path

# bench/tracing.py times CSV reading and CSV and JSON formatting under these
# names, and rebinds every coldspin module that holds the same objects
_write_rows_csv, _read_rows_csv = csvio.format_table, csvio.read_table

_SQRT_8LN2 = 2.0 * math.sqrt(2.0 * math.log(2.0))

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
# replayed config also records the seed a run adds (_added)
_NULLABLE = {
    "seed": "integer",
    "atom_data": "string",
    "scan.detunings_hz": "array",
    "budget.theta_rad": "number",
    "budget.photons_per_pulse": "number",
}


def _count(low: int) -> tuple:
    return lambda v: low <= v <= csvio.MAX_ARRAY_SIZE, f"be in [{low}, {csvio.MAX_ARRAY_SIZE}]"


_MODES = ("simulate", "fit")
_POSITIVE = (lambda v: v > 0, "be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "be >= 0")
_FINITE = (math.isfinite, "be finite")

# The range of each key beyond its JSON type, as (test, what the value
# must be); a key without a row takes any value of its type but NaN, and
# a null default's null always passes.  The library's constructors check
# the rest (ScanConfig, DetectorSpec, TrapPopulationParams, ...).
_RULES = {
    "threads": (lambda v: v >= 1, "be >= 1"),
    "mode": (lambda v: v in _MODES, "be simulate or fit"),
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


# the JSON type of each Python type read_json returns (bool is not int here)
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
    """Recursive dict merge, section by section, into new dicts;
    _check_config then checks the keys and values."""
    merged = {**base, **override}
    for key, value in base.items():
        if isinstance(value, dict) and isinstance(merged[key], dict):
            merged[key] = _merge_config(value, override.get(key, {}))
    return merged


def _resolve_config(config_path: str | None) -> dict:
    return _merge_config(_DEFAULT_CONFIG, {} if config_path is None else read_json(config_path))


# ------------------------------------------------------------- file I/O


def _sha256(data: bytes) -> str:
    # CPython's own SHA-256, as random takes its _sha512: hashlib loads
    # OpenSSL, ~4 ms of a run.  A build without the module falls back to it.
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256(data).hexdigest()


def _write_files(files: dict) -> None:
    """Write each file's bytes, in order: the outputs, then a run's manifest.
    The one place coldspin opens a file for writing, called by one line of
    _run_command, for a run and a replay, once every output is digested."""
    for path, data in files.items():
        with open(path, "wb") as handle:
            handle.write(data)


def _check_paths(command: str, cfg: dict, config_path: str | None, manifest_path: str,
                 recorded) -> None:
    """Reject a run, before any work, unless every file it touches is a
    distinct file whose path is neither empty nor holds a NUL character,
    and every file it writes is no directory and lies in a directory that
    exists: the --config file, the atom data, the --in file, the outputs
    (--out, a scan's curve file and those a replayed manifest records) and
    the manifest.  A file that exists is known by its device and inode, so a
    symlink or a hard link to another of them is that file; any other path
    by its symlinks resolved."""
    outputs = {cfg["out"], *recorded}
    if command == "scan":
        outputs.add(_scan_curve_path(cfg["out"]))
    files = [("config", config_path), ("atom data", cfg["atom_data"]), ("input", cfg.get("in")),
             *[("output", path) for path in sorted(outputs)], ("manifest", manifest_path)]
    named = {}
    for role, path in [file for file in files if file[1] is not None]:  # skip inputs not given
        if not path:  # open('') fails only after the work, naming no file
            raise ValidationError(f"the {role} path is empty")
        if "\0" in path:  # the OS refuses such a path with a ValueError
            raise ValidationError(f"the {role} {path!r} holds a NUL character")
        real = os.path.realpath(path)
        if role in ("output", "manifest"):
            if os.path.isdir(path):
                raise ValidationError(f"the {role} {path!r} is a directory")
            if not os.path.isdir(os.path.dirname(real)):
                raise ValidationError(f"the directory of the {role} {path!r} does not exist")
        try:
            status = os.stat(path)
            key = (status.st_dev, status.st_ino)
        except OSError:
            key = real
        if key in named:
            raise ValidationError(f"the {named[key]} and the {role} {path!r} are one file")
        named[key] = f"{role} {path!r}"


# ------------------------------------------------------------- commands


class _Flag(Frozen):
    option: str
    key: str  # the config key the flag overrides, dotted below a section
    help: str
    type: type | None = float
    choices: tuple | None = None
    switch: bool | None = None  # a switch takes no value and stores this one

    @property
    def dest(self) -> str:  # the name argparse parses the flag's value to
        return self.option[2:].replace("-", "_")


class _Command(Frozen):
    help: str
    modes: bool  # takes a simulate|fit mode
    input_help: str | None  # help of --in; None when the command reads no file
    flags: tuple[_Flag, ...] = ()


# the options every command takes, each a path, before its --in and flags:
# option -> help; each parses to the option's name
_COMMON_OPTIONS = {
    "--config": "JSON configuration file",
    "--out": "primary output file",
    "--manifest": "manifest path; given alone, replay that manifest and verify digests",
}

_COMMANDS = {
    "scan": _Command("synthesize a detuning scan CSV", False, None, (
        _Flag("--seed", "scan.seed", "override the RNG seed", int),
        _Flag("--atoms", "ensemble.n_atoms", "override ensemble.n_atoms"),
        _Flag("--threads", "threads", "validated and recorded in the manifest; scans "
              "run single-threaded and the value changes no output", int),
    )),
    "fit": _Command("fit column density to a scan CSV", False, "scan CSV to fit", (
        _Flag("--unweighted", "fit.weighted", "ignore per-point spreads in the fit",
              switch=False),
        _Flag("--sigma-source", "fit.sigma_source", "which reported spread weights the fit",
              None, ("stddev", "stderr")),
    )),
    "budget": _Command("photon budget for a target variance ratio", False, None, (
        _Flag("--a", "budget.a", "atomic-to-shot variance ratio"),
        _Flag("--atoms", "budget.n_atoms", "atom number"),
        _Flag("--theta", "budget.theta_rad", "single-pass rotation angle (rad)"),
        _Flag("--photons-per-pulse", "budget.photons_per_pulse", "also report the pulse count"),
    )),
    "decay": _Command("trap-population decay (simulate or fit)", True, "decay CSV to fit", (
        _Flag("--seed", "decay.seed", "override the RNG seed", int),
    )),
    "tof": _Command("ballistic expansion (simulate or fit)", True, "expansion CSV to fit", (
        _Flag("--seed", "tof.seed", "override the RNG seed", int),
    )),
    "pulse": _Command("emit a single balanced-detection waveform", False, None, (
        _Flag("--seed", "pulse.seed", "override the RNG seed", int),
        _Flag("--theta", "pulse.theta_rad", "rotation angle (rad)"),
        _Flag("--photons", "pulse.n_photons", "photons in the pulse"),
        _Flag("--noisy", "pulse.noisy", "add shot and electronic noise to the imbalance",
              switch=True),
    )),
}


def _runner(command: str):
    """The run function of the command's module in coldspin.runners,
    imported only now, so that a command compiles no other command's
    runner; through __import__, as importlib would load warnings."""
    return __import__(f"{__package__}.runners.{command}", fromlist=("run",)).run


def _added(command: str, cfg: dict, mode: str | None) -> dict:
    """The keys a run adds to its checked config cfg, which a replayed one
    holds too: its section's seed (null for fit and budget, which draw no
    random numbers), then, as strings (a number would open that
    descriptor), its mode and the files it reads, if any, and writes."""
    row = _COMMANDS[command]
    added = {"seed": cfg[command].get("seed")}
    if row.modes:
        added["mode"] = ""
    if row.input_help and mode != "simulate":
        added["in"] = ""
    return added | {"out": ""}


def _execute(command: str, cfg: dict, config_path, manifest_path: str, recorded) -> tuple:
    """A run's or a replay's outputs and their digests, by path, before
    either writes; a run inlines its atom constants only past the paths."""
    _check_paths(command, cfg, config_path, manifest_path, recorded)
    key = "atom_constants"  # the key an error names: a replay's manifest records them
    if key not in cfg:  # a run's, from the file atom_data names, else the packaged one
        key = "atom_data"
        cfg["atom_constants"] = (default_atom_document() if cfg["atom_data"] is None
                                 else read_json(cfg["atom_data"]))
    spec = _keyed(cfg, (key,), load_atom_spec, cfg["atom_constants"])
    outputs = _runner(command)(cfg, spec)
    return outputs, {path: _sha256(data) for path, data in outputs.items()}


def _replay(command: str, manifest_path: str) -> dict | None:
    """A replay's outputs, once every digest matches the record, else None
    after reporting the mismatch.  Each error names the manifest once; its
    config is checked as a run's and holds the seed a run records."""
    document = read_json(manifest_path)
    for key in ("command", "version", "config", "outputs", "seed"):
        if key not in document:
            raise ValidationError(f"{manifest_path} is missing manifest key {key!r}")
    if document["command"] != command:
        raise ValidationError(
            f"{manifest_path} records command {document['command']!r}, not {command!r}")
    try:
        document = decode_nonfinite(document)
        for key in ("config", "outputs"):
            if not isinstance(document[key], dict):
                raise ValidationError(f"manifest key {key!r} must be an object")
        cfg, recorded = document["config"], document["outputs"]
        constants = cfg.pop("atom_constants", None)  # load_atom_spec's to check, as for a run
        if not isinstance(constants, dict):
            raise ValidationError("config key 'atom_constants' must be a JSON object")
        mode = cfg.get("mode")
        # with a run's keys, the default config's seed typing the section's
        _check_config(cfg, {**_DEFAULT_CONFIG, **_added(command, _DEFAULT_CONFIG, mode)})
        seed = _added(command, cfg, mode)["seed"]
        for where, value in (("config", cfg["seed"]), ("manifest", document["seed"])):
            if (type(value), value) != (type(seed), seed):
                raise ValidationError(f"{where} key 'seed' must be {seed!r}, the seed a "
                                      f"{command} run records, got {value!r}")
        cfg["atom_constants"] = constants
        outputs, digests = _execute(command, cfg, None, manifest_path, recorded)
    except (ValidationError, NearResonanceError, FitError, ArithmeticError) as exc:
        raise type(exc)(f"{manifest_path}: {exc}") from exc
    if digests == recorded:
        return outputs
    for path in sorted(set(recorded) | set(digests)):
        same = recorded.get(path, "missing") == digests.get(path, "missing")
        print(f"{'ok' if same else 'MISMATCH'}: {path}", file=sys.stderr)
    if document["version"] != __version__:
        print(f"the manifest was written by coldspin {document['version']}, "
              f"this is coldspin {__version__}", file=sys.stderr)
    print(f"replay of {manifest_path} did not reproduce outputs", file=sys.stderr)
    return None


def _run_command(args: dict) -> int:
    command = args["command"]
    row = _COMMANDS[command]
    for role in ("config", "manifest"):  # the paths read before _check_paths runs
        if args[role] == "":
            raise ValidationError(f"the {role} path is empty")
    if {dest for dest, value in args.items() if value is not None} == {"command", "manifest"}:
        outputs = _replay(command, args["manifest"])
        if outputs is None:
            return 3
        verb, manifest = "reproduced", {}
    else:
        mode = args.get("mode")
        if row.modes and mode is None:
            raise ValidationError(
                f"{command} needs a mode (simulate or fit), or --manifest alone to replay")
        # flag values are merged and checked as --config values are
        overrides: dict = {}
        for flag in row.flags:
            value = args[flag.dest]
            if value is not None:
                section, _, key = flag.key.rpartition(".")
                target = overrides.setdefault(section, {}) if section else overrides
                target[key] = value if flag.switch is None else flag.switch
        cfg = _check_config(_merge_config(_resolve_config(args["config"]), overrides))
        given = {"mode": mode, "in": args.get("in_path"), "out": args["out"]}
        cfg |= {key: given.get(key, value) for key, value in _added(command, cfg, mode).items()}
        if cfg.get("in", "") is None:
            raise ValidationError("--in is required to fit (or replay with --manifest only)")
        if cfg["out"] is None:
            raise ValidationError("--out is required (or replay with --manifest only)")
        path = cfg["out"] + ".manifest.json" if args["manifest"] is None else args["manifest"]
        outputs, digests = _execute(command, cfg, args["config"], path, ())
        verb, manifest = "wrote", {path: _write_json({
            "command": command, "version": __version__, "seed": cfg["seed"], "config": cfg,
            "outputs": digests})}
    _write_files({**outputs, **manifest})
    for path in [*sorted(outputs), *manifest]:
        print(f"{verb} {path}")
    return 0


def _parse(argv) -> dict | None:
    """What vars(build_parser().parse_args(argv)) returns, for a well-formed
    command line: a command, then its mode if it takes one, then exact
    options, each but a switch followed by a value that does not begin
    with "-".  Any other argv returns None, for argparse to parse: --help,
    --version, an abbreviation, --opt=value, a value beginning with "-", a
    mode after an option, and every usage error."""
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None:
        return None
    # option -> (name it parses to, type, choices, switch), in the
    # subparser's order, which is the order of argparse's values
    options = {option: (option[2:], None, None, None) for option in _COMMON_OPTIONS}
    if row.input_help:
        options["--in"] = ("in_path", None, None, None)
    for flag in row.flags:
        options[flag.option] = (flag.dest, flag.type, flag.choices, flag.switch)
    args = {"command": argv[0]}
    rest = list(argv[1:])
    if row.modes:
        args["mode"] = rest.pop(0) if rest and rest[0] in _MODES else None
    args |= dict.fromkeys(dest for dest, *_ in options.values())
    tokens = iter(rest)
    for option in tokens:
        if option not in options:
            return None
        dest, kind, choices, switch = options[option]
        if switch is not None:
            args[dest] = True
            continue
        value = next(tokens, "-")  # a missing value is argparse's error to print
        if value.startswith("-"):
            return None
        try:
            args[dest] = value if kind is None else kind(value)
        except ValueError:
            return None
        if choices and args[dest] not in choices:
            return None
    return args


def build_parser():
    """The argparse parser of every command.  main parses with it only the
    command lines _parse leaves, so it prints the help, the version and
    every usage error."""
    from .parser import build_parser

    return build_parser(_COMMANDS, _COMMON_OPTIONS, _MODES, __version__)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
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
