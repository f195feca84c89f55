"""coldspin: simulate and analyze single-pass Faraday-rotation probing of
a cold atomic ensemble.

The package forward-models the light-atom interface at the Gaussian-moment
level (means and variances of collective pseudo-spin and Stokes
components), simulates shot-noise-limited balanced detection of the probe
polarization, and provides the analysis chain that turns rotation-angle
scans into a column density and optical depth, photon budgets for
projection-noise-limited probing, and trap-characterization fits
(two-body loss, time of flight, dipole trap depth).
"""

__version__ = "0.20.0"

# The package loads lazily (PEP 562; Scientific Python SPEC 1): each public
# name is imported from the submodule that defines it on first access, so
# `import coldspin` loads no submodule and no numpy.
_EXPORTS = {
    "analysis": (
        "FitResult", "compute_od", "fit_column_density", "fit_result_from_json_dict",
        "fit_tof_temperature", "fit_two_body_decay", "snr_report",
    ),
    "atomic_data": (
        "AtomSpec", "TrapSpec", "default_atom_spec", "default_trap_spec", "load_atom_spec",
    ),
    "budget": ("photon_budget",),
    "detector": (
        "DetectorSpec", "PulseRecord", "TransmissionSpec", "angle_denominator", "angle_variance",
        "extract_angle", "format_pulse_csv", "simulate_pulse_detection", "synthesize_waveform",
    ),
    "ensemble": (
        "TrapPopulationParams", "dipole_trap_depth", "effective_two_body_volume",
        "evolve_trap_population", "evolve_trap_population_rk4", "light_shift",
        "peak_density", "tof_radius",
    ),
    "errors": ("FitError", "NearResonanceError", "ValidationError"),
    "experiment": (
        "DestructionModel", "ScanConfig", "run_detuning_scan", "run_pulse_train",
        "scattering_probability",
    ),
    "scandata": ("ScanDataset", "ScanPoint", "format_scan_csv", "read_scan_csv"),
    "spin_optics": (
        "CollectiveSpinState", "CouplingParams", "StokesState", "coherent_pulse",
        "coherent_spin_state", "coupling_constant", "decay_mean_z", "detuning_factor",
        "faraday_angle", "od_from_angle", "qnd_interact", "rotation_cross_section",
        "single_atom_pseudospin",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "csvio", "jsonio", "rng", "summation"}

__all__ = sorted(_SOURCE)


def _submodule(name: str):
    # __import__ returns the named submodule when given a fromlist; unlike
    # importlib.import_module it needs no import of importlib and warnings,
    # so `from coldspin import cli` loads what `import coldspin.cli` loads
    return __import__(f"{__name__}.{name}", fromlist=("__name__",))


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(_submodule(_SOURCE[name]), name)
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
