"""The scan command: a simulated detuning scan and its model curve."""

from __future__ import annotations

from ..csvio import format_table
from . import _keyed, _linspace, _record, _scan_curve_path

CURVE_SAMPLES = 200
CURVE_CSV_COLUMNS = {"detuning_hz": float, "theta_model_rad": float}


def run(cfg: dict, spec: AtomSpec) -> dict:
    from ..detector import DetectorSpec, TransmissionSpec
    from ..experiment import DestructionModel, ScanConfig, run_detuning_scan
    from ..scandata import format_scan_csv
    from ..spin_optics import coherent_spin_state, rotation_cross_section

    ens = cfg["ensemble"]
    section = cfg["scan"]
    detunings = section["detunings_hz"]
    if detunings is None:
        detunings = _linspace(
            section["detuning_start_hz"], section["detuning_stop_hz"], section["n_detunings"]
        )
    scan_cfg = _record(cfg, "scan", ScanConfig, detunings_hz=tuple(detunings))
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
        _record(cfg, "detector", DetectorSpec),
        _record(cfg, "transmission", TransmissionSpec),
        _record(cfg, "destruction", DestructionModel),
        guard_linewidths=cfg["guard_linewidths"],
    )
    out = cfg["out"]
    curve_path = _scan_curve_path(out)

    def curve() -> bytearray:
        # noiseless forward-model curve for plotting, theta = +/- n_c g~/2,
        # every row computed before any is formatted
        column_density = ens["n_atoms"] / ens["interaction_area_m2"] * ens["polarization"]
        detunings = _linspace(min(scan_cfg.detunings_hz), max(scan_cfg.detunings_hz),
                              CURVE_SAMPLES)
        rows = [(detuning, 0.5 * column_density * rotation_cross_section(
                    detuning, spec, guard_linewidths=cfg["guard_linewidths"]))
                for detuning in detunings]
        return format_table(curve_path, CURVE_CSV_COLUMNS, rows)

    return {out: format_scan_csv(dataset, out),
            curve_path: _keyed(cfg, ("scan", "ensemble", "guard_linewidths"), curve)}
