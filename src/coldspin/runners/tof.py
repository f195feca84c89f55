"""The tof command: a simulated ballistic expansion, or its temperature fit."""

from __future__ import annotations

from ..csvio import format_table as _write_rows_csv, read_table as _read_rows_csv
from ..jsonio import format_json as _write_json
from . import _in_range, _keyed, _normals, _times

TOF_CSV_COLUMNS = {"time_s": float, "sigma_m": float}


def run(cfg: dict, spec: AtomSpec) -> dict:
    section = cfg["tof"]
    out = cfg["out"]
    if cfg["mode"] == "simulate":
        from ..ensemble import tof_radius

        noise = section["noise_m"]
        times = _keyed(cfg, ("tof.t_start_s", "tof.t_stop_s"), _times, section)
        normals = _normals(cfg, "tof", len(times)) if noise else [0.0] * len(times)

        def rows():  # every model value first: its overflow is named before a noisy row's
            radii = [_in_range(f"the cloud radius at t = {t!r} s", tof_radius,
                               section["sigma0_m"], section["temperature_k"], t, spec.mass_kg)
                     for t in times]
            for t, r, z in zip(times, radii, normals):
                yield (t, abs(r + noise * z)) if noise else (t, r)

        return {out: _keyed(cfg, ("tof",), _write_rows_csv, out, TOF_CSV_COLUMNS, rows())}
    from ..analysis import fit_tof_temperature

    samples = _read_rows_csv(cfg["in"], TOF_CSV_COLUMNS)
    fit = fit_tof_temperature(samples, spec.mass_kg)
    return {out: _write_json(fit.to_json_dict())}
