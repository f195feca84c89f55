"""The decay command: a simulated trap-population decay, or its fit."""

from __future__ import annotations

from ..csvio import format_table, read_table
from ..errors import FitError
from ..jsonio import format_json
from . import _in_range, _keyed, _normals, _record, _times

DECAY_CSV_COLUMNS = {"time_s": float, "atom_count": float, "count_sigma": float}


def _fit_decay(samples: list, v_eff_m3: float):
    from ..analysis import fit_two_body_decay

    fit = fit_two_body_decay(samples, v_eff_m3)
    if not fit.converged:
        raise FitError("two-body decay fit did not converge")
    return fit


def run(cfg: dict, spec: AtomSpec) -> dict:
    from ..ensemble import TrapPopulationParams, evolve_trap_population

    section = cfg["decay"]
    params = _record(cfg, "decay", TrapPopulationParams, what="the two-body volume")
    out = cfg["out"]
    if cfg["mode"] == "simulate":
        noise = section["noise_fraction"]
        times = _keyed(cfg, ("decay.t_start_s", "decay.t_stop_s"), _times, section)
        normals = _normals(cfg, "decay", len(times)) if noise else [0.0] * len(times)

        def rows():  # every model value first: its overflow is named before a noisy row's
            models = [_in_range(f"the atom count at t = {t!r} s", evolve_trap_population,
                                params, t) for t in times]
            for t, n, z in zip(times, models, normals):
                yield (t, n * (1.0 + noise * z), noise * n) if noise else (t, n, 1.0)

        return {out: _keyed(cfg, ("decay",), format_table, out, DECAY_CSV_COLUMNS, rows())}
    samples = read_table(cfg["in"], DECAY_CSV_COLUMNS)
    fit = _keyed(cfg, ("decay.sigma_z_m", "decay.sigma_r_m"), _fit_decay, samples,
                 params.v_eff_m3)
    return {out: format_json(fit.to_json_dict())}
