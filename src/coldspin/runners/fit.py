"""The fit command: the column density and optical depth of a scan CSV."""

from __future__ import annotations

from ..jsonio import format_json as _write_json
from . import _keyed


def run(cfg: dict, spec: AtomSpec) -> dict:
    from ..analysis import compute_od, fit_column_density
    from ..scandata import read_scan_csv

    dataset = read_scan_csv(cfg["in"])
    fit = _keyed(cfg, ("fit", "guard_linewidths"), fit_column_density, dataset, spec,
                 **cfg["fit"], guard_linewidths=cfg["guard_linewidths"])
    document = fit.to_json_dict()
    document["params"]["od"], document["sigmas"]["od"] = compute_od(fit, spec)
    out = cfg["out"]
    return {out: _write_json(document)}
