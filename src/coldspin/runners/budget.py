"""The budget command: the probe photons, and pulses, a variance ratio takes."""

from __future__ import annotations

import operator

from ..errors import ValidationError
from ..jsonio import format_json as _write_json
from . import _keyed


def run(cfg: dict, spec: AtomSpec) -> dict:
    from ..budget import photon_budget

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
    return {out: _write_json(document)}
