"""The pulse command: one balanced-detection waveform."""

from __future__ import annotations

from . import _keyed, _normals, _record


def run(cfg: dict, spec: AtomSpec) -> dict:
    from ..detector import (
        DetectorSpec,
        TransmissionSpec,
        format_pulse_csv,
        simulate_pulse_detection,
        synthesize_waveform,
    )

    section = cfg["pulse"]
    keys = ("pulse", "detector", "transmission")
    det = _record(cfg, "detector", DetectorSpec)
    delta = _keyed(
        cfg, keys,
        simulate_pulse_detection,
        section["theta_rad"],
        section["n_photons"],
        det,
        _record(cfg, "transmission", TransmissionSpec),
        _normals(cfg, "pulse", 1)[0] if section["noisy"] else None,
        what="the imbalance",
    )
    record = _keyed(cfg, keys, synthesize_waveform, delta, det, section["pulse_duration_s"])
    out = cfg["out"]
    return {out: _keyed(cfg, keys, format_pulse_csv, record, out)}
