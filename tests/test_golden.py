"""Golden SHA-256 digests of CLI outputs.

Three fixed scans, the shipped example config and every default README
quick-start command are pinned byte for byte, outputs and manifests alike,
so a change that shifts a single bit of the simulated data, a fit or the
manifest layout fails here even when every physics tolerance still holds.  Each run is a sequence of
commands (a fit first simulates its input) with relative output paths
inside a temporary directory, so the manifests do not depend on where the
test runs.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from coldspin import cli, experiment

# the digests must hold under every numpy that pyproject.toml allows
pytestmark = pytest.mark.numpy_oracle

GOLDEN = {
    "default": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "c4b0b2b0542845d15f8ff658b2acce3dfd777b08050f3b6e935474dc06682167",
    },
    "long_trains": {
        "scan.csv": "8c0ff5437572cd2bd644d043efffde924fefebe09155c0566a409ce34c18175c",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "b4aed6f1ef803a42dbdd4ea9aa8b567e91c103289399a252e8e6f309ae3b8c9c",
    },
    "three_threads": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "ce0eafefa6bdfe93bb6a041cdfdffd7c489244b3ae89f0e19b33ca44ffdc2ab3",
    },
    "fit": {
        "fit.json": "75bb565f2023ef66b9c564538aa59a23d419732ca4eba85648427f072c99a7b3",
        "fit.json.manifest.json": "818c80c4fa65ea01b341f4a4d68090873d5546d7be9195da5bb3ddd97207a20e",
    },
    "budget": {
        "budget.json": "d13a7cf565a070eb21d998cc3b8574c0f1aa89253d06306827f3cc6ea98bb788",
        "budget.json.manifest.json": "0eb2df96747d9dc428cf1b5f778bdb738aba44e410e57c88b9a20c6a51c7e97c",
    },
    "decay_simulate": {
        "decay.csv": "272846036b07eb42a982151e5e36ce1b52db97d4eb39c0666c2ceceb4a6ea5a1",
        "decay.csv.manifest.json": "66bf7db92639ebb8b49a64a7a8da5297fad7a42f9bbe3bba99c90ff884122de6",
    },
    "decay_fit": {
        "decay_fit.json": "60b2c5792a6db54fd479bb39ff858a45805936607039655fdbfe5c20ca0c9483",
        "decay_fit.json.manifest.json": "d9c0a73eb41d62e4bface5bcd02d397a4fed25aedc997e25923b67c2cc4132cb",
    },
    "tof_simulate": {
        "tof.csv": "286b949fc63fa969fb095f7b04b772ac5f62901966e6f664a5cf83df974d573b",
        "tof.csv.manifest.json": "00a2ae8e6a2f1608d51e07b8220fef2d3197fa0b7b60ea114669df5fcc5ff7d3",
    },
    "tof_fit": {
        "tof_fit.json": "bca7cf0427183479f16871f21cedc0765cc0058e09c305efa9a4af457ae2cd30",
        "tof_fit.json.manifest.json": "dfa56b5a933dbc84ae49d0dadde979c2d2a103aa4a656d743b699692b011272c",
    },
    "pulse_noisy": {
        "pulse.csv": "c0fb5808201d464e22f50e6abbc90c09df33f43f072ede436c015edfef5d7cf3",
        "pulse.csv.manifest.json": "73111d87b7f544441c6681c0d63172209480099e81ba66b63a4c336c22108ec8",
    },
}
# the shipped example config spells out the default scan, byte for byte
GOLDEN["example_config"] = GOLDEN["default"]

EXAMPLE_CONFIG = Path(__file__).parents[1] / "configs" / "scan_example.json"
SCAN = ["scan", "--out", "scan.csv"]
DECAY_SIMULATE = ["decay", "simulate", "--out", "decay.csv"]
TOF_SIMULATE = ["tof", "simulate", "--out", "tof.csv"]


def _default(tmp_path):
    return [SCAN]


def _example_config(tmp_path):
    return [["scan", "--config", str(EXAMPLE_CONFIG), "--out", "scan.csv"]]


def _long_trains(tmp_path):
    # 15 detunings x 4 runs x 1000 pulses
    config = tmp_path / "long.json"
    config.write_text(
        json.dumps({"scan": {"runs_per_point": 4, "pulses_per_sample": 1000}}) + "\n"
    )
    return [["scan", "--config", str(config), "--out", "scan.csv"]]


def _three_threads(tmp_path):
    return [["scan", "--threads", "3", "--out", "scan.csv"]]


def _fit(tmp_path):
    return [SCAN, ["fit", "--in", "scan.csv", "--out", "fit.json"]]


def _budget(tmp_path):
    return [["budget", "--theta", "0.0268", "--photons-per-pulse", "4.3e6",
             "--out", "budget.json"]]


def _decay_simulate(tmp_path):
    return [DECAY_SIMULATE]


def _decay_fit(tmp_path):
    return [DECAY_SIMULATE, ["decay", "fit", "--in", "decay.csv", "--out", "decay_fit.json"]]


def _tof_simulate(tmp_path):
    return [TOF_SIMULATE]


def _tof_fit(tmp_path):
    return [TOF_SIMULATE, ["tof", "fit", "--in", "tof.csv", "--out", "tof_fit.json"]]


def _pulse_noisy(tmp_path):
    return [["pulse", "--noisy", "--seed", "7", "--out", "pulse.csv"]]


RUNS = {
    "default": _default,
    "example_config": _example_config,
    "long_trains": _long_trains,
    "three_threads": _three_threads,
    "fit": _fit,
    "budget": _budget,
    "decay_simulate": _decay_simulate,
    "decay_fit": _decay_fit,
    "tof_simulate": _tof_simulate,
    "tof_fit": _tof_fit,
    "pulse_noisy": _pulse_noisy,
}


def run_digests(name, tmp_path, monkeypatch) -> dict:
    monkeypatch.chdir(tmp_path)
    for argv in RUNS[name](tmp_path):
        assert cli.main(argv) == 0
    return {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in GOLDEN[name]
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_scan_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    assert run_digests(name, tmp_path, monkeypatch) == GOLDEN[name]


@pytest.mark.parametrize("path", ["numpy", "plain"])
@pytest.mark.parametrize("name", ["default", "long_trains", "three_threads"])
def test_scan_goldens_hold_on_both_scan_paths(name, path, tmp_path, monkeypatch):
    # each scan golden runs on the path its shape picks; a cutoff of -inf
    # sends it through numpy end to end, and one of inf plain
    cutoff = -math.inf if path == "numpy" else math.inf
    monkeypatch.setattr(experiment, "_PLAIN_SCAN_WORK", cutoff)
    assert run_digests(name, tmp_path, monkeypatch) == GOLDEN[name]
