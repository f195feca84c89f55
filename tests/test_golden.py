"""Golden SHA-256 digests of CLI outputs.

Three fixed scans and every default README quick-start command are pinned
byte for byte, outputs and manifests alike, so a change that shifts a
single bit of the simulated data, a fit or the manifest layout fails here
even when every physics tolerance still holds.  Each run is a sequence of
commands (a fit first simulates its input) with relative output paths
inside a temporary directory, so the manifests do not depend on where the
test runs.
"""

import hashlib
import json

import pytest

from coldspin import cli

GOLDEN = {
    "default": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "3a4566dd7484626a65316f46f03f6b16c9673b79a4b3b05fd3619510ae642b42",
    },
    "long_trains": {
        "scan.csv": "8c0ff5437572cd2bd644d043efffde924fefebe09155c0566a409ce34c18175c",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "3b868b83a213c25433aba0e33ee490877dfda2648b4120b23e9e3fea5892697f",
    },
    "three_threads": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "31f5bde4e1cbec06a0410d5251db2d2eee0b6ea092b270e3d0e1859db9fb9202",
    },
    "fit": {
        "fit.json": "75bb565f2023ef66b9c564538aa59a23d419732ca4eba85648427f072c99a7b3",
        "fit.json.manifest.json": "3c25b006ef6ebbb90eb6eed7df8701d6b0850da7a7c64c469d4b02873959a334",
    },
    "budget": {
        "budget.json": "d13a7cf565a070eb21d998cc3b8574c0f1aa89253d06306827f3cc6ea98bb788",
        "budget.json.manifest.json": "3c139e3b35206d1cc6016942b88f9cd5dd90c53dedb4075b9fdfe8de9cb82a9d",
    },
    "decay_simulate": {
        "decay.csv": "272846036b07eb42a982151e5e36ce1b52db97d4eb39c0666c2ceceb4a6ea5a1",
        "decay.csv.manifest.json": "ea91b6eb092bfacec24bb1779bb0ade8a248d4083d6f3b83c33f9a5f7f105d83",
    },
    "decay_fit": {
        "decay_fit.json": "3250750d6ec21433f5edf59f3bd071cd1caf3fbd20231f6566f25ccf8079c295",
        "decay_fit.json.manifest.json": "0914a7955114fd7370ae8622de3c67c7968757ee7ad693a6047501423374807e",
    },
    "tof_simulate": {
        "tof.csv": "286b949fc63fa969fb095f7b04b772ac5f62901966e6f664a5cf83df974d573b",
        "tof.csv.manifest.json": "fc5c2186b77d37ed6cd875c47cad050c18995fb8c74b2e23775778a5a965b046",
    },
    "tof_fit": {
        "tof_fit.json": "bca7cf0427183479f16871f21cedc0765cc0058e09c305efa9a4af457ae2cd30",
        "tof_fit.json.manifest.json": "40d371e95c209469d9bb9dd4c29100506a9e371e94d15e18210c293ad07562c3",
    },
    "pulse_noisy": {
        "pulse.csv": "c0fb5808201d464e22f50e6abbc90c09df33f43f072ede436c015edfef5d7cf3",
        "pulse.csv.manifest.json": "1df2218b057154b14d45c63990f9d85c9becd208c1355ae0e7aa55350fbbf87f",
    },
}

SCAN = ["scan", "--out", "scan.csv"]
DECAY_SIMULATE = ["decay", "simulate", "--out", "decay.csv"]
TOF_SIMULATE = ["tof", "simulate", "--out", "tof.csv"]


def _default(tmp_path):
    return [SCAN]


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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_scan_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COLDSPIN_ATOM_DATA", raising=False)
    for argv in RUNS[name](tmp_path):
        assert cli.main(argv) == 0
    digests = {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
