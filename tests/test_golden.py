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

# the digests must hold under every numpy that pyproject.toml allows
pytestmark = pytest.mark.numpy_oracle

GOLDEN = {
    "default": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "89a874c13354bc729d525531da74dbfeff94a29c1e8e52d8f90c331b91527db7",
    },
    "long_trains": {
        "scan.csv": "8c0ff5437572cd2bd644d043efffde924fefebe09155c0566a409ce34c18175c",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "74df2cdd9283d319b3000fc69bb116699b0e88b481150725b01845d1af00f01c",
    },
    "three_threads": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "a580b66dc8b8b4e8774b6f4af2d6985dcfff035917cfa6ec2d1b3b96876c9564",
    },
    "fit": {
        "fit.json": "75bb565f2023ef66b9c564538aa59a23d419732ca4eba85648427f072c99a7b3",
        "fit.json.manifest.json": "e9032dba59e55ab272da7a3b0fb0af74f6d7c1a9efcd81c3e12f209217a37267",
    },
    "budget": {
        "budget.json": "d13a7cf565a070eb21d998cc3b8574c0f1aa89253d06306827f3cc6ea98bb788",
        "budget.json.manifest.json": "19411cd3460e1997bed5b280f47e21c0e45c07450d7c0fb4d6f8aee928727528",
    },
    "decay_simulate": {
        "decay.csv": "272846036b07eb42a982151e5e36ce1b52db97d4eb39c0666c2ceceb4a6ea5a1",
        "decay.csv.manifest.json": "15cfb436c0096d79255c031a0f4b34a6f46c5c7bca01d453abf77543c4dddf4e",
    },
    "decay_fit": {
        "decay_fit.json": "60b2c5792a6db54fd479bb39ff858a45805936607039655fdbfe5c20ca0c9483",
        "decay_fit.json.manifest.json": "d9dce0704557726f66ad5c7123dea5792b534816af7be53d2db4c5b4f08eef0f",
    },
    "tof_simulate": {
        "tof.csv": "286b949fc63fa969fb095f7b04b772ac5f62901966e6f664a5cf83df974d573b",
        "tof.csv.manifest.json": "e7bbc5da5ca29fb895446eae768db79e1d91902d8558ee85c80986ca964fd6e5",
    },
    "tof_fit": {
        "tof_fit.json": "bca7cf0427183479f16871f21cedc0765cc0058e09c305efa9a4af457ae2cd30",
        "tof_fit.json.manifest.json": "780fb7a745894ca5de02a1ba5a97746b8710376cd43025dab8753049c51143b8",
    },
    "pulse_noisy": {
        "pulse.csv": "c0fb5808201d464e22f50e6abbc90c09df33f43f072ede436c015edfef5d7cf3",
        "pulse.csv.manifest.json": "e99f5e73cb08014d80276aea548c18590d4fcddbbcca19421996029da89b9e4a",
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
