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
import math

import pytest

from coldspin import cli, experiment

# the digests must hold under every numpy that pyproject.toml allows
pytestmark = pytest.mark.numpy_oracle

GOLDEN = {
    "default": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "2ca2f03d8c5f67b519e238779c49d92f2fb3277df0288ccb08d9c2116079e5a1",
    },
    "long_trains": {
        "scan.csv": "8c0ff5437572cd2bd644d043efffde924fefebe09155c0566a409ce34c18175c",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "4a9abedf215e394c4be30182c2cbf2ebaef005e499e581da453530a72ccc3bdb",
    },
    "three_threads": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "b4e33a250e21f4e3045f6a09746f6bd9d6243303632c1f7532aef526dbecd073",
    },
    "fit": {
        "fit.json": "75bb565f2023ef66b9c564538aa59a23d419732ca4eba85648427f072c99a7b3",
        "fit.json.manifest.json": "9bc3d458f20335458898774459277309cf141934f64121ada48ae77c54781e81",
    },
    "budget": {
        "budget.json": "d13a7cf565a070eb21d998cc3b8574c0f1aa89253d06306827f3cc6ea98bb788",
        "budget.json.manifest.json": "a01a94d319aef3c4f726251085bb017a1dfa84917b2c2bd6b9abf4c254d5be6c",
    },
    "decay_simulate": {
        "decay.csv": "272846036b07eb42a982151e5e36ce1b52db97d4eb39c0666c2ceceb4a6ea5a1",
        "decay.csv.manifest.json": "4479569a1298ea1a4ea9c037e9ab36844aafadd28aaaddc80554b89fe4d7a7e4",
    },
    "decay_fit": {
        "decay_fit.json": "60b2c5792a6db54fd479bb39ff858a45805936607039655fdbfe5c20ca0c9483",
        "decay_fit.json.manifest.json": "71a04a771db6a50db4225d9f14cbcda37a2878850cd1e182847cc137e90b251e",
    },
    "tof_simulate": {
        "tof.csv": "286b949fc63fa969fb095f7b04b772ac5f62901966e6f664a5cf83df974d573b",
        "tof.csv.manifest.json": "e617310265032db168206a567035235a71996b3d8aac47ddd6080847bad7a9f8",
    },
    "tof_fit": {
        "tof_fit.json": "bca7cf0427183479f16871f21cedc0765cc0058e09c305efa9a4af457ae2cd30",
        "tof_fit.json.manifest.json": "4b1f89068ec21b849a53a29d54db852bf7249f1cc6a5386830b5edc4e08438cc",
    },
    "pulse_noisy": {
        "pulse.csv": "c0fb5808201d464e22f50e6abbc90c09df33f43f072ede436c015edfef5d7cf3",
        "pulse.csv.manifest.json": "f6a6980e6e6a52ea3d73253bd22134887bd7dcef1a171c345bf4b300a7877230",
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
