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
        "scan.csv.manifest.json": "c47bc5f026f59d77019aa8d525ebba91253088811759bfc769a25319e29ad26a",
    },
    "long_trains": {
        "scan.csv": "8c0ff5437572cd2bd644d043efffde924fefebe09155c0566a409ce34c18175c",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "7ee75218803aa2a7b3a822605c288125dfc40c153f8716a30d1d08012d031406",
    },
    "three_threads": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "9f003b40e7a860985a95971cbfee1b353fce2ca51b17523a323797089033eeb9",
    },
    "fit": {
        "fit.json": "75bb565f2023ef66b9c564538aa59a23d419732ca4eba85648427f072c99a7b3",
        "fit.json.manifest.json": "2aad51ca6f57171afe06f2225e68304e3b3ec5128c556c9320b73aea23179bdb",
    },
    "budget": {
        "budget.json": "d13a7cf565a070eb21d998cc3b8574c0f1aa89253d06306827f3cc6ea98bb788",
        "budget.json.manifest.json": "eb56222aca73ac2e240580ae00095b23c30e5ee6de26d75964dfff7298c119e0",
    },
    "decay_simulate": {
        "decay.csv": "272846036b07eb42a982151e5e36ce1b52db97d4eb39c0666c2ceceb4a6ea5a1",
        "decay.csv.manifest.json": "028099012c8a4105a66235378fd27a34f772a5fbb84a7510688939daa4b841a9",
    },
    "decay_fit": {
        "decay_fit.json": "60b2c5792a6db54fd479bb39ff858a45805936607039655fdbfe5c20ca0c9483",
        "decay_fit.json.manifest.json": "5f6f1e4d9648c489655916e73dfa7da6ba47fe8209af2e77c46d6b67e5a74a6f",
    },
    "tof_simulate": {
        "tof.csv": "286b949fc63fa969fb095f7b04b772ac5f62901966e6f664a5cf83df974d573b",
        "tof.csv.manifest.json": "5ba7c69dfd309132475a821b3b3782fa33c384569e12696e524994a78cb09ab2",
    },
    "tof_fit": {
        "tof_fit.json": "bca7cf0427183479f16871f21cedc0765cc0058e09c305efa9a4af457ae2cd30",
        "tof_fit.json.manifest.json": "fe414ca30e6eda03827848d519eff63f99a2ebe7ade6596281eec71df84e44aa",
    },
    "pulse_noisy": {
        "pulse.csv": "c0fb5808201d464e22f50e6abbc90c09df33f43f072ede436c015edfef5d7cf3",
        "pulse.csv.manifest.json": "5feae68ba5e0f33d7191b7e73e793c2fb04ddd545d1c4356a4a63c1cf43d9028",
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
    for argv in RUNS[name](tmp_path):
        assert cli.main(argv) == 0
    digests = {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
