"""Golden SHA-256 digests of CLI outputs.

Three fixed scans, the shipped example config and every default README
quick-start command are pinned byte for byte, outputs and manifests alike,
so a change that shifts a single bit of the simulated data, a fit or the
manifest layout fails here even when every physics tolerance still holds.
A manifest is pinned with its "version" value replaced by VERSION_PLACEHOLDER,
after checking that the value is coldspin.__version__ and appears once, so
a release that changes nothing else re-pins nothing.  Each run is a sequence of
commands (a fit first simulates its input) with relative output paths
inside a temporary directory, so the manifests do not depend on where the
test runs.
"""

import hashlib
import json
from pathlib import Path

import pytest

import coldspin
from coldspin import cli

# the digests must hold under every numpy that pyproject.toml allows
pytestmark = pytest.mark.numpy_oracle

GOLDEN = {
    "default": {
        "scan.csv": "4039c03ac525ed6dd5494254ea3b9e1314eaee583e7c26852d71549f7c20b1c5",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "5d286a0ab49f5a0a217fb3bd89fbd046b585bc6984e660309f64129f709e8c05",
    },
    "long_trains": {
        "scan.csv": "e5d43a1364c60fef9d626e660979300f90cea5fd15986a6685262e3bfe191e06",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "10890ef8c38cc4dac771f87e46964fedad2e5ef6c56374feb9f9bbce57f49046",
    },
    "three_threads": {
        "scan.csv": "4039c03ac525ed6dd5494254ea3b9e1314eaee583e7c26852d71549f7c20b1c5",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "4a20e177fb6f51ab347c3e9aa0d1a5ddf31c1a180acd994d583256444114a420",
    },
    "fit": {
        "fit.json": "d48f873f27406a52d6bfc2d06adf9d725563aed12a61fbb099a5784c21bd22e4",
        "fit.json.manifest.json": "0939cd26d7b27dfab8f92536c731a9973cfe4dface7af0b6aac6eb39e01359e0",
    },
    "budget": {
        "budget.json": "d13a7cf565a070eb21d998cc3b8574c0f1aa89253d06306827f3cc6ea98bb788",
        "budget.json.manifest.json": "615730b8cf6a29ad7c70af642c9dd9f87a513de21d5b063f47993165d766097a",
    },
    "decay_simulate": {
        "decay.csv": "272846036b07eb42a982151e5e36ce1b52db97d4eb39c0666c2ceceb4a6ea5a1",
        "decay.csv.manifest.json": "6695c8fa62add1cf5c3ac578bdd6e0303ee1edcc4d50134c2ea7c5e1e9dc5f9b",
    },
    "decay_fit": {
        "decay_fit.json": "60b2c5792a6db54fd479bb39ff858a45805936607039655fdbfe5c20ca0c9483",
        "decay_fit.json.manifest.json": "72ac326712c93803522cbfea0a2ef8713cbc9ed61565f7d8bb5192a41fbed1a4",
    },
    "tof_simulate": {
        "tof.csv": "286b949fc63fa969fb095f7b04b772ac5f62901966e6f664a5cf83df974d573b",
        "tof.csv.manifest.json": "44ce75ecf03097074f367f4177f43d4cd5a42091e587e97d2db1ee72eb053105",
    },
    "tof_fit": {
        "tof_fit.json": "bca7cf0427183479f16871f21cedc0765cc0058e09c305efa9a4af457ae2cd30",
        "tof_fit.json.manifest.json": "7854c7678284add527bd679fbcd3a0801f0336753ffe112380eabfb949820d25",
    },
    "pulse_noisy": {
        "pulse.csv": "c0fb5808201d464e22f50e6abbc90c09df33f43f072ede436c015edfef5d7cf3",
        "pulse.csv.manifest.json": "151c9a6d13b10698360522d459efd58a3868efaba8333b1a4668902d8d8f5d45",
    },
}
# the shipped example config spells out the default scan, byte for byte
GOLDEN["example_config"] = GOLDEN["default"]

VERSION_PLACEHOLDER = b'"version": "<version>"'

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


def pinned_bytes(path: Path) -> bytes:
    """The file's bytes, a manifest's with its version value replaced by
    VERSION_PLACEHOLDER once that value is checked."""
    data = path.read_bytes()
    if not path.name.endswith(".manifest.json"):
        return data
    assert json.loads(data)["version"] == coldspin.__version__
    value = json.dumps(coldspin.__version__).encode()
    assert data.count(value) == 1, path.name
    return data.replace(b'"version": ' + value, VERSION_PLACEHOLDER)


def run_digests(name, tmp_path, monkeypatch) -> dict:
    monkeypatch.chdir(tmp_path)
    for argv in RUNS[name](tmp_path):
        assert cli.main(argv) == 0
    return {
        filename: hashlib.sha256(pinned_bytes(tmp_path / filename)).hexdigest()
        for filename in GOLDEN[name]
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_scan_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    assert run_digests(name, tmp_path, monkeypatch) == GOLDEN[name]
