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
        "scan.csv.manifest.json": "5cef1087fdecd1ad7ab8d99b5a3ed869917aa565cb6075700d3ebb7ab430542d",
    },
    "long_trains": {
        "scan.csv": "8c0ff5437572cd2bd644d043efffde924fefebe09155c0566a409ce34c18175c",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "82f2bca36e48d5560e7014e09e9274b667079d41596cad18f23076a100dd885b",
    },
    "three_threads": {
        "scan.csv": "e0ba9c7d679a00db0ce493a488c00871a16f30952f46c57e63d6b87e6783a28b",
        "scan_curve.csv": "201f301173518ef36f5068c92e21d6f5d8f80fac8f8c5f7128f60658f736f6cf",
        "scan.csv.manifest.json": "5ab771206d2a66ecf36fcff7a9bccd1e4cc4302dc50a3bc897b76cbbb6b6fe8d",
    },
    "fit": {
        "fit.json": "75bb565f2023ef66b9c564538aa59a23d419732ca4eba85648427f072c99a7b3",
        "fit.json.manifest.json": "27ea9ed23f71984131422bdb28a93cdafc51cc18a8ddfaf71f4ead452ab9c5df",
    },
    "budget": {
        "budget.json": "d13a7cf565a070eb21d998cc3b8574c0f1aa89253d06306827f3cc6ea98bb788",
        "budget.json.manifest.json": "bd7bd7d3af1962ed58ef2377b5de129b28a29b94fbddf35144acf436665e3051",
    },
    "decay_simulate": {
        "decay.csv": "272846036b07eb42a982151e5e36ce1b52db97d4eb39c0666c2ceceb4a6ea5a1",
        "decay.csv.manifest.json": "6b21694ef524076d0e369144bdb14d7545ecfa194a9f664ab1c80b00898608d5",
    },
    "decay_fit": {
        "decay_fit.json": "60b2c5792a6db54fd479bb39ff858a45805936607039655fdbfe5c20ca0c9483",
        "decay_fit.json.manifest.json": "a71ea7989ddfa9531ed01ab9c7cb99cfa630ccedcf2da06bb519fa75137224f4",
    },
    "tof_simulate": {
        "tof.csv": "286b949fc63fa969fb095f7b04b772ac5f62901966e6f664a5cf83df974d573b",
        "tof.csv.manifest.json": "f1d6c42ee588ac7d1103391ed44e1ec4daed413d99a8f27e4ef9a19f00660db7",
    },
    "tof_fit": {
        "tof_fit.json": "bca7cf0427183479f16871f21cedc0765cc0058e09c305efa9a4af457ae2cd30",
        "tof_fit.json.manifest.json": "7ea60727cc688172a15086255b3e9232ef8ee0bc4a10b3a08d41760ed2d87460",
    },
    "pulse_noisy": {
        "pulse.csv": "c0fb5808201d464e22f50e6abbc90c09df33f43f072ede436c015edfef5d7cf3",
        "pulse.csv.manifest.json": "c251e517deca3dfd2252a16bd4181cbbc620f81bbcf7aaa19ba438259ba05ca2",
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
