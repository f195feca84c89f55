"""Golden SHA-256 digests of scan outputs.

The scan CSV, the model-curve CSV and the manifest of three fixed runs are
pinned byte for byte, so a change that shifts a single bit of the
simulated data (or of the manifest layout) fails here even when every
physics tolerance still holds.  The runs use relative output paths inside
a temporary directory, so the manifest does not depend on where the test
runs.
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
}


def _default(tmp_path):
    return ["scan", "--out", "scan.csv"]


def _long_trains(tmp_path):
    # 15 detunings x 4 runs x 1000 pulses
    config = tmp_path / "long.json"
    config.write_text(
        json.dumps({"scan": {"runs_per_point": 4, "pulses_per_sample": 1000}}) + "\n"
    )
    return ["scan", "--config", str(config), "--out", "scan.csv"]


def _three_threads(tmp_path):
    return ["scan", "--threads", "3", "--out", "scan.csv"]


RUNS = {
    "default": _default,
    "long_trains": _long_trains,
    "three_threads": _three_threads,
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_scan_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COLDSPIN_ATOM_DATA", raising=False)
    assert cli.main(RUNS[name](tmp_path)) == 0
    digests = {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in GOLDEN[name]
    }
    assert digests == GOLDEN[name]
