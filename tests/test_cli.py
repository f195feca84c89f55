import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coldspin import cli
from coldspin.analysis import fit_result_from_json_dict
from coldspin.atomic_data import default_atom_document

HEX64 = re.compile(r"^[0-9a-f]{64}$")


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_small_scan_config(path, atom_data=None, **scan_overrides):
    scan = {
        "detunings_hz": [-2.3e9, -1.6e9, -0.8e9],
        "runs_per_point": 4,
        "pulses_per_sample": 3,
    }
    scan.update(scan_overrides)
    config = {"scan": scan} if atom_data is None else {"atom_data": atom_data, "scan": scan}
    path.write_text(json.dumps(config) + "\n")
    return str(path)


def run_scan(tmp_path, out="scan.csv", extra=(), config_overrides=None, atom_data=None):
    cfg = write_small_scan_config(
        tmp_path / "cfg.json", atom_data=atom_data, **(config_overrides or {})
    )
    argv = ["scan", "--config", cfg, "--out", out, *extra]
    return cli.main(argv)


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0


def test_scan_outputs_and_manifest(in_tmp_dir, capsys):
    assert run_scan(in_tmp_dir) == 0
    captured = capsys.readouterr()
    assert captured.out.count("wrote ") == 3

    rows = (in_tmp_dir / "scan.csv").read_text().splitlines()
    assert len(rows) == 4  # header + one row per detuning
    assert rows[0].startswith("detuning_hz,")

    curve = (in_tmp_dir / "scan_curve.csv").read_text().splitlines()
    assert curve[0] == "detuning_hz,theta_model_rad"
    assert len(curve) == 201

    manifest = json.loads((in_tmp_dir / "scan.csv.manifest.json").read_text())
    assert set(manifest) == {"command", "version", "seed", "config", "outputs"}
    assert manifest["command"] == "scan"
    assert set(manifest["outputs"]) == {"scan.csv", "scan_curve.csv"}
    for digest in manifest["outputs"].values():
        assert HEX64.match(digest)
    # the manifest inlines the atomic constants so replay needs no files
    assert manifest["config"]["atom_constants"]["mass_kg"] > 0


def test_scan_is_deterministic(in_tmp_dir):
    run_scan(in_tmp_dir, out="a.csv")
    run_scan(in_tmp_dir, out="b.csv")
    run_scan(in_tmp_dir, out="c.csv", extra=["--threads", "3"])
    a = (in_tmp_dir / "a.csv").read_bytes()
    assert a == (in_tmp_dir / "b.csv").read_bytes()
    assert a == (in_tmp_dir / "c.csv").read_bytes()


def test_one_point_scan_is_the_start_detuning(in_tmp_dir):
    # n_detunings = 1 scans detuning_start_hz alone, and its model curve
    # repeats that one point; the digests are those 0.8.0 wrote
    cfg = write_small_scan_config(in_tmp_dir / "cfg.json", detunings_hz=None, n_detunings=1)
    assert cli.main(["scan", "--config", cfg, "--out", "scan.csv"]) == 0
    assert (in_tmp_dir / "scan.csv").read_text().splitlines()[1].startswith("-2.3000")
    digests = {name: hashlib.sha256((in_tmp_dir / name).read_bytes()).hexdigest()
               for name in ("scan.csv", "scan_curve.csv")}
    assert digests == {
        "scan.csv": "6404becb16e15882cb53c058dcd9026b261ecea2636a9973f6c159684d7bd791",
        "scan_curve.csv": "ed02d29c431221c86e6265bb35e28e6c05672cfbaaa023465338f52cecc6fcf7",
    }


def test_scan_seed_flag(in_tmp_dir):
    run_scan(in_tmp_dir, out="a.csv", extra=["--seed", "1"])
    run_scan(in_tmp_dir, out="b.csv", extra=["--seed", "2"])
    assert (in_tmp_dir / "a.csv").read_bytes() != (in_tmp_dir / "b.csv").read_bytes()
    manifest = json.loads((in_tmp_dir / "b.csv.manifest.json").read_text())
    assert manifest["seed"] == 2


@pytest.mark.parametrize(
    "command, override, n_rows",
    [("decay", {"decay": {"noise_fraction": 0.0}}, 46), ("tof", {"tof": {"noise_m": 0.0}}, 8)],
)
def test_noiseless_simulations_write_every_row(in_tmp_dir, command, override, n_rows):
    # every time keeps its row, and the seed changes no byte
    (in_tmp_dir / "cfg.json").write_text(json.dumps(override))
    tables = []
    for seed in ("1", "2"):
        out = f"{command}{seed}.csv"
        argv = [command, "simulate", "--config", "cfg.json", "--seed", seed, "--out", out]
        assert cli.main(argv) == 0
        tables.append((in_tmp_dir / out).read_bytes())
    assert tables[0] == tables[1]
    assert len(tables[0].decode().splitlines()) == 1 + n_rows


@pytest.mark.parametrize(
    "command, override",
    [("decay", {"decay": {"noise_fraction": 0.0}}), ("tof", {"tof": {"noise_m": 0.0}})],
)
def test_noiseless_simulations_draw_nothing(in_tmp_dir, monkeypatch, command, override):
    from coldspin import rng

    calls = []
    real = rng.normal_draws

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rng, "normal_draws", counted)
    (in_tmp_dir / "cfg.json").write_text(json.dumps(override))
    argv = [command, "simulate", "--config", "cfg.json", "--out", f"{command}.csv"]
    assert cli.main(argv) == 0
    assert calls == []
    # the noisy default does draw, so the count above is live
    assert cli.main([command, "simulate", "--out", f"noisy_{command}.csv"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["decay", "tof"])
def test_simulations_make_as_many_keyed_calls_at_any_size(in_tmp_dir, monkeypatch, command):
    # one keyed call computes and formats every row, whatever their count
    runner = importlib.import_module(f"coldspin.runners.{command}")
    calls = []
    real = runner._keyed

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "_keyed", counted)
    counts = []
    for n_times in (8, 512):
        (in_tmp_dir / "cfg.json").write_text(json.dumps({command: {"n_times": n_times}}))
        calls.clear()
        out = f"{command}{n_times}.csv"
        assert cli.main([command, "simulate", "--config", "cfg.json", "--out", out]) == 0
        assert len((in_tmp_dir / out).read_text().splitlines()) == 1 + n_times
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize(
    "command, override, message",
    [
        ("tof", {"tof": {"sigma0_m": 1e200}},
         "the cloud radius at t = 0.0005 s exceeds the float range at tof.sigma0_m = 1e+200, "
         "tof.temperature_k = 2.5e-05, tof.t_start_s = 0.0005, tof.t_stop_s = 0.004, "
         "tof.n_times = 8, tof.noise_m = 1.5e-06, tof.seed = 20260816"),
        ("decay", {"decay": {"beta_m3_per_s": 1e300, "tau_s": 1e300}},
         "the atom count at t = 0.0 s exceeds the float range at decay.n0 = 1200000.0, "
         "decay.tau_s = 1e+300, decay.beta_m3_per_s = 1e+300, "
         "decay.sigma_z_m = 0.0036096176512240815, decay.sigma_r_m = 8.493218002880191e-06, "
         "decay.t_start_s = 0.0, decay.t_stop_s = 90.0, decay.n_times = 46, "
         "decay.noise_fraction = 0.002, decay.seed = 20260816"),
        # the noisy radius of row 4 is already inf, but every model value is
        # computed before any row is formatted: the overflowing time is named
        ("tof", {"tof": {"noise_m": 1.7e308, "t_stop_s": 1e155, "n_times": 50}},
         "the cloud radius at t = 1.4285714285714286e+154 s exceeds the float range at "
         "tof.sigma0_m = 8.5e-06, tof.temperature_k = 2.5e-05, tof.t_start_s = 0.0005, "
         "tof.t_stop_s = 1e+155, tof.n_times = 50, tof.noise_m = 1.7e+308, "
         "tof.seed = 20260816"),
    ],
    ids=["tof-first-row", "decay-first-row", "tof-model-before-noisy-row"],
)
def test_simulations_name_the_overflowing_time(in_tmp_dir, capsys, command, override, message):
    (in_tmp_dir / "cfg.json").write_text(json.dumps(override))
    assert cli.main([command, "simulate", "--config", "cfg.json", "--out", "out.csv"]) == 3
    assert capsys.readouterr().err == f"numeric error: {message}\n"
    assert not (in_tmp_dir / "out.csv").exists()


def test_scan_replay_and_tamper(in_tmp_dir, capsys):
    run_scan(in_tmp_dir)
    capsys.readouterr()
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("reproduced ") == 2

    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    digest = manifest["outputs"]["scan.csv"]
    manifest["outputs"]["scan.csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    manifest_path.write_text(json.dumps(manifest))
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 3
    captured = capsys.readouterr()
    assert "MISMATCH: scan.csv" in captured.err
    assert "ok: scan_curve.csv" in captured.err


def test_replay_mismatch_writes_nothing(in_tmp_dir, capsys):
    # a replay digests every output before it writes one, so a mismatch
    # leaves the files on disk as they were, even one edited since the run
    run_scan(in_tmp_dir)
    (in_tmp_dir / "scan_curve.csv").write_text("edited\n")
    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["scan.csv"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    before = files_in(in_tmp_dir)
    capsys.readouterr()
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 3
    assert "MISMATCH: scan.csv" in capsys.readouterr().err
    assert files_in(in_tmp_dir) == before


def test_replay_requires_manifest_version(in_tmp_dir, capsys):
    run_scan(in_tmp_dir)
    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["version"]
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 2
    assert "missing manifest key 'version'" in capsys.readouterr().err


def test_replay_mismatch_names_both_versions(in_tmp_dir, capsys):
    run_scan(in_tmp_dir)
    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = "0.0.1"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    # another version that reproduces the outputs replays as before
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 0
    assert "0.0.1" not in capsys.readouterr().err

    digest = manifest["outputs"]["scan.csv"]
    manifest["outputs"]["scan.csv"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    manifest_path.write_text(json.dumps(manifest))
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 3
    err = capsys.readouterr().err
    assert "MISMATCH: scan.csv" in err
    assert f"written by coldspin 0.0.1, this is coldspin {cli.__version__}" in err


def replay_recorded_scan(in_tmp_dir, capsys, version, digest):
    """Replay tests/data's default scan manifest as that version wrote it,
    whose SHA-256 starts with digest; returns the exit code and stderr."""
    recorded = Path(__file__).parent / "data" / f"scan-{version}.csv.manifest.json"
    manifest_bytes = recorded.read_bytes()
    assert hashlib.sha256(manifest_bytes).hexdigest().startswith(digest)
    (in_tmp_dir / "scan.csv.manifest.json").write_bytes(manifest_bytes)
    capsys.readouterr()
    code = cli.main(["scan", "--manifest", "scan.csv.manifest.json"])
    return code, capsys.readouterr().err


def test_a_0_6_0_scan_manifest_replays_to_exit_3(in_tmp_dir, capsys):
    # the default scan as 0.6.0 recorded it (its digest is 0.6.0's golden):
    # later versions take its config, but draw two normals a run where
    # 0.6.0 drew one a pulse, and so reproduce the model curve but not the
    # scan
    code, err = replay_recorded_scan(in_tmp_dir, capsys, "0.6.0", "c4b0b2b0")
    assert code == 3
    assert "MISMATCH: scan.csv" in err
    assert "ok: scan_curve.csv" in err
    assert f"written by coldspin 0.6.0, this is coldspin {cli.__version__}" in err


def test_a_0_7_0_scan_manifest_replays_to_exit_3(in_tmp_dir, capsys):
    # the default scan as 0.7.0 recorded it (with its version replaced by
    # "<version>", its digest is 0.7.0's golden c25a154f): 0.8.0 draws a
    # detuning's runs from one stream where 0.7.0 seeded one a run
    code, err = replay_recorded_scan(in_tmp_dir, capsys, "0.7.0", "807504af")
    assert code == 3
    assert "MISMATCH: scan.csv" in err
    assert "ok: scan_curve.csv" in err
    assert f"written by coldspin 0.7.0, this is coldspin {cli.__version__}" in err


def test_replay_rejects_wrong_command(in_tmp_dir):
    run_scan(in_tmp_dir)
    assert cli.main(["fit", "--manifest", "scan.csv.manifest.json"]) == 2


def test_fit_round_trip(in_tmp_dir):
    run_scan(in_tmp_dir, config_overrides={"runs_per_point": 10})
    assert cli.main(["fit", "--in", "scan.csv", "--out", "fit.json"]) == 0
    document = json.loads((in_tmp_dir / "fit.json").read_text())
    n_c = document["params"]["column_density_m2"]
    assert n_c == pytest.approx(2.65e14, rel=0.2)
    assert document["params"]["od"] == pytest.approx(51.4, rel=0.2)
    assert document["converged"] is True
    assert document["dof"] == 2
    assert (in_tmp_dir / "fit.json.manifest.json").exists()


def test_fit_flags_change_result(in_tmp_dir):
    run_scan(in_tmp_dir, config_overrides={"runs_per_point": 10})
    cli.main(["fit", "--in", "scan.csv", "--out", "w.json"])
    cli.main(["fit", "--in", "scan.csv", "--out", "u.json", "--unweighted"])
    cli.main(["fit", "--in", "scan.csv", "--out", "e.json", "--sigma-source", "stderr"])
    w = json.loads((in_tmp_dir / "w.json").read_text())
    u = json.loads((in_tmp_dir / "u.json").read_text())
    e = json.loads((in_tmp_dir / "e.json").read_text())
    assert u["params"]["column_density_m2"] != w["params"]["column_density_m2"]
    # stderr weighting tightens the reported uncertainty, same estimate shape
    assert e["sigmas"]["column_density_m2"] < w["sigmas"]["column_density_m2"]


def test_fit_requires_input(in_tmp_dir):
    assert cli.main(["fit", "--out", "fit.json"]) == 2


def test_fit_missing_input_file(in_tmp_dir):
    assert cli.main(["fit", "--in", "absent.csv", "--out", "fit.json"]) == 2


def test_budget_json(in_tmp_dir):
    code = cli.main(
        [
            "budget",
            "--theta", "0.02686137806958269",
            "--photons-per-pulse", "4.3e6",
            "--out", "budget.json",
        ]
    )
    assert code == 0
    document = json.loads((in_tmp_dir / "budget.json").read_text())
    assert document["photons_total"] == pytest.approx(1.385936782335968e9, rel=1e-12)
    assert document["n_pulses"] == pytest.approx(322.3108796130159, rel=1e-12)
    assert document["a"] == 1.0
    assert document["n_atoms"] == 1e6


def test_budget_requires_theta(in_tmp_dir):
    assert cli.main(["budget", "--out", "budget.json"]) == 2
    assert cli.main(["budget", "--theta", "0", "--out", "budget.json"]) == 2


def test_decay_round_trip(in_tmp_dir):
    assert cli.main(["decay", "simulate", "--out", "decay.csv"]) == 0
    rows = (in_tmp_dir / "decay.csv").read_text().splitlines()
    assert rows[0] == "time_s,atom_count,count_sigma"
    assert len(rows) == 47  # header + 46 samples

    assert cli.main(["decay", "fit", "--in", "decay.csv", "--out", "dfit.json"]) == 0
    document = json.loads((in_tmp_dir / "dfit.json").read_text())
    assert document["converged"] is True
    assert document["params"]["beta_m3_per_s"] == pytest.approx(8e-20, rel=0.10)
    assert document["params"]["n0"] == pytest.approx(1.2e6, rel=0.02)


def test_decay_needs_mode(in_tmp_dir, capsys):
    assert cli.main(["decay", "--out", "x.csv"]) == 2
    assert "mode" in capsys.readouterr().err


def test_decay_fit_requires_in(in_tmp_dir):
    assert cli.main(["decay", "fit", "--out", "x.json"]) == 2


def test_tof_round_trip(in_tmp_dir):
    assert cli.main(["tof", "simulate", "--out", "tof.csv"]) == 0
    rows = (in_tmp_dir / "tof.csv").read_text().splitlines()
    assert rows[0] == "time_s,sigma_m"

    assert cli.main(["tof", "fit", "--in", "tof.csv", "--out", "tfit.json"]) == 0
    document = json.loads((in_tmp_dir / "tfit.json").read_text())
    assert document["params"]["temperature_k"] == pytest.approx(25e-6, abs=0.5e-6)
    # the intercept sigma0^2 is tiny next to the noise-induced scatter in
    # sigma^2, so only a sanity bound is honest here
    assert 0.0 <= document["params"]["sigma0_m"] < 5e-5


def test_tof_simulate_replay(in_tmp_dir):
    cli.main(["tof", "simulate", "--out", "tof.csv"])
    assert cli.main(["tof", "--manifest", "tof.csv.manifest.json"]) == 0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_tof_fit_writes_strict_json_for_undefined_sigma(in_tmp_dir):
    # sigma^2 = b t^2 - c: a negative fitted intercept clamps sigma0 to 0,
    # where its propagated uncertainty is undefined (infinite)
    rows = ["time_s,sigma_m"]
    for t in (1e-3, 2e-3, 3e-3, 4e-3, 5e-3):
        rows.append(f"{t:.11e},{(2.4e-3 * t * t - 1e-9) ** 0.5:.11e}")
    (in_tmp_dir / "tof.csv").write_text("\n".join(rows) + "\n")
    assert cli.main(["tof", "fit", "--in", "tof.csv", "--out", "tof_fit.json"]) == 0
    for name in ("tof_fit.json", "tof_fit.json.manifest.json"):
        json.loads((in_tmp_dir / name).read_text(), parse_constant=_reject_constant)
    document = json.loads((in_tmp_dir / "tof_fit.json").read_text())
    assert document["params"]["sigma0_m"] == 0.0
    assert document["sigmas"]["sigma0_m"] is None
    assert document["nonfinite"] == {"/sigmas/sigma0_m": "inf"}
    assert math.isfinite(document["sigmas"]["temperature_k"])

    # the library reads the CLI's fit document back, undefined sigma included
    fit = fit_result_from_json_dict(document)
    assert fit.params["sigma0_m"] == 0.0
    assert fit.sigmas["sigma0_m"] == math.inf
    assert fit.sigmas["temperature_k"] == document["sigmas"]["temperature_k"]


def test_decay_with_infinite_lifetime_replays(in_tmp_dir, capsys):
    # 1e999 is strict JSON that parses as inf: pure two-body loss
    (in_tmp_dir / "cfg.json").write_text('{"decay": {"tau_s": 1e999}}\n')
    argv = ["decay", "simulate", "--config", "cfg.json", "--out", "decay.csv"]
    assert cli.main(argv) == 0
    raw = (in_tmp_dir / "decay.csv.manifest.json").read_text()
    manifest = json.loads(raw, parse_constant=_reject_constant)
    assert manifest["config"]["decay"]["tau_s"] is None
    assert manifest["nonfinite"] == {"/config/decay/tau_s": "inf"}
    capsys.readouterr()
    assert cli.main(["decay", "--manifest", "decay.csv.manifest.json"]) == 0
    assert "reproduced decay.csv" in capsys.readouterr().out


def write_heavy_atom_data(path):
    """An atom data document with the packaged mass doubled."""
    doubled = default_atom_document()
    doubled["mass_kg"] *= 2.0
    path.write_text(json.dumps(doubled))
    return doubled


def test_fit_of_a_vanishing_coupling_names_its_keys(in_tmp_dir, capsys):
    # a wavelength whose square underflows zeroes g_tilde at every detuning
    assert cli.main(["scan", "--out", "scan.csv"]) == 0
    tiny = default_atom_document()
    tiny["wavelength_m"] = 1e-170
    (in_tmp_dir / "tiny.json").write_text(json.dumps(tiny))
    (in_tmp_dir / "cfg.json").write_text(json.dumps({"atom_data": "tiny.json"}))
    capsys.readouterr()
    argv = ["fit", "--config", "cfg.json", "--in", "scan.csv", "--out", "fit.json"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "degenerate design: g_tilde vanishes at every point" in err
    assert "fit.weighted = True" in err
    assert not (in_tmp_dir / "fit.json").exists()


def test_atom_data_config_override(in_tmp_dir, capsys):
    assert cli.main(["tof", "simulate", "--out", "tof.csv"]) == 0
    assert cli.main(["tof", "fit", "--in", "tof.csv", "--out", "base.json"]) == 0

    doubled = write_heavy_atom_data(in_tmp_dir / "heavy.json")
    (in_tmp_dir / "cfg.json").write_text(json.dumps({"atom_data": "heavy.json"}))
    argv = ["tof", "fit", "--config", "cfg.json", "--in", "tof.csv", "--out", "heavy_fit.json"]
    assert cli.main(argv) == 0

    base = json.loads((in_tmp_dir / "base.json").read_text())
    heavy = json.loads((in_tmp_dir / "heavy_fit.json").read_text())
    # T = slope m / k_B: doubling the tabulated mass doubles the fitted T
    assert heavy["params"]["temperature_k"] == pytest.approx(
        2.0 * base["params"]["temperature_k"], rel=1e-9
    )
    # the manifest records the path and inlines the constants, so a replay
    # needs no atom data file
    manifest = json.loads((in_tmp_dir / "heavy_fit.json.manifest.json").read_text())
    assert manifest["config"]["atom_data"] == "heavy.json"
    assert manifest["config"]["atom_constants"] == doubled
    (in_tmp_dir / "heavy.json").unlink()
    capsys.readouterr()
    assert cli.main(["tof", "--manifest", "heavy_fit.json.manifest.json"]) == 0
    assert "reproduced heavy_fit.json" in capsys.readouterr().out


QUICK_START = [
    ["scan", "--out", "scan.csv"],
    ["fit", "--in", "scan.csv", "--out", "fit.json"],
    ["budget", "--theta", "0.0268", "--photons-per-pulse", "4.3e6", "--out", "budget.json"],
    ["decay", "simulate", "--out", "decay.csv"],
    ["decay", "fit", "--in", "decay.csv", "--out", "decay_fit.json"],
    ["tof", "simulate", "--out", "tof.csv"],
    ["tof", "fit", "--in", "tof.csv", "--out", "tof_fit.json"],
    ["pulse", "--noisy", "--seed", "7", "--out", "pulse.csv"],
]


def test_atom_data_environment_variable_is_ignored(in_tmp_dir, monkeypatch):
    # the config key atom_data is the one way to other atom data; the
    # COLDSPIN_ATOM_DATA variable of releases before 0.4.0 changes nothing
    write_heavy_atom_data(in_tmp_dir / "heavy.json")
    outputs = {}
    for name, env in (("plain", None), ("with-variable", str(in_tmp_dir / "heavy.json"))):
        if env:
            monkeypatch.setenv("COLDSPIN_ATOM_DATA", env)
        (in_tmp_dir / name).mkdir()
        monkeypatch.chdir(in_tmp_dir / name)
        for argv in QUICK_START:
            assert cli.main(argv) == 0
        outputs[name] = {path.name: path.read_bytes() for path in Path().iterdir()}
    assert len(outputs["plain"]) == 2 * len(QUICK_START) + 1  # plus the scan curve
    assert outputs["with-variable"] == outputs["plain"]


def test_pulse_waveform(in_tmp_dir):
    assert cli.main(["pulse", "--out", "pulse.csv"]) == 0
    rows = (in_tmp_dir / "pulse.csv").read_text().splitlines()
    assert rows[0] == "sample_index,value"
    assert len(rows) > 100
    noiseless = (in_tmp_dir / "pulse.csv").read_bytes()

    assert cli.main(["pulse", "--noisy", "--seed", "3", "--out", "noisy.csv"]) == 0
    assert (in_tmp_dir / "noisy.csv").read_bytes() != noiseless


def test_scan_near_resonance_exits_3(in_tmp_dir, capsys):
    code = run_scan(
        in_tmp_dir, config_overrides={"detunings_hz": [-1.6e9, -1e6]}
    )
    assert code == 3
    assert "linewidths" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scan",
    [{"detunings_hz": [-1e9, 1e9]},
     {"detuning_start_hz": -1e9, "detuning_stop_hz": 1e9, "n_detunings": 2}],
    ids=["list", "start-stop"],
)
def test_scan_failing_on_its_curve_writes_nothing(in_tmp_dir, capsys, scan):
    # both detunings clear the guard, but the model curve between them
    # crosses the F'=0 resonance
    (in_tmp_dir / "c.json").write_text(json.dumps({"scan": scan}))
    assert cli.main(["scan", "--config", "c.json", "--out", "s.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: detuning -5.52764e+07 Hz is within 10 linewidths of the "
                          "F'=0 resonance at scan.detunings_hz = ")
    assert sorted(path.name for path in in_tmp_dir.iterdir()) == ["c.json"]


def test_unknown_config_key_rejected(in_tmp_dir, capsys):
    bad = in_tmp_dir / "bad.json"
    bad.write_text(json.dumps({"scann": {}}))
    assert cli.main(["scan", "--config", str(bad), "--out", "s.csv"]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_malformed_config_json(in_tmp_dir, capsys):
    bad = in_tmp_dir / "bad.json"
    bad.write_text("{\n  broken\n")
    assert cli.main(["scan", "--config", str(bad), "--out", "s.csv"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_scan_rejects_negative_atoms(in_tmp_dir):
    assert run_scan(in_tmp_dir, extra=["--atoms", "-1"]) == 2


def test_scan_rejects_zero_threads(in_tmp_dir, capsys):
    assert run_scan(in_tmp_dir, extra=["--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


def test_bad_atom_data_exits_2(in_tmp_dir, capsys):
    document = default_atom_document()
    document["hf_splitting_f1_hz"] = 0.0
    (in_tmp_dir / "atom.json").write_text(json.dumps(document))
    assert run_scan(in_tmp_dir, atom_data="atom.json") == 2
    assert "hf_splitting_f1_hz" in capsys.readouterr().err


# a command line of each command that runs on the default config; fit
# reads the default scan
ATOM_DATA_ARGV = {
    "scan": ["scan"],
    "fit": ["fit", "--in", "scan.csv"],
    "budget": ["budget", "--theta", "0.03"],
    "decay": ["decay", "simulate"],
    "tof": ["tof", "simulate"],
    "pulse": ["pulse"],
}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_invalid_atom_data_exits_2_for_every_command(fit_inputs, in_tmp_dir, capsys, command):
    # every command checks the atom data, used or not, before it writes a file
    argv = [str(fit_inputs / arg) if arg.endswith(".csv") else arg
            for arg in ATOM_DATA_ARGV[command]]
    (in_tmp_dir / "atom.json").write_text('{"bogus": 1}')
    (in_tmp_dir / "cfg.json").write_text('{"atom_data": "atom.json"}')
    assert cli.main([*argv, "--config", "cfg.json", "--out", "out.dat"]) == 2
    err = capsys.readouterr().err
    assert ("error: atom data document is missing key 'wavelength_m' "
            "at atom_data = 'atom.json'\n") == err
    assert sorted(path.name for path in in_tmp_dir.iterdir()) == ["atom.json", "cfg.json"]

    # a replay checks the constants its manifest inlines likewise
    assert cli.main([*argv, "--out", "out.dat"]) == 0
    manifest = json.loads((in_tmp_dir / "out.dat.manifest.json").read_text())
    manifest["config"]["atom_constants"] = {"bogus": 1}
    (in_tmp_dir / "edited.json").write_text(json.dumps(manifest))
    for output in manifest["outputs"]:
        (in_tmp_dir / output).unlink()
    before = {path.name: path.read_bytes() for path in in_tmp_dir.iterdir()}
    capsys.readouterr()
    assert cli.main([command, "--manifest", "edited.json"]) == 2
    err = capsys.readouterr().err
    assert ("error: edited.json: atom data document is missing key 'wavelength_m' "
            "at atom_constants.bogus = 1\n") == err
    assert {path.name: path.read_bytes() for path in in_tmp_dir.iterdir()} == before


@pytest.mark.parametrize("via", ["config", "replay"])
@pytest.mark.parametrize(
    "trap, key",
    [("not a trap", "atom data key 'trap' must be a JSON object"),
     ({"waist_m": -5e-5}, "trap.waist_m must be positive"),
     ({"extra": 1.0}, "atom data key 'trap' has unknown key 'extra'")],
    ids=["string", "negative-waist", "extra-key"],
)
def test_bad_atom_data_trap_section_exits_2(in_tmp_dir, capsys, trap, key, via):
    document = default_atom_document()
    if isinstance(trap, dict):
        document["trap"].update(trap)
    else:
        document["trap"] = trap
    if via == "config":
        (in_tmp_dir / "atom.json").write_text(json.dumps(document))
        assert run_scan(in_tmp_dir, atom_data="atom.json") == 2
    else:
        assert run_scan(in_tmp_dir) == 0
        (in_tmp_dir / "scan.csv").unlink()
        manifest = json.loads((in_tmp_dir / "scan.csv.manifest.json").read_text())
        manifest["config"]["atom_constants"] = document
        (in_tmp_dir / "edited.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["scan", "--manifest", "edited.json"]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not (in_tmp_dir / "scan.csv").exists()


@pytest.mark.parametrize("trap", ["packaged", "absent"])
def test_atom_data_trap_section_leaves_scan_unchanged(in_tmp_dir, trap):
    assert run_scan(in_tmp_dir, out="default.csv") == 0
    document = default_atom_document()
    if trap == "absent":
        del document["trap"]
    (in_tmp_dir / "atom.json").write_text(json.dumps(document))
    assert run_scan(in_tmp_dir, out="scan.csv", atom_data="atom.json") == 0
    assert (in_tmp_dir / "scan.csv").read_bytes() == (in_tmp_dir / "default.csv").read_bytes()
    manifest = json.loads((in_tmp_dir / "scan.csv.manifest.json").read_text())
    assert manifest["config"]["atom_data"] == "atom.json"
    assert manifest["config"]["atom_constants"] == document


HUGE_INTEGER = "1" + "0" * 400  # a JSON integer past the float range


def test_huge_config_integer_exits_2_naming_its_key(in_tmp_dir, capsys):
    (in_tmp_dir / "cfg.json").write_text(f'{{"ensemble": {{"n_atoms": {HUGE_INTEGER}}}}}')
    assert cli.main(["scan", "--config", "cfg.json", "--out", "scan.csv"]) == 2
    err = capsys.readouterr().err
    assert "config key 'ensemble.n_atoms' must fit a float" in err
    assert not (in_tmp_dir / "scan.csv").exists()


def test_replayed_huge_integer_exits_2_naming_its_key(in_tmp_dir, capsys):
    assert cli.main(["budget", "--theta", "0.03", "--out", "b.json"]) == 0
    manifest_path = in_tmp_dir / "b.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["budget"]["n_atoms"] = int(HUGE_INTEGER)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["budget", "--manifest", "b.json.manifest.json"]) == 2
    assert "config key 'budget.n_atoms' must fit a float" in capsys.readouterr().err


def test_integer_past_the_digit_limit_exits_2(in_tmp_dir, capsys):
    # Python refuses to parse an integer of over 4300 digits
    (in_tmp_dir / "cfg.json").write_text('{"threads": 1' + "0" * 5000 + "}")
    assert cli.main(["scan", "--config", "cfg.json", "--out", "scan.csv"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_decay_fit_with_a_rank_one_gradient_reports_no_sigma(in_tmp_dir, capsys, monkeypatch):
    import coldspin.ensemble

    assert cli.main(["decay", "simulate", "--out", "decay.csv"]) == 0
    # equal Jacobian columns: the scaled normal matrix has rank 1, which the
    # damping keeps solvable; the covariance at the end is undefined
    monkeypatch.setattr(coldspin.ensemble, "two_body_gradient", lambda *args: (1.0, 1.0, 1.0))
    capsys.readouterr()
    assert cli.main(["decay", "fit", "--in", "decay.csv", "--out", "fit.json"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    fit = json.loads((in_tmp_dir / "fit.json").read_text())
    assert fit["converged"] is True
    assert fit["nonfinite"] == {f"/sigmas/{name}": "inf"
                                for name in ("n0", "tau_s", "beta_m3_per_s")}


def test_decay_fit_of_data_without_one_body_loss_reports_tau_inf(in_tmp_dir, capsys):
    # at 10x the default count noise this data set favours no one-body
    # loss: gamma = 1/tau ends at its bound 0
    (in_tmp_dir / "noisy.json").write_text('{"decay": {"noise_fraction": 0.02}}')
    simulate = ["decay", "simulate", "--config", "noisy.json", "--seed", "7"]
    assert cli.main([*simulate, "--out", "decay.csv"]) == 0
    capsys.readouterr()
    assert cli.main(["decay", "fit", "--in", "decay.csv", "--out", "fit.json"]) == 0
    assert capsys.readouterr().err == ""
    fit = json.loads((in_tmp_dir / "fit.json").read_text())
    assert fit["nonfinite"] == {"/params/tau_s": "inf", "/sigmas/tau_s": "inf"}
    assert fit["params"]["beta_m3_per_s"] > 0.0


def test_decay_fit_of_a_simulation_without_loss(in_tmp_dir, capsys):
    # every count is n0: both loss rates end at 0, and the replay reproduces
    (in_tmp_dir / "flat.json").write_text(
        '{"decay": {"tau_s": Infinity, "beta_m3_per_s": 0.0, "noise_fraction": 0.0}}'
    )
    assert cli.main(["decay", "simulate", "--config", "flat.json", "--out", "decay.csv"]) == 0
    assert cli.main(["decay", "fit", "--in", "decay.csv", "--out", "fit.json"]) == 0
    fit = json.loads((in_tmp_dir / "fit.json").read_text())
    assert fit["params"]["n0"] == 1.2e6 and fit["chi2"] == 0.0
    assert fit["nonfinite"] == {"/params/tau_s": "inf", "/sigmas/tau_s": "inf",
                                "/sigmas/beta_m3_per_s": "inf"}
    capsys.readouterr()
    assert cli.main(["decay", "--manifest", "fit.json.manifest.json"]) == 0
    assert "reproduced fit.json" in capsys.readouterr().out


def test_replay_of_manifest_missing_a_config_key_exits_2(in_tmp_dir, capsys):
    run_scan(in_tmp_dir)
    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["config"]["scan"]["atom_number_spread"]
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 2
    assert "atom_number_spread" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda manifest: manifest["config"].update(scan=5), "'scan'"),
        (lambda manifest: manifest.update(outputs=[]), "'outputs'"),
        (lambda manifest: manifest.update(config=5), "'config'"),
        (lambda manifest: manifest["config"].update(out=1), "'out'"),
        (lambda manifest: manifest["config"].update(atom_constants=[]), "'atom_constants'"),
        (lambda manifest: manifest["config"].update(out="a\0b.csv"),
         "the output 'a\\x00b.csv' holds a NUL character"),
    ],
    ids=["config-section", "outputs", "config", "out-path", "atom-constants", "nul-out-path"],
)
def test_replay_of_malformed_manifest_shape_exits_2(in_tmp_dir, capsys, edit, key):
    run_scan(in_tmp_dir)
    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 2
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda config: config.update(bogus_top=1), "unknown config key 'bogus_top'"),
        (lambda config: config["scan"].update(bogus_key=1),
         "unknown config key 'scan.bogus_key'"),
        (lambda config: config.update({"in": "scan.csv"}), "unknown config key 'in'"),
        (lambda config: config.update(seed="abc"), "config key 'seed' must be a JSON integer"),
    ],
    ids=["top-level", "section", "input-path", "string-seed"],
)
def test_replay_checks_config_keys_as_config_does(in_tmp_dir, capsys, edit, message):
    run_scan(in_tmp_dir)
    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["config"])
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, section, key",
    [
        (["scan", "--out", "out.csv"], "scan", "pulse_period_s"),
        (["decay", "simulate", "--out", "out.csv"], "decay", "temperature_k"),
    ],
    ids=["scan-pulse-period", "decay-temperature"],
)
def test_replay_of_a_0_1_manifest_names_the_removed_key(in_tmp_dir, capsys, argv, section,
                                                         key):
    # a manifest as coldspin 0.1.0 wrote it: the same config plus a key
    # that changed no output and is gone since 0.2.0
    assert cli.main(argv) == 0
    manifest_path = in_tmp_dir / "out.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = "0.1.0"
    manifest["config"][section][key] = 2.0e-5
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main([argv[0], "--manifest", "out.csv.manifest.json"]) == 2
    err = capsys.readouterr().err
    assert f"unknown config key '{section}.{key}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "via, version, override, key",
    [
        ("manifest", "0.2.0", {"scan": {"pulse_duration_s": 1e-6}}, "scan.pulse_duration_s"),
        ("config", "0.2.0", {"scan": {"pulse_duration_s": 1e-6}}, "scan.pulse_duration_s"),
        ("manifest", "0.5.0", {"convention": "physical"}, "convention"),
        ("config", "0.5.0", {"convention": "physical"}, "convention"),
    ],
    ids=["manifest", "config", "convention-manifest", "convention-config"],
)
def test_scan_pulse_duration_is_refused_by_name(in_tmp_dir, capsys, via, version, override,
                                                key):
    # keys gone from the config are refused by name, both from a manifest
    # that the last version to take them wrote and from a --config file:
    # scan.pulse_duration_s changed no output and is gone since 0.3.0, and
    # convention, which picked a sign-reversed detuning model, since 0.6.0
    if via == "manifest":
        assert cli.main(["scan", "--out", "out.csv"]) == 0
        manifest_path = in_tmp_dir / "out.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = version
        manifest["config"] = cli._merge_config(manifest["config"], override)
        manifest_path.write_text(json.dumps(manifest))
        argv = ["scan", "--manifest", "out.csv.manifest.json"]
    else:
        (in_tmp_dir / "cfg.json").write_text(json.dumps(override))
        argv = ["scan", "--config", "cfg.json", "--out", "out.csv"]
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"unknown config key {key!r}" in err
    assert "Traceback" not in err


def test_replay_of_a_decay_manifest_checks_its_mode(in_tmp_dir, capsys):
    assert cli.main(["decay", "simulate", "--out", "d.csv"]) == 0
    manifest_path = in_tmp_dir / "d.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["mode"] = "simulated"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["decay", "--manifest", "d.csv.manifest.json"]) == 2
    assert "config key 'mode' must be simulate or fit" in capsys.readouterr().err


def test_manifest_naming_the_output_exits_2_before_any_work(in_tmp_dir, capsys):
    (in_tmp_dir / "a.csv").write_text("keep\n")
    code = run_scan(in_tmp_dir, out="a.csv", extra=["--manifest", "a.csv"])
    assert code == 2
    assert "the output 'a.csv' and the manifest 'a.csv' are one file" in capsys.readouterr().err
    assert (in_tmp_dir / "a.csv").read_text() == "keep\n"
    assert not (in_tmp_dir / "a_curve.csv").exists()


def files_in(directory) -> dict:
    """Each file's bytes by name, and a subdirectory's files_in."""
    return {path.name: files_in(path) if path.is_dir() else path.read_bytes()
            for path in directory.iterdir()}


def test_scan_whose_curve_overflows_exits_3_writing_nothing(in_tmp_dir, capsys):
    # the scan's angles are finite, but the column density of its model
    # curve, n_atoms / interaction_area_m2, is not: no output is written
    (in_tmp_dir / "s.csv").write_text("keep\n")
    (in_tmp_dir / "cfg.json").write_text(json.dumps(
        {"ensemble": {"interaction_area_m2": 1e-300, "n_atoms": 1e10},
         "scan": {"atom_number_spread": 0.0}}))
    before = files_in(in_tmp_dir)
    assert cli.main(["scan", "--config", "cfg.json", "--out", "s.csv"]) == 3
    assert "ensemble.interaction_area_m2" in capsys.readouterr().err
    assert files_in(in_tmp_dir) == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--out", "z.csv", "--manifest", "d"], "the manifest 'd' is a directory"),
        (["--out", "d"], "the output 'd' is a directory"),
    ],
    ids=["manifest", "output"],
)
def test_run_onto_a_directory_exits_2_writing_nothing(in_tmp_dir, capsys, argv, message):
    (in_tmp_dir / "d").mkdir()
    cfg = write_small_scan_config(in_tmp_dir / "cfg.json")
    before = files_in(in_tmp_dir)
    assert cli.main(["scan", "--config", cfg, *argv]) == 2
    assert message in capsys.readouterr().err
    assert files_in(in_tmp_dir) == before


def test_failing_write_exits_2_naming_its_error(in_tmp_dir, capsys):
    # an OSError no check before the run foresees: a file name longer
    # than the file system allows fails the first write
    cfg = write_small_scan_config(in_tmp_dir / "cfg.json")
    before = files_in(in_tmp_dir)
    assert cli.main(["scan", "--config", cfg, "--out", "x" * 300 + ".csv"]) == 2
    err = capsys.readouterr().err
    assert "File name too long" in err and "Traceback" not in err
    assert files_in(in_tmp_dir) == before


def test_manifest_naming_the_curve_file_is_not_written(in_tmp_dir, capsys):
    # the curve path follows from --out, so this clash exits before any work
    assert run_scan(in_tmp_dir, out="a.csv", extra=["--manifest", "a_curve.csv"]) == 2
    err = capsys.readouterr().err
    assert "the output 'a_curve.csv' and the manifest 'a_curve.csv' are one file" in err
    assert not (in_tmp_dir / "a.csv").exists()
    assert not (in_tmp_dir / "a_curve.csv").exists()


def test_curve_file_linked_to_the_output_exits_2_before_any_work(in_tmp_dir, capsys):
    (in_tmp_dir / "x.csv").write_text("keep\n")
    (in_tmp_dir / "x_curve.csv").symlink_to(in_tmp_dir / "x.csv")
    cfg = write_small_scan_config(in_tmp_dir / "cfg.json")
    before = files_in(in_tmp_dir)
    assert cli.main(["scan", "--config", cfg, "--out", "x.csv"]) == 2
    assert "the output 'x.csv' and the output 'x_curve.csv' are one file" in (
        capsys.readouterr().err)
    assert files_in(in_tmp_dir) == before


@pytest.mark.parametrize("out", ["s.csv", "./s.csv", "link.csv"])
def test_fit_onto_its_own_input_exits_2(in_tmp_dir, capsys, out):
    assert run_scan(in_tmp_dir, out="s.csv") == 0
    (in_tmp_dir / "link.csv").symlink_to(in_tmp_dir / "s.csv")
    before = {path.name: path.read_bytes() for path in in_tmp_dir.iterdir()}
    capsys.readouterr()
    assert cli.main(["fit", "--in", "s.csv", "--out", out]) == 2
    assert "are one file" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in in_tmp_dir.iterdir()} == before


def test_fit_onto_a_hard_link_to_its_input_exits_2(in_tmp_dir, capsys):
    # a hard link has its own name and no symlink to resolve: only the
    # file's device and inode tell that it is the input
    assert run_scan(in_tmp_dir, out="s.csv") == 0
    os.link(in_tmp_dir / "s.csv", in_tmp_dir / "h.csv")
    before = files_in(in_tmp_dir)
    capsys.readouterr()
    assert cli.main(["fit", "--in", "s.csv", "--out", "h.csv"]) == 2
    assert "the input 's.csv' and the output 'h.csv' are one file" in capsys.readouterr().err
    assert files_in(in_tmp_dir) == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--out", "z.csv", "--manifest", "missing/m.json"],
         "the directory of the manifest 'missing/m.json' does not exist"),
        (["--out", "missing/s.csv"], "the directory of the output 'missing/s.csv' does not exist"),
    ],
    ids=["manifest", "output"],
)
def test_run_into_a_missing_directory_exits_2_writing_nothing(in_tmp_dir, capsys, argv,
                                                              message):
    cfg = write_small_scan_config(in_tmp_dir / "cfg.json")
    before = files_in(in_tmp_dir)
    assert cli.main(["scan", "--config", cfg, *argv]) == 2
    assert message in capsys.readouterr().err
    assert files_in(in_tmp_dir) == before


def test_replay_recording_an_output_in_a_missing_directory_exits_2(in_tmp_dir, capsys):
    run_scan(in_tmp_dir)
    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["missing/x.csv"] = manifest["outputs"]["scan.csv"]
    manifest_path.write_text(json.dumps(manifest))
    before = files_in(in_tmp_dir)
    capsys.readouterr()
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 2
    assert "the directory of the output 'missing/x.csv' does not exist" in (
        capsys.readouterr().err)
    assert files_in(in_tmp_dir) == before


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({}, ["scan", "--config", "c.json", "--out", "c.json"],
         "the config 'c.json' and the output 'c.json' are one file"),
        ({"atom_data": "a.json"}, ["budget", "--theta", "0.02", "--config", "c.json",
                                   "--out", "a.json"],
         "the atom data 'a.json' and the output 'a.json' are one file"),
    ],
    ids=["config", "atom-data"],
)
def test_run_onto_its_own_config_or_atom_data_exits_2(in_tmp_dir, capsys, config, argv,
                                                      message):
    (in_tmp_dir / "c.json").write_text(json.dumps(config))
    (in_tmp_dir / "a.json").write_text(json.dumps(default_atom_document()))
    before = files_in(in_tmp_dir)
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err
    assert files_in(in_tmp_dir) == before


# an empty path in each of the five roles: open('') would fail only after
# the work, naming no file, and an empty atom_data once ran on the packaged
# constants
@pytest.mark.parametrize(
    "config, argv, role",
    [
        (None, ["scan", "--config", "", "--out", "s.csv"], "config"),
        ({"atom_data": ""}, ["scan", "--config", "c.json", "--out", "s.csv"], "atom data"),
        (None, ["fit", "--in", "", "--out", "f.json"], "input"),
        (None, ["budget", "--theta", "0.02", "--out", ""], "output"),
        (None, ["scan", "--out", "s.csv", "--manifest", ""], "manifest"),
        (None, ["scan", "--manifest", ""], "manifest"),
    ],
    ids=["config", "atom-data", "input", "output", "manifest", "replayed-manifest"],
)
def test_empty_path_exits_2_naming_its_role(in_tmp_dir, capsys, config, argv, role):
    if config is not None:
        (in_tmp_dir / "c.json").write_text(json.dumps(config))
    before = files_in(in_tmp_dir)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: the {role} path is empty\n"
    assert files_in(in_tmp_dir) == before


@pytest.mark.parametrize(
    "argv, key, role",
    [
        (["scan", "--out", "s.csv"], "out", "output"),
        (["fit", "--in", "s.csv", "--out", "f.json"], "in", "input"),
        (["budget", "--theta", "0.02", "--out", "b.json"], "atom_data", "atom data"),
    ],
    ids=["output", "input", "atom-data"],
)
def test_replayed_empty_path_exits_2_naming_its_role(in_tmp_dir, capsys, argv, key, role):
    assert run_scan(in_tmp_dir, out="s.csv") == 0
    assert cli.main(argv) == 0
    manifest_path = in_tmp_dir / f"{argv[-1]}.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"][key] = ""
    manifest_path.write_text(json.dumps(manifest))
    before = files_in(in_tmp_dir)
    capsys.readouterr()
    assert cli.main([argv[0], "--manifest", manifest_path.name]) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest_path.name}: the {role} path is empty\n")
    assert files_in(in_tmp_dir) == before


def test_replay_of_a_manifest_naming_itself_as_output_exits_2(in_tmp_dir, capsys):
    run_scan(in_tmp_dir)
    manifest_path = in_tmp_dir / "scan.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["config"]["out"] = "scan.csv.manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    recorded = manifest_path.read_bytes()
    capsys.readouterr()
    assert cli.main(["scan", "--manifest", "scan.csv.manifest.json"]) == 2
    assert "are one file" in capsys.readouterr().err
    assert manifest_path.read_bytes() == recorded


def test_distinct_paths_run_and_replay(in_tmp_dir, capsys):
    assert run_scan(in_tmp_dir, out="a.csv", extra=["--manifest", "a.json"]) == 0
    assert cli.main(["fit", "--in", "a.csv", "--out", "f.json", "--manifest", "m.json"]) == 0
    for command, manifest in (("scan", "a.json"), ("fit", "m.json")):
        assert cli.main([command, "--manifest", manifest]) == 0
    assert "reproduced f.json" in capsys.readouterr().out


CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*"))


@pytest.mark.parametrize("config", CONFIGS, ids=[path.name for path in CONFIGS])
def test_shipped_config_runs_a_scan(in_tmp_dir, config):
    assert cli.main(["scan", "--config", str(config), "--out", "scan.csv"]) == 0


def test_configs_are_shipped():
    assert CONFIGS


@pytest.mark.parametrize(
    "override, key",
    [
        ({"scan": {"photons_per_pulse": "abc"}}, "'scan.photons_per_pulse'"),
        ({"ensemble": {"n_atoms": None}}, "'ensemble.n_atoms'"),
        ({"scan": {"runs_per_point": 4.0}}, "'scan.runs_per_point'"),
        ({"threads": True}, "'threads'"),
        ({"scan": {"detunings_hz": ["-1.6e9"]}}, "scan.detunings_hz"),
        ({"atom_data": 5}, "'atom_data'"),
        ({"atom_data": "a\0b.json"}, "the atom data 'a\\x00b.json' holds a NUL character"),
    ],
    ids=["string-for-number", "null-for-number", "float-for-int", "bool-for-int",
         "string-detuning", "number-for-path", "nul-in-path"],
)
def test_wrongly_typed_config_value_exits_2(in_tmp_dir, capsys, override, key):
    (in_tmp_dir / "bad.json").write_text(json.dumps(override))
    assert cli.main(["scan", "--config", "bad.json", "--out", "s.csv"]) == 2
    assert key in capsys.readouterr().err


def test_int_for_float_and_null_overrides_pass(in_tmp_dir):
    override = {"ensemble": {"n_atoms": 1000000}, "atom_data": None,
                "scan": {"photons_per_pulse": 4000000, "runs_per_point": 4,
                         "pulses_per_sample": 3}}
    (in_tmp_dir / "ok.json").write_text(json.dumps(override))
    assert cli.main(["scan", "--config", "ok.json", "--out", "a.csv"]) == 0
    (in_tmp_dir / "floats.json").write_text(json.dumps(
        {**override, "ensemble": {"n_atoms": 1.0e6}, "scan": {
            **override["scan"], "photons_per_pulse": 4.0e6}}
    ))
    assert cli.main(["scan", "--config", "floats.json", "--out", "b.csv"]) == 0
    assert (in_tmp_dir / "a.csv").read_bytes() == (in_tmp_dir / "b.csv").read_bytes()
    # the check returns a number key's integer as a float, so both record 1e6
    for name in ("a.csv", "b.csv"):
        manifest = json.loads((in_tmp_dir / f"{name}.manifest.json").read_text())
        n_atoms = manifest["config"]["ensemble"]["n_atoms"]
        assert n_atoms == 1e6 and type(n_atoms) is float


def test_default_config_repeats_the_library_defaults():
    # the CLI's defaults are the library's, written out so that a manifest
    # records them; each section here must equal its class's defaults
    from coldspin.atomic_data import DEFAULT_GUARD_LINEWIDTHS
    from coldspin.detector import DetectorSpec, TransmissionSpec
    from coldspin.experiment import DestructionModel, ScanConfig

    config = cli._DEFAULT_CONFIG
    assert config["guard_linewidths"] == DEFAULT_GUARD_LINEWIDTHS
    for section, spec in [("detector", DetectorSpec), ("transmission", TransmissionSpec),
                          ("destruction", DestructionModel)]:
        assert config[section] == spec._defaults, section
    scan = {name: value for name, value in ScanConfig._defaults.items() if name != "seed"}
    assert {name: config["scan"][name] for name in scan} == scan


def test_import_loads_no_scipy():
    code = (
        "import sys, coldspin.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537])
def test_digest_is_sha256_across_the_read_block(monkeypatch, size):
    # outputs are digested from the bytes their writer returns, a bytearray
    # for a CSV table, and never read back
    data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    expected = hashlib.sha256(data).hexdigest()
    assert cli._sha256(data) == cli._sha256(bytearray(data)) == expected
    # a build without CPython's built-in module digests through hashlib
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert cli._sha256(data) == cli._sha256(bytearray(data)) == expected


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fit-inputs")
    for argv in (["scan"], ["tof", "simulate"], ["decay", "simulate"], ["pulse", "--noisy"]):
        out = directory / f"{argv[0]}.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
    # the scan-long and scan-wide shapes: 15 x 40 x 1000 and 15 x 400 x 10
    shapes = {"long.json": (40, 1000), "wide.json": (400, 10)}
    for name, (runs, pulses) in shapes.items():
        shape = {"scan": {"runs_per_point": runs, "pulses_per_sample": pulses}}
        (directory / name).write_text(json.dumps(shape) + "\n")
    decay_fit = ["decay", "fit", "--in", str(directory / "decay.csv")]
    assert cli.main([*decay_fit, "--out", str(directory / "decay_fit.json")]) == 0
    return directory


# stdlib modules no command may load: the value classes are
# coldspin.frozen's, annotations name collections.abc, and the packaged
# atom data is read from beside atomic_data's file
IMPORT_FLOOR = ("typing", "importlib.resources", "dataclasses")
# stdlib modules a well-formed command line loads none of: it is parsed
# from cli's table, which leaves argparse (and the gettext and locale it
# loads) to help, version and usage errors, outputs are digested with
# CPython's built-in SHA-256 module, not hashlib and the OpenSSL it loads,
# and JSON is read and written on _json, not json, whose regular
# expressions load re, enum, functools and collections
RUN_FLOOR = ("argparse", "gettext", "locale", "hashlib", "_hashlib", "json", "json.decoder",
             "json.encoder", "json.scanner", "re", "enum", "functools", "collections")
BUILTIN_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"

# runs cli.main on its arguments, then prints the exit code, the modules of
# IMPORT_FLOOR it loaded, every numpy module it loaded, the coldspin
# submodules it loaded (without the package's prefix), and the modules of
# RUN_FLOOR and BUILTIN_SHA256 it loaded, as JSON; sys.modules is read
# before json is imported to print
MAIN_AND_LOADED_MODULES = f"""
import sys
from coldspin import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = set(sys.modules)
import json
print(json.dumps([code, [m for m in {IMPORT_FLOOR!r} if m in loaded],
                  sorted(m for m in loaded if m.split('.')[0] == 'numpy'),
                  sorted(m[9:] for m in loaded if m.startswith('coldspin.')),
                  [m for m in {(*RUN_FLOOR, BUILTIN_SHA256)!r} if m in loaded]]))
"""


def loaded_modules_without_site(cwd, argv):
    """MAIN_AND_LOADED_MODULES's JSON and stderr for argv, run in cwd.

    -S skips site and its .pth hooks, which may load typing or
    importlib.resources before coldspin starts; numpy's own directory goes
    on the path instead, so that an import of numpy would succeed and
    show."""
    numpy_home = Path(importlib.util.find_spec("numpy").origin).parents[1]
    path = os.pathsep.join([str(Path(cli.__file__).parents[1]), str(numpy_home)])
    result = subprocess.run(
        [sys.executable, "-S", "-c", MAIN_AND_LOADED_MODULES, *argv], cwd=cwd,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1]), result.stderr


def run_main_without_site(cwd, argv):
    """As loaded_modules_without_site, with the coldspin submodules reduced
    to whether coldspin.analysis is among them, and without the modules of
    RUN_FLOOR and BUILTIN_SHA256."""
    (code, floor, numpy_modules, coldspin_modules, _), stderr = loaded_modules_without_site(
        cwd, argv)
    return [code, floor, numpy_modules, "analysis" in coldspin_modules], stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--in", "scan.csv", "--out", "fit.json"],
        ["budget", "--theta", "0.0268", "--photons-per-pulse", "4.3e6", "--out", "b.json"],
        ["tof", "fit", "--in", "tof.csv", "--out", "tof_fit.json"],
        ["decay", "fit", "--in", "decay.csv", "--out", "d.json"],
        ["decay", "--manifest", "decay_fit.json.manifest.json"],
        ["decay", "simulate", "--out", "d.csv"],
        ["tof", "simulate", "--out", "t.csv"],
        ["pulse", "--noisy", "--seed", "7", "--out", "p.csv"],
        ["decay", "--manifest", "decay.csv.manifest.json"],
        ["tof", "--manifest", "tof.csv.manifest.json"],
        ["pulse", "--manifest", "pulse.csv.manifest.json"],
        ["--help"],
        ["--version"],
        ["scan", "--out", "s.csv"],
        ["scan", "--manifest", "scan.csv.manifest.json"],
        # many short cells: 6000 of them, 60,000 pulses
        ["scan", "--config", "wide.json", "--out", "wide.csv"],
        # long trains: 600 cells of 1000 pulses, two draws a cell as any scan
        ["scan", "--config", "long.json", "--out", "long.csv"],
    ],
    ids=["fit", "budget", "tof-fit", "decay-fit", "decay-replay", "decay-simulate",
         "tof-simulate", "pulse-noisy", "decay-simulate-replay", "tof-simulate-replay",
         "pulse-replay", "help", "version", "scan", "scan-replay", "scan-wide",
         "scan-long-trains"],
)
def test_command_loads_no_numpy(fit_inputs, argv):
    (code, floor, modules, _), stderr = run_main_without_site(fit_inputs, argv)
    assert code == 0, stderr
    assert modules == [], modules[:20]
    assert floor == []


@pytest.mark.parametrize(
    "argv, loads_analysis",
    [
        (["decay", "simulate", "--out", "d.csv"], False),
        (["tof", "simulate", "--out", "t.csv"], False),
        (["decay", "--manifest", "decay.csv.manifest.json"], False),
        (["tof", "--manifest", "tof.csv.manifest.json"], False),
        # the fits do load it, which shows that the check sees the module
        (["decay", "fit", "--in", "decay.csv", "--out", "d.json"], True),
        (["tof", "fit", "--in", "tof.csv", "--out", "t.json"], True),
    ],
    ids=["decay-simulate", "tof-simulate", "decay-simulate-replay", "tof-simulate-replay",
         "decay-fit", "tof-fit"],
)
def test_simulations_load_no_fit_module(fit_inputs, argv, loads_analysis):
    (code, _, _, analysis), stderr = run_main_without_site(fit_inputs, argv)
    assert code == 0, stderr
    assert analysis is loads_analysis


# The coldspin submodules each command and its replay load, cli aside: the
# runners package, the command's own runner module and no other's, and the
# library modules it calls and theirs, none for an annotation or a
# constant.  Each also loads BUILTIN_SHA256 and none of RUN_FLOOR.
_BASE_MODULES = {"atomic_data", "csvio", "errors", "frozen", "jsonio", "runners"}
_FIT_MODULES = _BASE_MODULES | {"analysis", "summation"}
_SIMULATE_MODULES = _BASE_MODULES | {"ensemble", "rng"}
COMMAND_MODULES = {
    "scan": _BASE_MODULES | {"runners.scan", "detector", "experiment", "rng", "scandata",
                             "spin_optics", "summation"},
    "fit": _FIT_MODULES | {"runners.fit", "scandata", "spin_optics"},
    "budget": _BASE_MODULES | {"runners.budget", "budget"},
    "decay simulate": _SIMULATE_MODULES | {"runners.decay"},
    "decay fit": _FIT_MODULES | {"runners.decay", "ensemble"},
    "tof simulate": _SIMULATE_MODULES | {"runners.tof"},
    "tof fit": _FIT_MODULES | {"runners.tof"},
    "pulse": _BASE_MODULES | {"runners.pulse", "detector", "rng", "summation"},
}
# each quick-start command, writing files of its own beside fit_inputs' files
COMMAND_ARGV = {
    "scan": ["scan", "--out", "own_scan.csv"],
    "fit": ["fit", "--in", "scan.csv", "--out", "own_fit.json"],
    "budget": ["budget", "--theta", "0.0268", "--photons-per-pulse", "4.3e6",
               "--out", "own_budget.json"],
    "decay simulate": ["decay", "simulate", "--out", "own_decay.csv"],
    "decay fit": ["decay", "fit", "--in", "decay.csv", "--out", "own_decay_fit.json"],
    "tof simulate": ["tof", "simulate", "--out", "own_tof.csv"],
    "tof fit": ["tof", "fit", "--in", "tof.csv", "--out", "own_tof_fit.json"],
    "pulse": ["pulse", "--noisy", "--seed", "7", "--out", "own_pulse.csv"],
}


@pytest.mark.parametrize("command", COMMAND_ARGV,
                         ids=[command.replace(" ", "-") for command in COMMAND_ARGV])
def test_command_loads_only_its_modules(fit_inputs, command):
    argv = COMMAND_ARGV[command]
    replay = [argv[0], "--manifest", f"{argv[-1]}.manifest.json"]
    for run in (argv, replay):
        (code, floor, numpy_modules, modules, stdlib), stderr = loaded_modules_without_site(
            fit_inputs, run)
        assert code == 0, stderr
        assert set(modules) == COMMAND_MODULES[command] | {"cli"}, run
        assert floor == [] and numpy_modules == []
        # the built-in digest module shows that the check sees stdlib modules
        assert stdlib == [BUILTIN_SHA256], run


def modules_imported_as_main(cwd, argv) -> list:
    """The modules `python -S -X importtime -m coldspin.cli *argv` imports,
    run in cwd, by the names its import-time log gives them."""
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "coldspin.cli", *argv], cwd=cwd,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stderr.splitlines() if line.startswith("import time:")]
    return [line.rsplit("|", 1)[1].strip() for line in lines[1:]]  # the first is a header


@pytest.mark.parametrize("command", COMMAND_ARGV,
                         ids=[command.replace(" ", "-") for command in COMMAND_ARGV])
def test_command_run_as_main_imports_its_runner_and_no_second_cli(fit_inputs, in_tmp_dir,
                                                                  command):
    # cli runs as __main__ here, so a module that imported coldspin.cli would
    # compile and run all of it again; and a command compiles one runner
    for name in ("scan.csv", "decay.csv", "tof.csv"):
        (in_tmp_dir / name).write_bytes((fit_inputs / name).read_bytes())
    argv = COMMAND_ARGV[command]
    for run in (argv, [argv[0], "--manifest", f"{argv[-1]}.manifest.json"]):
        modules = modules_imported_as_main(in_tmp_dir, run)
        assert "coldspin.cli" not in modules, run
        runners = [module for module in modules if module.startswith("coldspin.runners.")]
        assert runners == [f"coldspin.runners.{argv[0]}"], run


def test_command_module_sets_stay_small():
    # library modules: the runner modules are the command's own code, which
    # cli held before it was split
    sizes = {command: len({m for m in modules if not m.startswith("runners")})
             for command, modules in COMMAND_MODULES.items()}
    # the benchmark's cli-session: the eight commands, then a scan replay and
    # a decay-fit replay
    assert sum(sizes.values()) + sizes["scan"] + sizes["decay fit"] <= 86
    for command in ("budget", "decay fit", "tof fit"):
        assert sizes[command] <= 8
        assert not COMMAND_MODULES[command] & {
            "detector", "spin_optics", "scandata", "rng", "experiment"}
    for command in ("decay simulate", "tof simulate"):
        assert not COMMAND_MODULES[command] & {"spin_optics", "detector", "analysis"}
    assert "detector" not in COMMAND_MODULES["fit"]
    assert not COMMAND_MODULES["budget"] & {"analysis", "summation"}


def test_bad_sigma_source_choice_is_usage_error(in_tmp_dir):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fit", "--in", "x.csv", "--out", "y.json", "--sigma-source", "var"])
    assert excinfo.value.code == 2


def test_pulse_rejects_zero_photons(in_tmp_dir, capsys):
    assert cli.main(["pulse", "--photons", "0", "--out", "pulse.csv"]) == 2
    assert "photons" in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize(
    "argv", [["decay", "simulate"], ["tof", "simulate"], ["pulse", "--noisy"]],
    ids=["decay", "tof", "pulse"],
)
def test_negative_seed_exits_2(in_tmp_dir, capsys, argv, via):
    section = argv[0]
    if via == "flag":
        extra = ["--seed", "-1"]
    else:
        (in_tmp_dir / "cfg.json").write_text(json.dumps({section: {"seed": -1}}))
        extra = ["--config", "cfg.json"]
    assert cli.main([*argv, *extra, "--out", "out.csv"]) == 2
    err = capsys.readouterr().err
    assert f"{section}.seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["budget", "--theta", "nan"], None, "budget.theta_rad"),
        (["pulse", "--theta", "nan"], None, "pulse.theta_rad"),
        (["decay", "simulate"], '{"decay": {"noise_fraction": NaN}}', "decay.noise_fraction"),
        (["scan"], '{"guard_linewidths": NaN}', "guard_linewidths"),
    ],
    ids=["budget-theta-flag", "pulse-theta-flag", "decay-noise-config", "guard-config"],
)
def test_nan_config_value_exits_2(in_tmp_dir, capsys, argv, config, key):
    extra = []
    if config is not None:
        (in_tmp_dir / "cfg.json").write_text(config + "\n")
        extra = ["--config", "cfg.json"]
    assert cli.main([*argv, *extra, "--out", "out.dat"]) == 2
    err = capsys.readouterr().err
    assert f"config key '{key}' must not be NaN" in err
    assert "Traceback" not in err
    assert not (in_tmp_dir / "out.dat").exists()


@pytest.mark.parametrize(
    "flags, key",
    [(["--theta", "inf"], "theta_rad"), (["--theta=-inf"], "theta_rad"),
     (["--theta", "0.03", "--atoms", "inf"], "n_atoms")],
    ids=["theta", "negative-theta", "atoms"],
)
def test_budget_rejects_infinite_inputs(in_tmp_dir, capsys, flags, key):
    assert cli.main(["budget", *flags, "--out", "b.json"]) == 2
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (in_tmp_dir / "b.json").exists()


@pytest.mark.parametrize(
    "flags, key",
    # theta_rad**2 is 1e-320 (subnormal) at 1e-160 and underflows to 0 at 1e-170
    [(["--theta", "1e-160"], "theta_rad = 1e-160"),
     (["--theta", "1e-170"], "theta_rad = 1e-170"),
     (["--theta", "0.03", "--photons-per-pulse", "1e-320"],
      "budget.photons_per_pulse = 1e-320")],
    ids=["theta-squared-subnormal", "theta-squared-underflow", "pulse-count"],
)
def test_budget_beyond_float_range_exits_3(in_tmp_dir, capsys, flags, key):
    assert cli.main(["budget", *flags, "--out", "b.json"]) == 3
    err = capsys.readouterr().err
    assert "exceeds the float range" in err and key in err
    assert not (in_tmp_dir / "b.json").exists()


def test_budget_of_an_angle_whose_square_overflows_is_zero(in_tmp_dir, capsys):
    # theta_rad**2 overflows at 1e200; the budget there underflows to 0
    argv = ["budget", "--theta", "1e200", "--photons-per-pulse", "4.3e6", "--out", "b.json"]
    assert cli.main(argv) == 0
    document = json.loads((in_tmp_dir / "b.json").read_text())
    assert (document["photons_total"], document["n_pulses"]) == (0.0, 0.0)
    assert capsys.readouterr().err == ""


# one value per _RULES row that its JSON type admits but its range does not
# (test_negative_seed_exits_2 covers the decay, tof and pulse seeds)
RANGE_VIOLATIONS = [
    (["scan"], {"threads": 0}, "threads"),
    (["scan"], {"ensemble": {"polarization": 0}}, "ensemble.polarization"),
    (["scan"], {"ensemble": {"interaction_area_m2": 0.0}}, "ensemble.interaction_area_m2"),
    (["scan"], {"scan": {"detunings_hz": []}}, "scan.detunings_hz"),
    (["scan"], {"scan": {"n_detunings": 0}}, "scan.n_detunings"),
    (["scan"], {"scan": {"seed": -1}}, "scan.seed"),
    (["budget"], {"budget": {"theta_rad": 0.03, "photons_per_pulse": 0.0}},
     "budget.photons_per_pulse"),
    (["decay", "simulate"], {"decay": {"n_times": 1}}, "decay.n_times"),
    (["decay", "simulate"], {"decay": {"noise_fraction": -0.1}}, "decay.noise_fraction"),
    (["tof", "simulate"], {"tof": {"n_times": 1}}, "tof.n_times"),
    (["tof", "simulate"], {"tof": {"noise_m": -1e-6}}, "tof.noise_m"),
    # an infinite bound once reached np.linspace and failed on NaN times
    (["decay", "simulate"], {"decay": {"t_start_s": -math.inf}}, "decay.t_start_s"),
    (["decay", "simulate"], {"decay": {"t_stop_s": math.inf}}, "decay.t_stop_s"),
    (["tof", "simulate"], {"tof": {"t_start_s": -math.inf}}, "tof.t_start_s"),
    (["tof", "simulate"], {"tof": {"t_stop_s": math.inf}}, "tof.t_stop_s"),
]


@pytest.mark.parametrize("argv, override, key", RANGE_VIOLATIONS,
                         ids=[key for *_, key in RANGE_VIOLATIONS])
def test_out_of_range_config_value_names_its_key(in_tmp_dir, capsys, argv, override, key):
    assert key in cli._RULES
    (in_tmp_dir / "cfg.json").write_text(json.dumps(override))
    assert cli.main([*argv, "--config", "cfg.json", "--out", "out.dat"]) == 2
    assert f"config key '{key}' must be" in capsys.readouterr().err
    assert not (in_tmp_dir / "out.dat").exists()


# Counts whose arrays would not fit in memory (up to 75 GiB, or past
# numpy's maximum size for 2**70): each exits 2 before any allocation, and
# its message names the key it holds.
OVERSIZED_COUNTS = {
    "runs": (["scan"], {"scan": {"runs_per_point": 10**9}}, "runs_per_point"),
    "detunings": (["scan"], {"scan": {"n_detunings": 10**10}}, "scan.n_detunings"),
    "decay-times": (["decay", "simulate"], {"decay": {"n_times": 10**10}}, "decay.n_times"),
    "2**70-detunings": (["scan"], {"scan": {"n_detunings": 2**70}}, "scan.n_detunings"),
    "2**70-runs": (["scan"], {"scan": {"runs_per_point": 2**70}}, "runs_per_point"),
    "2**70-decay-times": (["decay", "simulate"], {"decay": {"n_times": 2**70}},
                          "decay.n_times"),
    "2**70-tof-times": (["tof", "simulate"], {"tof": {"n_times": 2**70}}, "tof.n_times"),
}


@pytest.mark.parametrize(
    "argv, override, code, key",
    [
        # a scan reads the photon number alone, and 1e308 photons give
        # finite angles (it once exited 3 squaring 5e307 in a StokesState)
        (["scan"], {"scan": {"photons_per_pulse": 1e308}}, 0, None),
        # each once exited 3 with a bare "Numerical result out of range"
        (["decay", "simulate"], {"decay": {"sigma_r_m": 1e308}}, 3, "decay.sigma_r_m"),
        # each once exited naming no key: "float division by zero" from the
        # simulation, "v_eff must be positive, got 0.0" from the fit (which
        # checks the cloud before it reads its input)
        (["decay", "simulate"], {"decay": {"sigma_r_m": 1e-170}}, 3, "decay.sigma_r_m"),
        (["decay", "simulate"], {"decay": {"sigma_r_m": 1e-308}}, 3, "decay.sigma_z_m"),
        (["decay", "fit", "--in", "decay.csv"], {"decay": {"sigma_r_m": 1e-170}}, 3,
         "decay.sigma_r_m = 1e-170"),
        (["tof", "simulate"], {"tof": {"sigma0_m": 1e308}}, 3, "tof.sigma0_m"),
        (["tof", "simulate"], {"tof": {"t_stop_s": 1e308}}, 3, "tof.t_stop_s"),
        (["scan", "--atoms", "1e308"], {}, 3, "ensemble.n_atoms"),
        # beyond the probe's optical frequency
        (["scan"], {"scan": {"detuning_start_hz": 2**70}}, 2, None),
        *((argv, override, 2, None) for argv, override, _ in OVERSIZED_COUNTS.values()),
        # a scan costs the same at any pulse count, so it bounds only its runs:
        # these once exited 2, the paper's 2000 runs x 4000 pulses among them
        (["scan"], {"scan": {"pulses_per_sample": 2 * 10**9, "runs_per_point": 1}}, 0, None),
        (["scan"], {"scan": {"pulses_per_sample": 2**70}}, 0, None),
        (["scan"], {"scan": {"runs_per_point": 2000, "pulses_per_sample": 4000}}, 0, None),
        # both once wrote NaN rows and exited 0
        (["scan"], {"scan": {"atom_number_spread": 1e308}}, 3, None),
        (["decay", "simulate"], {"decay": {"n0": math.inf}}, 2, None),
        # each once wrote inf or nan rows that no reader accepts, and exited 0
        (["tof", "simulate"], {"tof": {"sigma0_m": math.inf}}, 3, None),
        (["pulse"], {"pulse": {"theta_rad": math.inf}}, 3, "pulse.theta_rad = inf"),
        (["pulse"], {"pulse": {"theta_rad": 1e300, "n_photons": 1e300}}, 3,
         "pulse.n_photons = 1e+300"),
        # each once exited naming an output row or a model argument, but no key:
        # at t = 0 the two-body term is kappa N0 x 0 = inf x 0, and the count inf
        (["decay", "simulate"], {"decay": {"sigma_z_m": 1e-200, "sigma_r_m": 1e-62}}, 3,
         "decay.sigma_z_m = 1e-200"),
        # once exited 3 as the row above: kappa N0 = 2.2e305 is finite
        (["decay", "simulate"], {"decay": {"sigma_z_m": 1e-200, "sigma_r_m": 1e-60}}, 0,
         None),
        (["decay", "simulate"], {"decay": {"beta_m3_per_s": 1e308}}, 3,
         "decay.beta_m3_per_s = 1e+308"),
        (["decay", "simulate"], {"decay": {"noise_fraction": 1e308}}, 3,
         "decay.noise_fraction = 1e+308"),
        (["tof", "simulate"], {"tof": {"temperature_k": 1e308}}, 3,
         "tof.temperature_k = 1e+308"),
        (["decay", "simulate"], {"decay": {"sigma_r_m": -1e308}}, 2,
         "decay.sigma_r_m = -1e+308"),
        (["decay", "simulate"], {"decay": {"t_start_s": -1e308}}, 2,
         "decay.t_start_s = -1e+308"),
        (["tof", "simulate"], {"tof": {"t_start_s": -1e308}}, 2, "tof.t_start_s = -1e+308"),
        # the runs' spread overflows where their mean angles do not, at 10
        # and at 1000 pulses a cell
        (["scan"], {"ensemble": {"interaction_area_m2": 1e-308}}, 3, "scan detuning"),
        (["scan"], {"transmission": {"t_h": 1e-308}}, 3, "scan detuning"),
        (["scan"], {"transmission": {"t_v": 1e-308}}, 3, "scan detuning"),
        (["scan"], {"ensemble": {"interaction_area_m2": 1e-308},
                    "scan": {"pulses_per_sample": 1000}}, 3, "scan detuning"),
        # the atom numbers overflow, at 1000 pulses a cell too
        (["scan"], {"scan": {"atom_number_spread": 1e308, "pulses_per_sample": 1000}}, 3,
         "scan detuning"),
        # each once exited 3 naming "a = 1e+308, n_atoms = ..." without the
        # section, or "out.csv row 2: value is inf, not finite"
        (["budget", "--a", "1e308"], {"budget": {"theta_rad": 0.03}}, 3, "budget.a = 1e+308"),
        (["budget", "--atoms", "1e308"], {"budget": {"theta_rad": 0.03}}, 3,
         "budget.n_atoms = 1e+308"),
        (["pulse"], {"pulse": {"theta_rad": 1e308}}, 3, "pulse.theta_rad = 1e+308"),
        # once exited 3 naming "out.csv row 2: value is inf, not finite" alone: the
        # imbalance is finite, and the calibration factor scales it past the range
        (["pulse"], {"detector": {"calibration_factor": 1e308}}, 3,
         "detector.calibration_factor = 1e+308"),
        # once exited 2 with "t_h * t_v must be nonzero", though t_h * t_v =
        # 0.25: the photon number's product with it underflows
        (["scan"], {"scan": {"photons_per_pulse": 5e-324},
                    "transmission": {"t_h": 0.5, "t_v": 0.5}}, 3,
         "scan.photons_per_pulse = 5e-324"),
    ],
    ids=["photons-per-pulse", "sigma-r", "sigma-r-underflow", "sigma-r-1e-308",
         "sigma-r-underflow-fit", "sigma0", "t-stop", "atoms-flag",
         "huge-int-detuning", *OVERSIZED_COUNTS, "pulses", "2**70-pulses",
         "2000-runs-4000-pulses", "atom-spread", "infinite-n0",
         "infinite-sigma0", "infinite-pulse-theta", "pulse-imbalance-overflow",
         "subnormal-volume", "subnormal-volume-simulates", "beta", "noise-fraction", "temperature",
         "negative-sigma-r", "decay-negative-start", "tof-negative-start",
         "spread-area", "spread-t-h", "spread-t-v", "spread-area-numpy",
         "atom-spread-numpy", "budget-a", "budget-atoms", "pulse-theta",
         "pulse-calibration", "photons-underflow"],
)
def test_extreme_values_honour_exit_codes(in_tmp_dir, capsys, argv, override, code, key):
    (in_tmp_dir / "cfg.json").write_text(json.dumps(override))
    assert cli.main([*argv, "--config", "cfg.json", "--out", "out.csv"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert bool(err) == (code != 0)
    if key:
        assert key in err
    out = in_tmp_dir / "out.csv"
    if code != 0:
        assert not out.exists()
    else:  # every field of every row is finite
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert rows and all(math.isfinite(float(field)) for row in rows for field in row)


@pytest.mark.parametrize("argv, override, key", OVERSIZED_COUNTS.values(),
                         ids=list(OVERSIZED_COUNTS))
def test_oversized_counts_name_their_key(in_tmp_dir, capsys, argv, override, key):
    (in_tmp_dir / "cfg.json").write_text(json.dumps(override))
    assert cli.main([*argv, "--config", "cfg.json", "--out", "out.csv"]) == 2
    assert key in capsys.readouterr().err
    assert not (in_tmp_dir / "out.csv").exists()


def _number_keys(document, prefix=""):
    for key, value in document.items():
        if isinstance(value, dict):
            yield from _number_keys(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield f"{prefix}{key}"


# the commands that read each section (or top-level key), fits included;
# a fit reads the default run's output
SWEEP_COMMANDS = {
    "guard_linewidths": [["scan"], ["fit", "--in", "scan.csv"]],
    "threads": [["scan"]],
    "ensemble": [["scan"]],
    "scan": [["scan"]],
    "detector": [["scan"], ["pulse"]],
    "transmission": [["scan"], ["pulse"]],
    "destruction": [["scan"]],
    "fit": [["fit", "--in", "scan.csv"]],
    "budget": [["budget"]],
    "decay": [["decay", "simulate"], ["decay", "fit", "--in", "decay.csv"]],
    "tof": [["tof", "simulate"], ["tof", "fit", "--in", "tof.csv"]],
    "pulse": [["pulse"]],
}
SWEEP_NUMBERS = [1e308, -1e308, 1e-308, -1e-308, math.inf, -math.inf]
SWEEP_ROWS = [
    (key, argv, SWEEP_NUMBERS)
    for key in [*_number_keys(cli._DEFAULT_CONFIG), "budget.theta_rad",
                "budget.photons_per_pulse"]
    for argv in SWEEP_COMMANDS[key.partition(".")[0]]
] + [("fit.sigma_source", ["fit", "--in", "scan.csv"], ["x"])]


@pytest.mark.parametrize("key, argv, values", SWEEP_ROWS,
                         ids=[f"{key}-{'-'.join(filter(str.isalpha, argv))}"
                              for key, argv, _ in SWEEP_ROWS])
def test_every_failure_at_an_extreme_value_names_its_key(fit_inputs, in_tmp_dir, capsys,
                                                          key, argv, values):
    argv = [str(fit_inputs / arg) if arg.endswith(".csv") else arg for arg in argv]
    unnamed = []
    for value in values:
        section, _, name = key.rpartition(".")
        # budget needs an angle
        config = {"budget": {"theta_rad": 0.03}} if argv[0] == "budget" else {}
        target = config.setdefault(section, {}) if section else config
        target[name] = value
        # json.dumps writes inf as Infinity; 1e999 is the strict JSON that parses as inf
        text = json.dumps(config).replace("-Infinity", "-1e999").replace("Infinity", "1e999")
        (in_tmp_dir / "cfg.json").write_text(text)
        code = cli.main([*argv, "--config", "cfg.json", "--out", "out.dat"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3) and "Traceback" not in err, (value, err)
        if code and key not in err and "scan detuning" not in err:
            unnamed.append((value, code, err))
    assert unnamed == []


@pytest.mark.parametrize(
    "simulate, fit",
    [(["scan"], ["fit"]), (["decay", "simulate"], ["decay", "fit"]),
     (["tof", "simulate"], ["tof", "fit"])],
    ids=["scan", "decay", "tof"],
)
def test_fit_accepts_trailing_blank_line(in_tmp_dir, simulate, fit):
    assert cli.main([*simulate, "--out", "data.csv"]) == 0
    assert cli.main([*fit, "--in", "data.csv", "--out", "a.json"]) == 0
    with open(in_tmp_dir / "data.csv", "a") as handle:
        handle.write("\n")
    assert cli.main([*fit, "--in", "data.csv", "--out", "b.json"]) == 0
    assert (in_tmp_dir / "a.json").read_bytes() == (in_tmp_dir / "b.json").read_bytes()


@pytest.mark.parametrize(
    "simulate, fit, column",
    [(["scan"], ["fit"], "theta_mean_rad"),
     (["decay", "simulate"], ["decay", "fit"], "atom_count"),
     (["tof", "simulate"], ["tof", "fit"], "sigma_m")],
    ids=["scan", "decay", "tof"],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fit_rejects_nonfinite_fields(in_tmp_dir, capsys, simulate, fit, column, value):
    assert cli.main([*simulate, "--out", "data.csv"]) == 0
    header, first, *rest = (in_tmp_dir / "data.csv").read_text().splitlines()
    fields = first.split(",")
    fields[header.split(",").index(column)] = value
    (in_tmp_dir / "data.csv").write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    capsys.readouterr()
    assert cli.main([*fit, "--in", "data.csv", "--out", "fit.json"]) == 2
    err = capsys.readouterr().err
    assert f"row 2: {column} must be finite, got '{value}'" in err
    assert "Traceback" not in err
    assert not (in_tmp_dir / "fit.json").exists()


@pytest.mark.parametrize(
    "argv",
    [["scan", "--config", "bad.json", "--out", "scan.csv"],
     ["scan", "--manifest", "bad.json"],
     ["tof", "simulate", "--config", "cfg.json", "--out", "tof.csv"]],
    ids=["config", "manifest", "atom-data"],
)
def test_non_utf8_json_exits_2(in_tmp_dir, capsys, argv):
    (in_tmp_dir / "bad.json").write_bytes(b"\xff\xfe\x00")
    (in_tmp_dir / "cfg.json").write_text(json.dumps({"atom_data": "bad.json"}))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "cannot read" in err and "bad.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("depth", [500, 200_000])
@pytest.mark.parametrize(
    "argv, document",
    [(["scan", "--config", "deep.json", "--out", "scan.csv"], '{"scan": {"seed": %s}}'),
     # decode_nonfinite copies a manifest that lists non-finite values
     (["scan", "--manifest", "deep.json"], '{"nonfinite": {}, "config": %s}'),
     (["tof", "simulate", "--config", "cfg.json", "--out", "tof.csv"], '{"trap": %s}')],
    ids=["config", "manifest", "atom-data"],
)
def test_deeply_nested_json_exits_2(in_tmp_dir, capsys, argv, document, depth):
    # each once ended in a RecursionError traceback, copying, merging or parsing
    (in_tmp_dir / "deep.json").write_text(document % ("[" * depth + "]" * depth))
    (in_tmp_dir / "cfg.json").write_text(json.dumps({"atom_data": "deep.json"}))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "deep.json nests objects and arrays more than" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "override",
    [{"pulse": {"pulse_duration_s": 3.5}}, {"detector": {"filter_sigma_s": 3.5}}],
    ids=["pulse-duration", "filter-sigma"],
)
def test_oversized_waveform_exits_2(in_tmp_dir, capsys, override):
    # unbounded, these traces would take 3.5e8 and 5.6e9 samples
    (in_tmp_dir / "big.json").write_text(json.dumps(override))
    assert cli.main(["pulse", "--config", "big.json", "--out", "pulse.csv"]) == 2
    assert "samples" in capsys.readouterr().err
    assert not (in_tmp_dir / "pulse.csv").exists()


# Every subcommand's parser: its help, then per action the option strings,
# dest, type, choices, const, nargs, metavar and help.
COMMON_ACTIONS = [
    (("--config",), "config", None, None, None, None, "PATH", "JSON configuration file"),
    (("--seed",), "seed", int, None, None, None, "INT", "override the RNG seed"),
    (("--out",), "out", None, None, None, None, "PATH", "primary output file"),
    (("--manifest",), "manifest", None, None, None, None, "PATH",
     "manifest path; given alone, replay that manifest and verify digests"),
]
MODE_ACTION = ((), "mode", None, ("simulate", "fit"), None, "?", None, None)
PARSER_SURFACE = {
    "scan": ("synthesize a detuning scan CSV", [
        *COMMON_ACTIONS,
        (("--atoms",), "atoms", float, None, None, None, None, "override ensemble.n_atoms"),
        (("--threads",), "threads", int, None, None, None, None,
         "validated and recorded in the manifest; scans run single-threaded "
         "and the value changes no output"),
    ]),
    "fit": ("fit column density to a scan CSV", [
        *COMMON_ACTIONS,
        (("--in",), "in_path", None, None, None, None, "PATH", "scan CSV to fit"),
        (("--unweighted",), "unweighted", None, None, True, 0, None,
         "ignore per-point spreads in the fit"),
        (("--sigma-source",), "sigma_source", None, ("stddev", "stderr"), None, None, None,
         "which reported spread weights the fit"),
    ]),
    "budget": ("photon budget for a target variance ratio", [
        *COMMON_ACTIONS,
        (("--a",), "a", float, None, None, None, None, "atomic-to-shot variance ratio"),
        (("--atoms",), "atoms", float, None, None, None, None, "atom number"),
        (("--theta",), "theta", float, None, None, None, None,
         "single-pass rotation angle (rad)"),
        (("--photons-per-pulse",), "photons_per_pulse", float, None, None, None, None,
         "also report the pulse count"),
    ]),
    "decay": ("trap-population decay (simulate or fit)", [
        MODE_ACTION,
        *COMMON_ACTIONS,
        (("--in",), "in_path", None, None, None, None, "PATH", "decay CSV to fit"),
    ]),
    "tof": ("ballistic expansion (simulate or fit)", [
        MODE_ACTION,
        *COMMON_ACTIONS,
        (("--in",), "in_path", None, None, None, None, "PATH", "expansion CSV to fit"),
    ]),
    "pulse": ("emit a single balanced-detection waveform", [
        *COMMON_ACTIONS,
        (("--theta",), "theta", float, None, None, None, None, "rotation angle (rad)"),
        (("--photons",), "photons", float, None, None, None, None, "photons in the pulse"),
        (("--noisy",), "noisy", None, None, True, 0, None,
         "add shot and electronic noise to the imbalance"),
    ]),
}


def test_parser_surface_is_unchanged():
    parser = cli.build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {choice.dest: choice.help for choice in commands._choices_actions}
    surface = {
        name: (helps[name], [
            (tuple(a.option_strings), a.dest, a.type, a.choices, a.const, a.nargs,
             a.metavar, a.help)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ])
        for name, sub in commands.choices.items()
    }
    assert surface == PARSER_SURFACE


def parse_outcome(capsys, parse, argv):
    """The exit code, stdout and stderr of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_command_parser_parses_as_the_full_parser(capsys, command):
    inputs = [[command, "--help"], [command, "--bogus"], [command, "--out"]]
    if command == "fit":
        inputs.append(["fit", "--sigma-source", "var"])
    for argv in inputs:
        full = parse_outcome(capsys, cli.build_parser().parse_args, argv)
        assert parse_outcome(capsys, cli.main, argv) == full, argv


@pytest.mark.parametrize(
    "argv, code, text",
    [(["--help"], 0, "{scan,fit,budget,decay,tof,pulse}\n"),
     (["--version"], 0, f"coldspin {cli.__version__}"),
     ([], 2, "error: the following arguments are required: command\n"),
     (["sacn"], 2, "error: argument command: invalid choice: 'sacn' (choose from 'scan', "
                   "'fit', 'budget', 'decay', 'tof', 'pulse')\n")],
    ids=["help", "version", "none", "unknown"],
)
def test_main_parses_top_level_input_as_the_full_parser(capsys, argv, code, text):
    full = parse_outcome(capsys, cli.build_parser().parse_args, argv)
    assert full[0] == code and text in full[1] + full[2]
    assert parse_outcome(capsys, cli.main, argv) == full


# every command, mode and option of cli's table, then tokens that argparse
# reads in ways of its own: an abbreviation, --opt=value, help, the end of
# options, a negative number, values float or int may take or refuse, and
# a choice fit refuses
PARSE_TOKENS = sorted({
    *cli._COMMANDS, "simulate", "fit", "--config", "--seed", "--out", "--manifest", "--in",
    *(flag.option for row in cli._COMMANDS.values() for flag in row.flags),
    "--se", "--seed=3", "-h", "--", "-1", "nan", "inf", "", " 7", "1_000", "var", "stderr",
})
PARSE_OPTIONS = [token for token in PARSE_TOKENS if token.startswith("-")]


def argparse_outcome(argv):
    """vars(build_parser().parse_args(argv)), or "exit" where argparse exits."""
    try:
        return vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        return "exit"


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of(
    st.lists(st.sampled_from(PARSE_TOKENS), max_size=7),
    # a command and its mode, then options that each take the next token
    st.builds(
        lambda command, mode, pairs: [command, *mode, *sum(pairs, ())],
        st.sampled_from(list(cli._COMMANDS)),
        st.lists(st.sampled_from(["simulate", "fit"]), max_size=1),
        st.lists(st.tuples(st.sampled_from(PARSE_OPTIONS), st.sampled_from(PARSE_TOKENS)),
                 max_size=4),
    ),
))
@example(argv=["fit", "--sigma-source", "var"])
@example(argv=["fit", "--sigma-source", "stderr", "--unweighted", "--unweighted"])
@example(argv=["decay", "--out", "x", "simulate"])
@example(argv=["tof", "fit", "--in", "", "--seed", " 7", "--seed", "1_000"])
@example(argv=["scan", "--atoms", "nan", "--seed", "nan"])
@example(argv=["budget", "--theta", "inf", "--out"])
def test_table_parse_agrees_with_argparse(argv):
    table = cli._parse(argv)
    if table is not None:  # repr, so that a NaN value equals itself
        assert repr(table) == repr(argparse_outcome(argv)), argv


def quick_start_argv():
    """Each command line of the README's quick start, after `coldspin`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("coldspin ")]


def test_quick_start_and_replays_take_the_table_parse():
    runs = quick_start_argv()
    assert len(runs) == 8
    for argv in runs:
        assert argv[-2] == "--out"
        for run in (argv, [argv[0], "--manifest", f"{argv[-1]}.manifest.json"]):
            table = cli._parse(run)
            assert table is not None, run
            assert repr(table) == repr(argparse_outcome(run)), run


# (subcommand, flag, value or None for a switch, config key, recorded value);
# "seed" is the manifest's top-level seed, null for fit and budget
FLAG_ROWS = [
    ("scan", "--atoms", "2e5", "ensemble.n_atoms", 2e5),
    ("scan", "--threads", "3", "threads", 3),
    ("scan", "--seed", "5", "scan.seed", 5),
    ("fit", "--unweighted", None, "fit.weighted", False),
    ("fit", "--sigma-source", "stderr", "fit.sigma_source", "stderr"),
    ("fit", "--seed", "5", "seed", None),
    ("budget", "--a", "2", "budget.a", 2.0),
    ("budget", "--atoms", "2e5", "budget.n_atoms", 2e5),
    ("budget", "--theta", "0.03", "budget.theta_rad", 0.03),
    ("budget", "--photons-per-pulse", "1e6", "budget.photons_per_pulse", 1e6),
    ("budget", "--seed", "5", "seed", None),
    ("decay", "--seed", "5", "decay.seed", 5),
    ("tof", "--seed", "5", "tof.seed", 5),
    ("pulse", "--theta", "0.01", "pulse.theta_rad", 0.01),
    ("pulse", "--photons", "1e6", "pulse.n_photons", 1e6),
    ("pulse", "--noisy", None, "pulse.noisy", True),
    ("pulse", "--seed", "5", "pulse.seed", 5),
]


def test_flag_rows_cover_every_command_flag():
    table = {(name, flag.option) for name, row in cli._COMMANDS.items() for flag in row.flags}
    table |= {(name, "--seed") for name in cli._COMMANDS}
    assert table == {(command, flag) for command, flag, *_ in FLAG_ROWS}


def test_readme_flag_table_is_the_command_table():
    # the README's flag -> config key table, with its one row for every
    # --seed expanded to the commands whose seed it sets
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("\n| flag | config key |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = set()
    for line in table.splitlines():
        flags, key = line.split(" | ")
        key = re.match(r"`([^`]+)`", key)[1]
        for command, flag in (usage.split() for usage in re.findall(r"`([^`]+)`", flags)):
            rows.add((command, flag, key.replace("<command>", command)))
    expected = {(name, flag.option, flag.key)
                for name, row in cli._COMMANDS.items() for flag in row.flags}
    expected |= {(name, "--seed", f"{row.seeded}.seed")
                 for name, row in cli._COMMANDS.items() if row.seeded}
    assert rows == expected


@pytest.mark.parametrize(
    "command, flag, value, key, expected", FLAG_ROWS,
    ids=[f"{command}{flag}" for command, flag, *_ in FLAG_ROWS],
)
def test_flag_sets_its_config_key(in_tmp_dir, capsys, command, flag, value, key, expected):
    base = {
        "scan": ["scan", "--config", write_small_scan_config(in_tmp_dir / "cfg.json")],
        "fit": ["fit", "--in", "scan.csv"],
        "budget": ["budget", "--theta", "0.02"],
        "decay": ["decay", "simulate"],
        "tof": ["tof", "simulate"],
        "pulse": ["pulse"],
    }[command]
    if command == "fit":
        run_scan(in_tmp_dir)
    given = [flag] if value is None else [flag, value]
    assert cli.main([*base, *given, "--out", "out.dat", "--manifest", "m.json"]) == 0
    manifest = json.loads((in_tmp_dir / "m.json").read_text())
    recorded = manifest["config"]
    for part in key.split("."):
        recorded = recorded[part]
    assert recorded == expected
    assert type(recorded) is type(expected)
    if flag == "--seed":
        assert manifest["seed"] == expected

    # --manifest with any other flag is a new run (which lacks --out or a
    # mode here), never a replay; --manifest alone replays
    capsys.readouterr()
    assert cli.main([command, "--manifest", "m.json", *given]) == 2
    assert "reproduced" not in capsys.readouterr().out
    assert cli.main([command, "--manifest", "m.json"]) == 0


# ------------------------------------------------------ exit-code fuzzing
#
# Each example edits one key of a --config document or of a recorded scan
# manifest and runs the CLI in a subprocess whose address space is capped,
# so an unbounded allocation fails the test with a MemoryError traceback
# instead of exhausting the machine.

FUZZ_MEMORY_BYTES = 512 * 2**20
FUZZ_DELETE = "<delete>"
FUZZ_VALUES = ["x", [1.0], {}, True, None, math.nan, math.inf, -math.inf, 1e308, -1e308,
               2**70, -1, 0, FUZZ_DELETE]
FUZZ_ARGVS = [["scan"], ["budget"], ["decay", "simulate"], ["tof", "simulate"], ["pulse"]]
NAN_TOKEN = re.compile(r"(?<![a-z_])nan(?![a-z_])", re.IGNORECASE)


def _key_paths(document, prefix=()):
    for key, value in document.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


FUZZ_CONFIG = json.loads(json.dumps(cli._DEFAULT_CONFIG))
FUZZ_CONFIG["scan"].update(runs_per_point=4, pulses_per_sample=3)
FUZZ_CONFIG["budget"]["theta_rad"] = 0.03
FUZZ_CONFIG_PATHS = list(_key_paths(FUZZ_CONFIG))
FUZZ_MANIFEST_PATHS = [
    ("command",), ("version",), ("seed",), ("config",), ("outputs",),
    *(("config", *path) for path in _key_paths(FUZZ_CONFIG)),
    ("config", "atom_constants"), ("config", "out"), ("config", "seed"),
]


def _edited(document, path, value):
    document = json.loads(json.dumps(document))
    *parents, last = path
    node = document
    for key in parents:
        node = node[key]
    if value == FUZZ_DELETE:
        del node[last]
    else:
        node[last] = value
    return document


def _run_capped(argv, cwd):
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (FUZZ_MEMORY_BYTES, FUZZ_MEMORY_BYTES))

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-m", "coldspin.cli", *argv], cwd=cwd, env=env,
        preexec_fn=cap_memory, capture_output=True, text=True, timeout=60,
    )


@pytest.fixture(scope="module")
def recorded_scan_manifest(tmp_path_factory):
    directory = tmp_path_factory.mktemp("recorded")
    (directory / "cfg.json").write_text(json.dumps(FUZZ_CONFIG))
    result = _run_capped(["scan", "--config", "cfg.json", "--out", "scan.csv"], directory)
    assert result.returncode == 0, result.stderr
    return json.loads((directory / "scan.csv.manifest.json").read_text())


@settings(max_examples=16, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edit=st.one_of(
        st.tuples(st.just("config"), st.sampled_from(FUZZ_ARGVS),
                  st.sampled_from(FUZZ_CONFIG_PATHS)),
        st.tuples(st.just("manifest"), st.just(["scan"]),
                  st.sampled_from(FUZZ_MANIFEST_PATHS)),
    ),
    value=st.sampled_from(FUZZ_VALUES),
)
def test_edited_documents_honour_exit_codes(recorded_scan_manifest, edit, value):
    target, argv, path = edit
    with tempfile.TemporaryDirectory() as directory:
        if target == "config":
            document = _edited(FUZZ_CONFIG, path, value)
            (Path(directory) / "cfg.json").write_text(json.dumps(document))
            argv = [*argv, "--config", "cfg.json", "--out", "out.dat"]
        else:
            document = _edited(recorded_scan_manifest, path, value)
            (Path(directory) / "m.json").write_text(json.dumps(document))
            argv = [*argv, "--manifest", "m.json"]
        result = _run_capped(argv, directory)
        assert result.returncode in (0, 2, 3), result.stderr
        assert "Traceback" not in result.stderr
        if result.returncode == 0:
            for output in Path(directory).iterdir():
                if output.name not in ("cfg.json", "m.json"):
                    assert not NAN_TOKEN.search(output.read_text()), output.name
