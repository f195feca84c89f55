import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coldspin import (
    CollectiveSpinState,
    DestructionModel,
    NearResonanceError,
    ScanConfig,
    ScanDataset,
    ScanPoint,
    DetectorSpec,
    TransmissionSpec,
    ValidationError,
    angle_variance,
    coherent_pulse,
    coherent_spin_state,
    coupling_constant,
    default_atom_spec,
    faraday_angle,
    read_scan_csv,
    run_detuning_scan,
    run_pulse_train,
    scattering_probability,
    write_scan_csv,
)
from coldspin import experiment
from coldspin.experiment import _cell_states, _set_cell_state

SPEC = default_atom_spec()
AREA = 1.0e6 / 2.65e14
DET = DetectorSpec()
TR = TransmissionSpec()


def small_config(**overrides):
    defaults = dict(
        detunings_hz=(-2.3e9, -1.6e9, -0.8e9),
        photons_per_pulse=4e6,
        pulses_per_sample=3,
        runs_per_point=5,
        atom_number_spread=0.10,
        seed=42,
    )
    defaults.update(overrides)
    return ScanConfig(**defaults)


def numpy_cell_stream(seed, detuning_index, run_index):
    """numpy's own generator for one scan cell, the oracle of the cell seeding."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(detuning_index, run_index)))
    )


def scaled(atoms, factor):
    """atoms with every mean, variance and the atom number times factor."""
    return CollectiveSpinState(
        tuple(m * factor for m in atoms.mean_j),
        tuple(v * factor for v in atoms.var_j),
        atoms.n_atoms * factor,
    )


def test_child_stream_is_deterministic_and_distinct():
    # each (seed, detuning, run) cell seeds a stream of its own
    a = _cell_states(7, 2, 5)
    assert a == _cell_states(7, 2, 5)
    assert a[:3] == _cell_states(7, 2, 3)
    assert len(set(a)) == 5
    for other in (_cell_states(7, 3, 5), _cell_states(8, 2, 5)):
        assert not set(other) & set(a)


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 10**30])
def test_child_stream_is_numpy_spawned_seed_sequence(seed):
    # the cell seeding re-derives numpy's SeedSequence and PCG64 arithmetic;
    # numpy's own construction is the oracle
    generator = np.random.Generator(np.random.PCG64(0))
    for detuning_index in (0, 1, 399, 2**16 + 3, 2**31):
        states = _cell_states(seed, detuning_index, 400)
        assert len(states) == 400
        for run_index in (0, 1, 2, 255, 256, 399):
            expected = numpy_cell_stream(seed, detuning_index, run_index)
            _set_cell_state(generator, *states[run_index])
            assert generator.bit_generator.state == expected.bit_generator.state
            assert np.array_equal(generator.standard_normal(16), expected.standard_normal(16))


def test_pulse_train_noiseless_signal_decays_geometrically():
    cp = coupling_constant(-1.6e9, AREA, SPEC)
    atoms = coherent_spin_state(1e6, "z")
    light = coherent_pulse(4e6, "x")
    dm = DestructionModel()  # default 1e-4 per pulse
    records, after = run_pulse_train(100, atoms, cp, light, dm, DET, TR, None)
    assert len(records) == 100
    theta0 = cp.g * 5e5
    for index, _, theta_hat in records:
        assert theta_hat == pytest.approx(theta0 * (1 - 1e-4) ** index, rel=1e-12)
    # post-train state carries the accumulated decay
    assert after.mean_j[2] == pytest.approx(5e5 * (1 - 1e-4) ** 100, rel=1e-12)
    assert after.var_j == atoms.var_j


def test_pulse_train_zero_destruction_is_stationary():
    cp = coupling_constant(-1.6e9, AREA, SPEC)
    atoms = coherent_spin_state(1e6, "z")
    light = coherent_pulse(4e6, "x")
    records, after = run_pulse_train(
        10, atoms, cp, light, DestructionModel(0.0), DET, TR, None
    )
    thetas = {r[2] for r in records}
    assert len(thetas) == 1
    assert after == atoms


def test_pulse_train_input_not_mutated():
    cp = coupling_constant(-1.6e9, AREA, SPEC)
    atoms = coherent_spin_state(1e6, "z")
    light = coherent_pulse(4e6, "x")
    run_pulse_train(5, atoms, cp, light, DestructionModel(), DET, TR, None)
    assert atoms == coherent_spin_state(1e6, "z")


def test_pulse_train_loads_no_numpy():
    # the train is the scalar chain, noisy from a NormalStream or noiseless
    code = """
import sys
from coldspin import (DestructionModel, DetectorSpec, TransmissionSpec, coherent_pulse,
                      coherent_spin_state, coupling_constant, default_atom_spec,
                      run_pulse_train)
from coldspin.rng import NormalStream
cp = coupling_constant(-1.6e9, 1.0e6 / 2.65e14, default_atom_spec())
args = (coherent_spin_state(1e6, "z"), cp, coherent_pulse(4e6, "x"),
        DestructionModel(), DetectorSpec(), TransmissionSpec())
for stream in (NormalStream(7), None):
    records, after = run_pulse_train(20, *args, stream)
    assert len(records) == 20 and after.mean_j[2] < 5e5
print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(experiment.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"


def run_scan(cfg, n_atoms=1e6):
    return run_detuning_scan(
        cfg,
        coherent_spin_state(n_atoms, "z"),
        SPEC,
        AREA,
        DET,
        TR,
        DestructionModel(),
    )


def reference_scan(cfg, atoms, dm, tr):
    """Each cell through numpy's own generator for it and run_pulse_train,
    the scalar chain, with the scan's aggregation."""
    points = []
    light = coherent_pulse(cfg.photons_per_pulse, "x")
    for d_index, detuning in enumerate(cfg.detunings_hz):
        cp = coupling_constant(detuning, AREA, SPEC)
        means = []
        for run_index in range(cfg.runs_per_point):
            stream = numpy_cell_stream(cfg.seed, d_index, run_index)
            factor = 1.0
            if cfg.atom_number_spread > 0.0:
                factor = max(0.0, 1.0 + cfg.atom_number_spread * float(stream.standard_normal()))
            records, _ = run_pulse_train(
                cfg.pulses_per_sample, scaled(atoms, factor), cp, light, dm,
                DET, tr, stream,
            )
            total = 0.0  # left to right: the built-in sum compensates on Python >= 3.12
            for _, _, theta in records:
                total += theta
            means.append(total / cfg.pulses_per_sample)
        values = np.array(means)
        stddev = float(values.std(ddof=1)) if cfg.runs_per_point > 1 else 0.0
        points.append(
            ScanPoint(
                detuning_hz=detuning,
                theta_mean_rad=float(values.mean()),
                theta_stderr_rad=stddev / math.sqrt(cfg.runs_per_point),
                theta_stddev_rad=stddev,
                n_runs=cfg.runs_per_point,
                n_pulses=cfg.pulses_per_sample,
            )
        )
    return ScanDataset(points=tuple(points))


# non-unit transmissions and an off-grid atom number, so that any change in
# the order of the floating-point operations shows in the last bit
LOSSY_TR = TransmissionSpec(t_h=0.93, t_v=0.87)
OFF_GRID = 0.9371


def assert_both_paths_match_reference(cfg, atoms, dm, monkeypatch):
    """Both scan paths equal reference_scan bit for bit: the shapes tested
    run plain, and a cutoff of -inf sends them down the numpy path (a scan
    of at most 3 pulses a cell weighs less than 0 units)."""
    expected = reference_scan(cfg, atoms, dm, LOSSY_TR)
    for cutoff in (experiment._PLAIN_SCAN_WORK, -math.inf):
        monkeypatch.setattr(experiment, "_PLAIN_SCAN_WORK", cutoff)
        scan = run_detuning_scan(cfg, atoms, SPEC, AREA, DET, LOSSY_TR, dm)
        assert scan == expected, (dm, cutoff)


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("spread", [0.0, 0.1])
@pytest.mark.parametrize("seed", [3, 2**64 + 7])
def test_scan_matches_per_cell_reference_exactly(seed, spread, monkeypatch):
    cfg = small_config(pulses_per_sample=4, atom_number_spread=spread, seed=seed)
    atoms = scaled(coherent_spin_state(1e6, "z"), OFF_GRID)
    for decay in (0.0, 0.01, 0.5):
        assert_both_paths_match_reference(cfg, atoms, DestructionModel(decay), monkeypatch)


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("decay", [0.0, 0.01, 0.5])
@pytest.mark.parametrize("n_pulses", [1, 7, 1000])
def test_trains_of_any_length_match_per_cell_reference_exactly(n_pulses, decay, monkeypatch):
    # one pulse, a few, and a long train halving <J_z> a thousand times
    cfg = small_config(detunings_hz=(-1.37e9,), pulses_per_sample=n_pulses, runs_per_point=3,
                       photons_per_pulse=3.3e6, seed=11)
    atoms = scaled(coherent_spin_state(1e6, "-z"), OFF_GRID)
    assert_both_paths_match_reference(cfg, atoms, DestructionModel(decay), monkeypatch)


def scan_work(runs, pulses, n_detunings=15):
    return n_detunings * runs * (pulses + experiment._PLAIN_CELL_PULSES)


# (runs, pulses) straddling the cutoff as 15-detuning scans: the default
# shape, 1 run, 1 pulse, two long trains, the scan-wide shape and the
# long_trains golden's shape below it; one just above it and the scan-long
# shape above it
RUN_MEANS_SHAPES = [(40, 10), (1, 1), (1, 1000), (55, 1), (55, 40), (400, 10), (4, 1000),
                    (1300, 10), (40, 1000)]


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("runs, pulses", RUN_MEANS_SHAPES)
def test_plain_and_numpy_run_means_are_equal(runs, pulses):
    sides = [scan_work(r, p) <= experiment._PLAIN_SCAN_WORK for r, p in RUN_MEANS_SHAPES]
    assert sides == [True] * 7 + [False] * 2
    couplings_g = [coupling_constant(d, AREA, SPEC).g for d in (-2.3e9, -1.37e9, 0.9e9)]
    tr = TransmissionSpec(t_h=0.93, t_v=0.87)
    cases = [
        # (seed, atom_number_spread, polarization, per-pulse decay)
        (7, 0.1, "z", 1e-4),
        (2**64 + 7, 0.0, "-z", 0.01),  # a three-word seed
        (2**160 + 3, 2.5, "-z", 0.0),  # six words; spread clips atom numbers at 0
    ]
    for seed, spread, axis, decay in cases:
        cfg = small_config(
            runs_per_point=runs, pulses_per_sample=pulses, atom_number_spread=spread, seed=seed
        )
        j_z = coherent_spin_state(1e6, axis).mean_j[2] * 0.9371
        args = (cfg, j_z, couplings_g, 3.3e6, DestructionModel(decay), DET, tr)
        plain = list(experiment._plain_run_means(*args))
        assert plain == list(experiment._numpy_run_means(*args)), seed
        assert [len(values) for values in plain] == [runs] * len(couplings_g)
        assert all(type(value) is float for values in plain for value in values)


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("n_runs", [1, 2, 7, 8, 40, 129, 400, 1000, 4099])
def test_scan_point_is_numpy_mean_and_std(n_runs):
    # past 8 values the pairwise order differs from a sequential sum, and
    # past 128 it recurses; the CSV's 12 digits would hide a last-bit slip
    values = np.random.Generator(np.random.PCG64(n_runs)).normal(0.03, 0.003, n_runs)
    point = experiment._scan_point(-1.6e9, values.tolist(), 10)
    assert point.theta_mean_rad.hex() == float(values.mean()).hex()
    stddev = float(values.std(ddof=1)) if n_runs > 1 else 0.0
    assert point.theta_stddev_rad.hex() == stddev.hex()
    assert point.theta_stderr_rad == stddev / math.sqrt(n_runs)
    with pytest.raises(OverflowError, match="overflows"):
        experiment._scan_point(-1.6e9, [*values.tolist(), math.inf], 10)


@pytest.mark.parametrize("seed", [5, 20260816])
def test_scan_stddev_matches_analytic_error_bar(seed):
    # per-run mean of P pulses: atom-number scatter s times the mean
    # destruction-weighted angle, plus detection noise averaged over P
    spread, n_runs, n_pulses, decay = 0.1, 4000, 10, 1.0e-4
    detuning = -1.6e9
    cfg = small_config(
        detunings_hz=(detuning,), runs_per_point=n_runs, pulses_per_sample=n_pulses,
        atom_number_spread=spread, seed=seed,
    )
    atoms = coherent_spin_state(1e6, "z")
    (point,) = run_detuning_scan(
        cfg, atoms, SPEC, AREA, DET, TR, DestructionModel(decay)
    ).points
    theta0 = faraday_angle(atoms, coupling_constant(detuning, AREA, SPEC).g)
    mean_destruction = (1.0 - (1.0 - decay) ** n_pulses) / (n_pulses * decay)
    predicted = math.sqrt(
        (spread * theta0 * mean_destruction) ** 2
        + angle_variance(cfg.photons_per_pulse, DET, TR) / n_pulses
    )
    relative_sigma = 1.0 / math.sqrt(2 * (n_runs - 1))
    assert abs(point.theta_stddev_rad / predicted - 1.0) < 5 * relative_sigma


def test_scan_shape_and_ordering():
    dataset = run_scan(small_config())
    assert len(dataset.points) == 3
    detunings = [p.detuning_hz for p in dataset.points]
    assert detunings == sorted(detunings)
    for p in dataset.points:
        assert p.n_runs == 5
        assert p.n_pulses == 3
        assert p.theta_stderr_rad == pytest.approx(
            p.theta_stddev_rad / math.sqrt(5), rel=1e-12
        )


def test_scan_mean_angle_tracks_coupling():
    # the mean rotation shrinks monotonically as the probe detunes further
    dataset = run_scan(small_config(runs_per_point=20))
    means = [p.theta_mean_rad for p in dataset.points]
    assert means[0] < means[1] < means[2]  # detunings ordered -2.3, -1.6, -0.8 GHz
    for p in dataset.points:
        from coldspin import rotation_cross_section

        truth = 0.5 * 2.65e14 * rotation_cross_section(p.detuning_hz, SPEC)
        assert p.theta_mean_rad == pytest.approx(truth, rel=0.15)


def test_scan_is_seed_reproducible():
    cfg = small_config()
    assert run_scan(cfg) == run_scan(cfg)


def test_scan_different_seed_differs():
    a = run_scan(small_config(seed=1))
    b = run_scan(small_config(seed=2))
    assert a != b


def test_scan_zero_spread_leaves_only_shot_noise():
    cfg = small_config(atom_number_spread=0.0, runs_per_point=8)
    dataset = run_scan(cfg)
    from coldspin import angle_variance

    shot_sigma = math.sqrt(angle_variance(4e6, DET, TR) / 3)  # 3-pulse average
    for p in dataset.points:
        assert p.theta_stddev_rad < 5 * shot_sigma


def test_scan_spread_dominates_stddev():
    cfg = small_config(runs_per_point=30)
    dataset = run_scan(cfg)
    for p in dataset.points:
        # 10% atom-number scatter puts the per-run spread at about
        # 10% of the mean angle, far above shot noise
        assert p.theta_stddev_rad == pytest.approx(0.1 * p.theta_mean_rad, rel=0.6)


def test_scan_single_run_reports_zero_spread():
    dataset = run_scan(small_config(runs_per_point=1))
    for p in dataset.points:
        assert p.theta_stddev_rad == 0.0
        assert p.theta_stderr_rad == 0.0


def test_scan_near_resonance_guard_names_detuning():
    cfg = small_config(detunings_hz=(-1.6e9, -1e6))
    with pytest.raises(NearResonanceError, match="-1e\\+06"):
        run_scan(cfg)


def test_scan_config_validation():
    with pytest.raises(ValidationError):
        small_config(pulses_per_sample=0)
    with pytest.raises(ValidationError):
        small_config(runs_per_point=0)
    with pytest.raises(ValidationError):
        small_config(seed=-1)
    with pytest.raises(ValidationError):
        small_config(seed=True)
    with pytest.raises(ValidationError):
        small_config(atom_number_spread=-0.1)
    with pytest.raises(ValidationError):
        small_config(detunings_hz=())


def test_scan_config_sorts_detunings():
    cfg = small_config(detunings_hz=(-0.8e9, -2.3e9, -1.6e9))
    assert cfg.detunings_hz == (-2.3e9, -1.6e9, -0.8e9)


def test_destruction_model_validation():
    DestructionModel(0.0)
    with pytest.raises(ValidationError):
        DestructionModel(1.0)
    with pytest.raises(ValidationError):
        DestructionModel(-1e-4)


def test_scattering_probability_value():
    # N sigma_0 (Gamma / 2 Delta)^2 / A at the benchmark operating point
    expected = (
        4.3e6
        * SPEC.cross_section_m2
        * (SPEC.linewidth_hz / (2.0 * -1.6e9)) ** 2
        / AREA
    )
    value = scattering_probability(-1.6e9, 4.3e6, AREA, SPEC)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value < 1e-3  # nondestructive operating point
    # frozen 40-digit reference computed at the rounded beam area
    anchored = scattering_probability(-1.6e9, 4.3e6, 3.77e-9, SPEC)
    assert anchored == pytest.approx(7.943753635613070e-4, rel=1e-12)


def test_scattering_probability_guard_and_validation():
    with pytest.raises(NearResonanceError):
        scattering_probability(1e6, 4e6, AREA, SPEC)
    with pytest.raises(ValidationError):
        scattering_probability(-1.6e9, -1.0, AREA, SPEC)
    with pytest.raises(ValidationError):
        scattering_probability(-1.6e9, 4e6, 0.0, SPEC)


def test_scan_csv_round_trip(tmp_path):
    dataset = run_scan(small_config())
    path = tmp_path / "scan.csv"
    write_scan_csv(dataset, path)
    loaded = read_scan_csv(path)
    assert len(loaded.points) == len(dataset.points)
    for a, b in zip(loaded.points, dataset.points):
        assert a.detuning_hz == pytest.approx(b.detuning_hz, rel=1e-11)
        assert a.theta_mean_rad == pytest.approx(b.theta_mean_rad, rel=1e-11)
        assert a.theta_stderr_rad == pytest.approx(b.theta_stderr_rad, rel=1e-11)
        assert a.theta_stddev_rad == pytest.approx(b.theta_stddev_rad, rel=1e-11)
        assert (a.n_runs, a.n_pulses) == (b.n_runs, b.n_pulses)


def test_scan_csv_format(tmp_path):
    dataset = run_scan(small_config())
    path = tmp_path / "scan.csv"
    write_scan_csv(dataset, path)
    raw = path.read_bytes().decode()
    lines = raw.splitlines()
    assert lines[0] == "detuning_hz,theta_mean_rad,theta_stderr_rad,theta_stddev_rad,n_runs,n_pulses"
    assert "\r" not in raw
    first = lines[1].split(",")
    assert first[0] == "-2.30000000000e+09"  # 12 significant digits


def test_scan_csv_error_reporting(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValidationError, match="empty"):
        read_scan_csv(empty)

    header_only = tmp_path / "header.csv"
    write_scan_csv(run_scan(small_config()), header_only)
    header_only.write_text(header_only.read_text().splitlines()[0] + "\n")
    with pytest.raises(ValidationError, match="no data rows"):
        read_scan_csv(header_only)

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError, match="schema"):
        read_scan_csv(bad_header)

    short_row = tmp_path / "short.csv"
    good = write_scan_csv(run_scan(small_config()), short_row) or short_row.read_text()
    short_row.write_text(good.splitlines()[0] + "\n1.0,2.0\n")
    with pytest.raises(ValidationError, match="row 2"):
        read_scan_csv(short_row)

    junk_row = tmp_path / "junk.csv"
    junk_row.write_text(good.splitlines()[0] + "\n" + good.splitlines()[1] + "\nx,1,1,1,1,1\n")
    with pytest.raises(ValidationError, match="row 3"):
        read_scan_csv(junk_row)

    blank_line = tmp_path / "blank.csv"
    blank_line.write_text(good + "\n")
    complete = tmp_path / "complete.csv"
    complete.write_text(good)
    assert read_scan_csv(blank_line) == read_scan_csv(complete)

    with pytest.raises(ValidationError, match="cannot read"):
        read_scan_csv(tmp_path / "absent.csv")


def test_scan_point_validation():
    with pytest.raises(ValidationError):
        ScanPoint(
            detuning_hz=-1.6e9,
            theta_mean_rad=0.02,
            theta_stderr_rad=-1e-4,
            theta_stddev_rad=1e-3,
            n_runs=4,
            n_pulses=2,
        )


def test_scan_dataset_requires_points():
    with pytest.raises(ValidationError):
        ScanDataset(points=())
