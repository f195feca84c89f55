import math
import os
import statistics
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
    format_scan_csv,
    read_scan_csv,
    run_detuning_scan,
    run_pulse_train,
    scattering_probability,
)
from coldspin import experiment
from coldspin.rng import normal_draws, seeded_state, spawned_state

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


def numpy_detuning_stream(seed, detuning_index):
    """numpy's own generator for one detuning of a scan, the oracle of the
    scan's seeding."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(detuning_index,)))
    )


def scaled(atoms, factor):
    """atoms with every mean, variance and the atom number times factor."""
    return CollectiveSpinState(
        tuple(m * factor for m in atoms.mean_j),
        tuple(v * factor for v in atoms.var_j),
        atoms.n_atoms * factor,
    )


def test_child_stream_is_deterministic_and_distinct():
    # each (seed, detuning) pair seeds a stream of its own
    states = {(seed, key): spawned_state(seed, key) for seed in (7, 8) for key in range(5)}
    assert spawned_state(7, 2) == states[7, 2]
    assert len(set(states.values())) == len(states)


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 10**30])
def test_child_stream_is_numpy_spawned_seed_sequence(seed):
    # the detuning seeding re-derives numpy's SeedSequence and PCG64
    # arithmetic; numpy's own construction is the oracle.  2**33 takes two
    # spawn-key words.
    for detuning_index in (0, 1, 14, 2**31, 2**33):
        state, inc = spawned_state(seed, detuning_index)
        expected = numpy_detuning_stream(seed, detuning_index)
        assert expected.bit_generator.state["state"] == {"state": state, "inc": inc}
        assert normal_draws(state, inc, 16)[0] == expected.standard_normal(16).tolist()


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


@pytest.mark.parametrize("count", [0, 4, 6])
def test_pulse_train_takes_one_draw_per_pulse(count):
    # a shorter sequence would drop pulses, and a longer one leave draws unread
    cp = coupling_constant(-1.6e9, AREA, SPEC)
    args = (coherent_spin_state(1e6, "z"), cp, coherent_pulse(4e6, "x"),
            DestructionModel(), DET, TR)
    with pytest.raises(ValidationError, match="one draw per pulse, 5, got"):
        run_pulse_train(5, *args, [0.5] * count)
    records, _ = run_pulse_train(5, *args, [0.5] * 5)
    assert len(records) == 5


def test_pulse_train_loads_no_numpy():
    # the train is the scalar chain, noisy with rng's draws or noiseless
    code = """
import sys
from coldspin import (DestructionModel, DetectorSpec, TransmissionSpec, coherent_pulse,
                      coherent_spin_state, coupling_constant, default_atom_spec,
                      run_pulse_train)
from coldspin.rng import normal_draws, seeded_state
cp = coupling_constant(-1.6e9, 1.0e6 / 2.65e14, default_atom_spec())
args = (coherent_spin_state(1e6, "z"), cp, coherent_pulse(4e6, "x"),
        DestructionModel(), DetectorSpec(), TransmissionSpec())
for normals in (normal_draws(*seeded_state(7), 20)[0], None):
    records, after = run_pulse_train(20, *args, normals)
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
    """Each detuning's draws from numpy's own generator for it, read in
    pairs, the atom-number normal and then the noise normal of each run,
    through the closed form of a run's mean angle, with the scan's
    aggregation done by numpy."""
    points = []
    n_photons, n_pulses = cfg.photons_per_pulse, cfg.pulses_per_sample
    denominator = n_photons * tr.t_h * tr.t_v
    decay = dm.per_pulse_decay
    signal_sum = -math.expm1(n_pulses * math.log1p(-decay)) / decay if decay else n_pulses
    noise_sum = math.sqrt(n_photons + DET.electronic_noise_var) * math.sqrt(n_pulses)
    for d_index, detuning in enumerate(cfg.detunings_hz):
        g = coupling_constant(detuning, AREA, SPEC).g
        draws = numpy_detuning_stream(cfg.seed, d_index).standard_normal(
            2 * cfg.runs_per_point
        ).tolist()
        means = []
        for atom_normal, noise_normal in zip(draws[0::2], draws[1::2]):
            j_z = atoms.mean_j[2]
            if cfg.atom_number_spread > 0.0:
                j_z *= max(0.0, 1.0 + cfg.atom_number_spread * atom_normal)
            total = (g * j_z * n_photons * tr.t_h * tr.t_v / denominator * signal_sum
                     + noise_sum / denominator * noise_normal)
            means.append(total / n_pulses)
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


def assert_matches_reference(cfg, atoms, dm):
    scan = run_detuning_scan(cfg, atoms, SPEC, AREA, DET, LOSSY_TR, dm)
    assert scan == reference_scan(cfg, atoms, dm, LOSSY_TR), dm


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("spread", [0.0, 0.1])
@pytest.mark.parametrize("seed", [3, 2**64 + 7])
def test_scan_matches_per_cell_reference_exactly(seed, spread):
    cfg = small_config(pulses_per_sample=4, atom_number_spread=spread, seed=seed)
    atoms = scaled(coherent_spin_state(1e6, "z"), OFF_GRID)
    for decay in (0.0, 0.01, 0.5):
        assert_matches_reference(cfg, atoms, DestructionModel(decay))


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("decay", [0.0, 0.01, 0.5])
@pytest.mark.parametrize("n_pulses", [1, 7, 1000])
def test_trains_of_any_length_match_per_cell_reference_exactly(n_pulses, decay):
    # one pulse, a few, and a long train halving <J_z> a thousand times
    cfg = small_config(detunings_hz=(-1.37e9,), pulses_per_sample=n_pulses, runs_per_point=3,
                       photons_per_pulse=3.3e6, seed=11)
    atoms = scaled(coherent_spin_state(1e6, "-z"), OFF_GRID)
    assert_matches_reference(cfg, atoms, DestructionModel(decay))


def test_more_runs_extend_each_detunings_runs():
    # a detuning's stream does not depend on how many draws are taken from
    # it, so the runs of a 40-run scan are the first 40 runs of a 400-run one
    def run_means(runs):
        cfg = small_config(runs_per_point=runs, pulses_per_sample=10)
        couplings = [coupling_constant(d, AREA, SPEC).g for d in cfg.detunings_hz]
        return list(experiment._run_means(cfg, 5e5, couplings, DestructionModel(), DET, TR))

    few, many = run_means(40), run_means(400)
    assert len(few) == len(many) == 3
    for short, long in zip(few, many):
        assert len(short) == 40 and len(long) == 400
        assert short == long[:40]


@pytest.mark.parametrize("decay", [0.0, 1e-4, 0.5, 1 - 2**-53])
@pytest.mark.parametrize("n_pulses", [1, 7, 1000, 10**6])
def test_decay_sum_is_the_sequential_sum(n_pulses, decay):
    # <J_z> decays pulse by pulse as run_pulse_train decays it; the loop
    # compounds the rounding of keep and of its sums over ~1/decay terms,
    # 5e-13 at decay 1e-4 and 10**6 pulses, so the bound is 1e-11
    keep, term, total = 1.0 - decay, 1.0, 0.0
    for _ in range(n_pulses):
        total += term
        term *= keep
    assert experiment._decay_sum(decay, n_pulses) == pytest.approx(total, rel=1e-11, abs=0)


@pytest.mark.parametrize("spread", [0.0, 0.1])
def test_scan_moments_match_per_pulse_trains(spread):
    # the scan stands for each cell's train with two draws; run_pulse_train
    # on independent draws must give the same mean and spread of the runs'
    # mean angles, each within 5 standard errors of their difference
    n_runs, n_pulses, decay = 2000, 10, 0.1
    cfg = small_config(detunings_hz=(-1.37e9,), runs_per_point=n_runs, pulses_per_sample=n_pulses,
                       photons_per_pulse=3.3e6, atom_number_spread=spread, seed=17)
    atoms = coherent_spin_state(1e6, "z")
    dm = DestructionModel(decay)
    (point,) = run_detuning_scan(cfg, atoms, SPEC, AREA, DET, LOSSY_TR, dm).points

    cp = coupling_constant(-1.37e9, AREA, SPEC)
    light = coherent_pulse(cfg.photons_per_pulse, "x")
    draws = normal_draws(*seeded_state(2024), n_runs * (n_pulses + 1))[0]
    means = []
    for run in range(n_runs):
        atom_normal, *normals = draws[run * (n_pulses + 1):(run + 1) * (n_pulses + 1)]
        factor = max(0.0, 1.0 + spread * atom_normal)
        records, _ = run_pulse_train(n_pulses, scaled(atoms, factor), cp, light, dm, DET,
                                     LOSSY_TR, normals)
        means.append(math.fsum(theta for *_, theta in records) / n_pulses)
    mean, stddev = statistics.fmean(means), statistics.stdev(means)

    assert abs(point.theta_mean_rad - mean) < 5 * stddev * math.sqrt(2 / n_runs)
    assert abs(point.theta_stddev_rad / stddev - 1) < 5 / math.sqrt(n_runs - 1)


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
    # a detuning draws two normals a run, whatever its pulse count
    with pytest.raises(ValidationError, match=r"runs_per_point is 2097153: its 2 draws a run"):
        small_config(runs_per_point=2**21 + 1)


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
    path.write_bytes(format_scan_csv(dataset, path))
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
    path.write_bytes(format_scan_csv(dataset, path))
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
    header_only.write_bytes(format_scan_csv(run_scan(small_config()), header_only))
    header_only.write_text(header_only.read_text().splitlines()[0] + "\n")
    with pytest.raises(ValidationError, match="no data rows"):
        read_scan_csv(header_only)

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b\n1,2\n")
    with pytest.raises(ValidationError, match="schema"):
        read_scan_csv(bad_header)

    short_row = tmp_path / "short.csv"
    good = format_scan_csv(run_scan(small_config()), short_row).decode()
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
