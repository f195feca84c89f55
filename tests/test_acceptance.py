"""End-to-end acceptance checks.

Each test exercises one headline capability at a pinned tolerance and a
wall-clock budget, and prints one pass line (visible under pytest -s);
a failing assertion is the corresponding fail line.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coldspin import (
    CollectiveSpinState,
    DestructionModel,
    DetectorSpec,
    ScanConfig,
    StokesState,
    TransmissionSpec,
    cli,
    coherent_pulse,
    coherent_spin_state,
    coupling_constant,
    default_atom_spec,
    default_trap_spec,
    dipole_trap_depth,
    evolve_trap_population,
    evolve_trap_population_rk4,
    extract_angle,
    faraday_angle,
    fit_column_density,
    fit_tof_temperature,
    fit_two_body_decay,
    light_shift,
    od_from_angle,
    peak_density,
    photon_budget,
    qnd_interact,
    resonant_cross_section,
    run_detuning_scan,
    run_pulse_train,
    simulate_pulse_detection,
    single_atom_pseudospin,
    snr_report,
    tof_radius,
    TrapPopulationParams,
)

SPEC = default_atom_spec()
AREA = 1.0e6 / 2.65e14  # 1e6 atoms at the benchmark column density
NC = 2.65e14
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


@contextmanager
def budgeted(label, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, (
        f"{label}: {elapsed:.2f} s exceeded the {seconds:.0f} s budget"
    )
    print(f"PASS {label} ({elapsed:.2f} s / {seconds:.0f} s)")


def test_criterion_01_resonant_od_chain():
    with budgeted("criterion 01 resonant OD chain", 1.0):
        od = resonant_cross_section(SPEC) * NC
        assert abs(od - 51.4) < 1.5
        # the angle route lands on the same number, independent of detuning
        atoms = coherent_spin_state(1e6, "z")
        for detuning in (-2.3e9, -1.6e9, -0.8e9):
            cp = coupling_constant(detuning, AREA, SPEC)
            theta = faraday_angle(atoms, cp.g)
            assert od_from_angle(theta, detuning, SPEC) == pytest.approx(
                od, rel=1e-12
            )


def test_criterion_02_scan_round_trip():
    with budgeted("criterion 02 detuning-scan round trip", 30.0):
        cfg = ScanConfig(
            detunings_hz=tuple(float(d) for d in np.linspace(-2.3e9, -0.8e9, 15)),
            photons_per_pulse=4e6,
            pulse_duration_s=1e-6,
            pulses_per_sample=10,
            runs_per_point=40,
            atom_number_spread=0.10,
            seed=20260816,
        )
        dataset = run_detuning_scan(
            cfg,
            coherent_spin_state(1e6, "z"),
            SPEC,
            AREA,
            DetectorSpec(),
            TransmissionSpec(),
            DestructionModel(),
        )
        fit = fit_column_density(dataset, SPEC)
        n_c = fit.params["column_density_m2"]
        sigma = fit.sigmas["column_density_m2"]
        assert abs(n_c - NC) < 2.0 * sigma
        assert 0.01 <= sigma / n_c <= 0.05


def test_criterion_03_snr_prediction_and_monte_carlo():
    with budgeted("criterion 03 twenty-pulse SNR", 10.0):
        det = DetectorSpec()
        tr = TransmissionSpec()
        atoms = coherent_spin_state(1e6, "z")
        theta = faraday_angle(atoms, coupling_constant(-1.6e9, AREA, SPEC).g)

        predicted = snr_report(theta, 4.3e6, det, n_avg=20)
        assert 150.0 <= predicted <= 300.0

        rng = np.random.default_rng(20260816)
        averages = []
        for _ in range(400):
            estimates = [
                extract_angle(
                    simulate_pulse_detection(theta, 4.3e6, det, tr, rng), 4.3e6, tr
                )
                for _ in range(20)
            ]
            averages.append(np.mean(estimates))
        measured = float(np.mean(averages) / np.std(averages, ddof=1))
        assert 150.0 <= measured <= 300.0


def test_criterion_04_photon_budget():
    with budgeted("criterion 04 squeezing photon budget", 1.0):
        atoms = coherent_spin_state(1e6, "z")
        theta = faraday_angle(atoms, coupling_constant(-1.6e9, AREA, SPEC).g)
        total = photon_budget(1.0, 1e6, theta)
        assert 3e8 <= total <= 3e9
        pulses = total / 4.3e6
        assert 100.0 <= pulses <= 1000.0


def test_criterion_05_probe_destruction_over_train():
    with budgeted("criterion 05 thousand-pulse signal loss", 5.0):
        cp = coupling_constant(-1.6e9, AREA, SPEC)
        atoms = coherent_spin_state(1e6, "z")
        light = coherent_pulse(4e6, 1e-6, "x")
        _, after = run_pulse_train(
            1000, atoms, cp, light, DestructionModel(), DetectorSpec(),
            TransmissionSpec(), None,
        )
        loss = 1.0 - after.mean_j[2] / atoms.mean_j[2]
        assert 0.05 <= loss <= 0.10


def test_criterion_06_conserved_moments_and_variance_transfer():
    with budgeted("criterion 06 dispersive-map moment bookkeeping", 60.0):
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            n_atoms = float(10 ** rng.uniform(2, 7))
            n_photons = float(10 ** rng.uniform(2, 7))
            mean_j = tuple(rng.uniform(-0.25, 0.25) * n_atoms for _ in range(3))
            var_j = tuple(rng.uniform(0.0, 1.0) * n_atoms for _ in range(3))
            mean_s = tuple(rng.uniform(-0.25, 0.25) * n_photons for _ in range(3))
            var_s = tuple(rng.uniform(0.0, 1.0) * n_photons for _ in range(3))
            atoms = CollectiveSpinState(mean_j, var_j, n_atoms)
            light = StokesState(mean_s, var_s, n_photons, 1e-6)
            cp = coupling_constant(float(rng.uniform(-2.3e9, -0.8e9)), AREA, SPEC)
            light_out, atoms_out = qnd_interact(light, atoms, cp)
            # probed components pass through bit for bit
            assert light_out.mean_s[2] == light.mean_s[2]
            assert light_out.var_s[2] == light.var_s[2]
            assert atoms_out.mean_j[2] == atoms.mean_j[2]
            assert atoms_out.var_j[2] == atoms.var_j[2]

        # Monte Carlo check of the transferred variance at 1e5 samples
        n_photons, n_atoms = 4.3e6, 1e6
        light = coherent_pulse(n_photons, 1e-6, "x")
        atoms = coherent_spin_state(n_atoms, "x")  # <J_z> = 0, var N/4
        cp = coupling_constant(-1.6e9, AREA, SPEC)
        predicted = qnd_interact(light, atoms, cp)[0].var_s[1]

        m = 100_000
        s_y0 = rng.normal(0.0, math.sqrt(n_photons / 4.0), m)
        s_x = rng.normal(n_photons / 2.0, math.sqrt(n_photons / 4.0), m)
        j_z = rng.normal(0.0, math.sqrt(n_atoms / 4.0), m)
        samples = s_y0 + cp.g * j_z * s_x
        v_emp = float(np.var(samples, ddof=1))
        centered = samples - samples.mean()
        m4 = float(np.mean(centered**4))
        stderr_var = math.sqrt((m4 - v_emp**2) / m)
        assert abs(v_emp - predicted) < 5.0 * stderr_var


def test_criterion_07_single_atom_pseudospin():
    with budgeted("criterion 07 single-atom pseudo-spin", 1.0):
        # independent route: explicit 3x3 spin-1 matrices, basis m = -1, 0, +1
        sq2 = math.sqrt(2.0)
        f_plus = np.zeros((3, 3), dtype=complex)
        f_plus[1, 0] = sq2
        f_plus[2, 1] = sq2
        f_x = (f_plus + f_plus.conj().T) / 2.0
        f_y = (f_plus - f_plus.conj().T) / 2.0j
        f_z = np.diag([-1.0, 0.0, 1.0]).astype(complex)
        op_x = (f_x @ f_x - f_y @ f_y) / 2.0
        op_y = (f_x @ f_y + f_y @ f_x) / 2.0
        op_z = f_z / 2.0

        def oracle(amplitudes):
            psi = np.asarray(amplitudes, dtype=complex)
            return tuple(
                float((psi.conj() @ op @ psi).real) for op in (op_x, op_y, op_z)
            )

        inv = 1.0 / sq2
        cases = {
            (0.0, 0.0, 1.0): (0.0, 0.0, 0.5),       # m = +1
            (1.0, 0.0, 0.0): (0.0, 0.0, -0.5),      # m = -1
            (inv, 0.0, inv): (0.5, 0.0, 0.0),       # (|+1> + |-1>)/sqrt2
            (-inv, 0.0, inv): (-0.5, 0.0, 0.0),     # (|+1> - |-1>)/sqrt2
        }
        for amplitudes, expected in cases.items():
            computed = single_atom_pseudospin(amplitudes)
            reference = oracle(amplitudes)
            for c, r, e in zip(computed, reference, expected):
                assert abs(c - r) < 1e-12
                assert abs(c - e) < 1e-12


def test_criterion_08_two_body_decay_fit():
    with budgeted("criterion 08 two-body loss round trip", 10.0):
        truth = TrapPopulationParams(
            n0=1.2e6,
            tau_s=1500.0,
            beta_m3_per_s=8.0e-20,  # 8e-14 cm^3/s
            sigma_z_m=8.5e-3 * FWHM_TO_SIGMA,
            sigma_r_m=20e-6 * FWHM_TO_SIGMA,
        )
        times = np.linspace(0.0, 90.0, 46)

        exact = [(float(t), evolve_trap_population(truth, float(t)), 1.0) for t in times]
        clean = fit_two_body_decay(exact, truth.v_eff_m3)
        assert clean.converged
        assert clean.params["beta_m3_per_s"] == pytest.approx(8.0e-20, rel=0.01)

        rng = np.random.default_rng(20260816)
        noisy = []
        for t in times:
            model = evolve_trap_population(truth, float(t))
            noisy.append(
                (float(t), model * (1.0 + 0.002 * rng.standard_normal()), 0.002 * model)
            )
        fitted = fit_two_body_decay(noisy, truth.v_eff_m3)
        assert fitted.converged
        assert fitted.params["beta_m3_per_s"] == pytest.approx(8.0e-20, rel=0.10)

        # independent integrator route agrees with the closed form
        for t in (10.0, 30.0, 60.0, 90.0):
            assert evolve_trap_population_rk4(truth, t) == pytest.approx(
                evolve_trap_population(truth, t), rel=1e-6
            )


def test_criterion_09_tof_temperature():
    with budgeted("criterion 09 time-of-flight thermometry", 5.0):
        rng = np.random.default_rng(20260816)
        times = np.linspace(0.5e-3, 4.0e-3, 8)
        assert times.max() <= 4.0e-3
        rows = []
        for t in times:
            radius = tof_radius(8.5e-6, 25e-6, float(t), SPEC.mass_kg)
            rows.append((float(t), abs(radius + 1.5e-6 * rng.standard_normal())))
        fit = fit_tof_temperature(rows, SPEC.mass_kg)
        assert abs(fit.params["temperature_k"] - 25.0e-6) <= 0.5e-6


def test_criterion_10_trap_depth_and_light_shift():
    with budgeted("criterion 10 dipole trap numbers", 1.0):
        trap = default_trap_spec()
        depth_uk = dipole_trap_depth(trap, SPEC) * 1e6
        assert abs(depth_uk - 260.0) <= 0.30 * 260.0
        shift_hz = light_shift(trap, SPEC)
        assert abs(shift_hz - 12.0e6) <= 0.30 * 12.0e6


def test_criterion_11_peak_density():
    with budgeted("criterion 11 peak density", 1.0):
        n0_m3 = peak_density(1.2e6, 8.5e-3 * FWHM_TO_SIGMA, 20e-6 * FWHM_TO_SIGMA)
        n0_cm3 = n0_m3 * 1e-6
        assert 5e11 / 2.0 <= n0_cm3 <= 5e11 * 2.0


def test_criterion_12_cli_scan_determinism(tmp_path, monkeypatch):
    with budgeted("criterion 12 scan command determinism", 30.0):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("COLDSPIN_ATOM_DATA", raising=False)
        assert cli.main(["scan", "--out", "a.csv"]) == 0
        assert cli.main(["scan", "--out", "b.csv"]) == 0
        assert cli.main(["scan", "--out", "c.csv", "--threads", "4"]) == 0
        a = (tmp_path / "a.csv").read_bytes()
        assert a == (tmp_path / "b.csv").read_bytes()
        assert a == (tmp_path / "c.csv").read_bytes()
        curve = (tmp_path / "a_curve.csv").read_bytes()
        assert curve == (tmp_path / "b_curve.csv").read_bytes()
        assert curve == (tmp_path / "c_curve.csv").read_bytes()
