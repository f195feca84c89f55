import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldspin import (
    DetectorSpec,
    FitError,
    FitResult,
    NearResonanceError,
    ScanDataset,
    ScanPoint,
    TrapPopulationParams,
    ValidationError,
    compute_od,
    default_atom_spec,
    effective_two_body_volume,
    evolve_trap_population,
    fit_column_density,
    fit_result_from_json_dict,
    fit_tof_temperature,
    fit_two_body_decay,
    photon_budget,
    rotation_cross_section,
    snr_report,
)
from coldspin.analysis import _decay_start
from coldspin.jsonio import format_json
from coldspin.summation import pairwise_sum

SPEC = default_atom_spec()
NC_TRUE = 2.65e14


def exact_dataset(detunings, n_c=NC_TRUE, stddev=1e-3, n_runs=40):
    points = []
    for d in detunings:
        theta = 0.5 * n_c * rotation_cross_section(d, SPEC)
        points.append(
            ScanPoint(
                detuning_hz=d,
                theta_mean_rad=theta,
                theta_stderr_rad=stddev / math.sqrt(n_runs),
                theta_stddev_rad=stddev,
                n_runs=n_runs,
                n_pulses=10,
            )
        )
    return ScanDataset(points=tuple(points))


DETUNINGS = tuple(-2.3e9 + 0.1e9 * k for k in range(16))


def test_column_density_exact_recovery():
    fit = fit_column_density(exact_dataset(DETUNINGS), SPEC)
    assert fit.converged
    assert fit.params["column_density_m2"] == pytest.approx(NC_TRUE, rel=1e-12)
    assert fit.chi2 == pytest.approx(0.0, abs=1e-15)
    assert fit.dof == len(DETUNINGS) - 1


def test_column_density_uncertainty_closed_form():
    stddev = 2e-3
    fit = fit_column_density(exact_dataset(DETUNINGS, stddev=stddev), SPEC)
    g = np.array([0.5 * rotation_cross_section(d, SPEC) for d in DETUNINGS])
    expected = (np.sum(g**2) / stddev**2) ** -0.5
    assert fit.sigmas["column_density_m2"] == pytest.approx(expected, rel=1e-12)


def test_column_density_stderr_source_shrinks_uncertainty():
    data = exact_dataset(DETUNINGS, n_runs=25)
    by_stddev = fit_column_density(data, SPEC, sigma_source="stddev")
    by_stderr = fit_column_density(data, SPEC, sigma_source="stderr")
    # same estimate, uncertainty tighter by sqrt(runs) when every point
    # carries the same run count
    assert by_stderr.params["column_density_m2"] == pytest.approx(
        by_stddev.params["column_density_m2"], rel=1e-12
    )
    assert by_stderr.sigmas["column_density_m2"] == pytest.approx(
        by_stddev.sigmas["column_density_m2"] / 5.0, rel=1e-12
    )


def test_column_density_weighting_downweights_noisy_point():
    points = list(exact_dataset(DETUNINGS).points)
    bad = points[0]
    points[0] = ScanPoint(
        detuning_hz=bad.detuning_hz,
        theta_mean_rad=bad.theta_mean_rad * 3.0,
        theta_stderr_rad=1.0,
        theta_stddev_rad=1.0,
        n_runs=bad.n_runs,
        n_pulses=bad.n_pulses,
    )
    data = ScanDataset(points=tuple(points))
    weighted = fit_column_density(data, SPEC, weighted=True)
    unweighted = fit_column_density(data, SPEC, weighted=False)
    err_w = abs(weighted.params["column_density_m2"] - NC_TRUE)
    err_u = abs(unweighted.params["column_density_m2"] - NC_TRUE)
    assert err_w < err_u
    assert err_w / NC_TRUE < 1e-4


def test_column_density_skips_zero_sigma_points():
    points = list(exact_dataset(DETUNINGS[:3]).points)
    outlier = points[0]
    points[0] = ScanPoint(
        detuning_hz=outlier.detuning_hz,
        theta_mean_rad=outlier.theta_mean_rad * 10.0,
        theta_stderr_rad=0.0,
        theta_stddev_rad=0.0,
        n_runs=1,
        n_pulses=10,
    )
    fit = fit_column_density(ScanDataset(points=tuple(points)), SPEC)
    # the corrupted zero-sigma point was dropped, not weighted infinitely
    assert fit.params["column_density_m2"] == pytest.approx(NC_TRUE, rel=1e-12)
    assert fit.dof == 1


def test_column_density_needs_two_usable_points():
    data = exact_dataset(DETUNINGS[:2], stddev=0.0, n_runs=1)
    with pytest.raises(FitError, match=">= 2"):
        fit_column_density(data, SPEC)
    with pytest.raises(FitError):
        fit_column_density(exact_dataset(DETUNINGS[:1]), SPEC)


PAIRWISE_BOUNDARIES = (7, 8, 9, 128, 129, 136, 257)


@pytest.mark.numpy_oracle
def test_pairwise_sum_is_numpy_sum():
    # the plain-float fits sum as np.sum does; numpy's reduction is the
    # oracle, for every length across the short loop, the eight-way
    # unrolled block (8 to 128) and the recursive halving above it
    rng = np.random.default_rng(20260816)
    for n in range(301):
        for _ in range(3 if n in PAIRWISE_BOUNDARIES else 1):
            x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            values = x.tolist()
            assert pairwise_sum(values).hex() == float(np.sum(x)).hex(), n
            if n:
                assert (pairwise_sum(values) / n).hex() == float(x.mean()).hex(), n
    # numpy adds the sum to its identity 0.0, so a -0.0 sum comes out 0.0
    for n in (0, 1, *PAIRWISE_BOUNDARIES):
        x = np.full(n, -0.0)
        assert pairwise_sum(x.tolist()).hex() == float(np.sum(x)).hex() == "0x0.0p+0"
    cancelling = [1e8, -1e8, -0.0, 3e-8, -3e-8, -0.0, 2.5, -2.5, -0.0]
    assert pairwise_sum(cancelling).hex() == float(np.sum(cancelling)).hex()


def _numpy_column_density(data, weighted, sigma_source):
    """fit_column_density's estimate, chi2 and sigma in numpy arrays."""
    theta = np.array([p.theta_mean_rad for p in data.points])
    g = np.array([0.5 * rotation_cross_section(p.detuning_hz, SPEC) for p in data.points])
    sigma = np.array([getattr(p, f"theta_{sigma_source}_rad") for p in data.points])
    w = 1.0 / sigma**2 if weighted else np.ones_like(theta)
    denominator = float(np.sum(w * g * g))
    n_c = float(np.sum(w * theta * g)) / denominator
    chi2 = float(np.sum(w * (theta - n_c * g) ** 2))
    dof = len(theta) - 1
    sigma_nc = denominator**-0.5 if weighted else math.sqrt(chi2 / dof / denominator)
    return n_c, chi2, sigma_nc


@pytest.mark.numpy_oracle
@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("sigma_source", ["stddev", "stderr"])
def test_column_density_matches_numpy_formulation(weighted, sigma_source):
    # the fit runs in plain floats; the numpy formulation it replaced is
    # the oracle, bit for bit, on noisy scans of 2 to 150 points
    rng = np.random.default_rng(7)
    for n in (2, 7, 8, 15, 16, 129, 150):
        detunings = np.linspace(-2.3e9, -0.8e9, n)
        theta = 0.5 * NC_TRUE * np.array([rotation_cross_section(d, SPEC) for d in detunings])
        theta = theta * (1.0 + 0.05 * rng.standard_normal(n))
        stddev = 10.0 ** rng.uniform(-4.0, -2.0, n)
        data = ScanDataset(points=tuple(
            ScanPoint(d, t, s / math.sqrt(40), s, 40, 10)
            for d, t, s in zip(detunings.tolist(), theta.tolist(), stddev.tolist())
        ))
        fit = fit_column_density(data, SPEC, weighted=weighted, sigma_source=sigma_source)
        n_c, chi2, sigma_nc = _numpy_column_density(data, weighted, sigma_source)
        assert fit.params["column_density_m2"].hex() == n_c.hex()
        assert fit.chi2.hex() == chi2.hex()
        assert fit.sigmas["column_density_m2"].hex() == sigma_nc.hex()


def test_column_density_weight_underflow_is_not_finite():
    # a spread whose square underflows weighs infinitely and is refused
    points = [ScanPoint(d, 1e-3, 1e-170, 1e-170, 40, 10) for d in DETUNINGS[:3]]
    with pytest.raises(FitError, match="not finite"):
        fit_column_density(ScanDataset(points=tuple(points)), SPEC)


def test_column_density_rejects_bad_sigma_source():
    with pytest.raises(ValidationError, match="sigma_source"):
        fit_column_density(exact_dataset(DETUNINGS), SPEC, sigma_source="var")


def test_column_density_guard_propagates():
    data = exact_dataset((-2.3e9, -1.6e9))
    points = data.points + (
        ScanPoint(
            detuning_hz=-1e6,
            theta_mean_rad=0.1,
            theta_stderr_rad=1e-3,
            theta_stddev_rad=1e-3,
            n_runs=4,
            n_pulses=10,
        ),
    )
    with pytest.raises(NearResonanceError):
        fit_column_density(ScanDataset(points=points), SPEC)


def test_compute_od_anchor():
    fit = FitResult(
        params={"column_density_m2": 2.65e14},
        sigmas={"column_density_m2": 5e12},
        chi2=1.0,
        dof=10,
        converged=True,
    )
    od, od_sigma = compute_od(fit, SPEC)
    # frozen 40-digit product sigma_0 * 2.65e14
    assert od == pytest.approx(51.35157523306235, rel=1e-12)
    assert od_sigma == pytest.approx(SPEC.cross_section_m2 * 5e12, rel=1e-12)


def test_compute_od_requires_column_density():
    fit = FitResult(
        params={"temperature_k": 2.5e-5},
        sigmas={"temperature_k": 1e-7},
        chi2=0.0,
        dof=3,
        converged=True,
    )
    with pytest.raises(ValidationError):
        compute_od(fit, SPEC)


def test_photon_budget_anchor():
    theta = 0.02686137806958269  # frozen: 1e6 atoms over a 3.77e-9 m^2 beam
    total = photon_budget(1.0, 1e6, theta)
    assert total == pytest.approx(1.385936782335968e9, rel=1e-12)
    assert total / 4.3e6 == pytest.approx(322.3108796130159, rel=1e-12)
    assert photon_budget(2.0, 1e6, theta) == pytest.approx(2.0 * total, rel=1e-12)


def test_photon_budget_validation():
    with pytest.raises(ValidationError):
        photon_budget(1.0, 1e6, 0.0)
    with pytest.raises(ValidationError):
        photon_budget(-1.0, 1e6, 0.01)
    with pytest.raises(ValidationError):
        photon_budget(1.0, -1e6, 0.01)
    for bad in (math.inf, -math.inf, math.nan):
        for args in ((bad, 1e6, 0.01), (1.0, bad, 0.01), (1.0, 1e6, bad)):
            with pytest.raises(ValidationError, match="must be finite"):
                photon_budget(*args)


def test_photon_budget_beyond_float_range_names_theta():
    # theta_rad**2 is subnormal at 1e-160 and underflows to 0 at 1e-170
    assert photon_budget(1.0, 1e6, 1e-150) == pytest.approx(1e306, rel=1e-12)
    for theta in (1e-160, 1e-170, -1e-170):
        with pytest.raises(OverflowError, match=f"theta_rad = {theta!r}"):
            photon_budget(1.0, 1e6, theta)


def test_photon_budget_of_an_angle_whose_square_overflows():
    # theta_rad**2 overflows above ~1.3e154; the total then divides by
    # theta_rad twice, and underflows to 0.0 for any ordinary atom number
    for theta in (1e200, -1e200, 1.7e308):
        assert photon_budget(1.0, 1e6, theta) == 0.0
    assert photon_budget(1.0, 1e6, -1e155) == pytest.approx(1e-304, rel=1e-12)
    assert photon_budget(1e300, 1e300, 2e154) == pytest.approx(2.5e291, rel=1e-12)
    # an angle whose square is finite keeps the ** 2 it always had
    assert photon_budget(1.0, 1e6, 1e150) == 1e6 / 1e150**2


def test_snr_report_anchor():
    theta = 0.02686137806958269
    det = DetectorSpec()
    one = snr_report(theta, 4.3e6, det)
    assert one == pytest.approx(55.06433603259753, rel=1e-12)
    assert snr_report(theta, 4.3e6, det, n_avg=20) == pytest.approx(
        246.2551970095583, rel=1e-12
    )


def test_snr_report_validation():
    det = DetectorSpec()
    with pytest.raises(ValidationError):
        snr_report(0.01, 0.0, det)
    with pytest.raises(ValidationError):
        snr_report(0.01, 4e6, det, n_avg=0)


@pytest.mark.parametrize("n_avg", [True, 1.5, 2.0])
def test_snr_report_refuses_an_n_avg_that_is_no_int(n_avg):
    with pytest.raises(ValidationError, match=f"n_avg must be an integer >= 1, got {n_avg!r}"):
        snr_report(0.01, 4e6, DetectorSpec(), n_avg)


DECAY_TRUE = TrapPopulationParams(
    n0=1.2e6,
    tau_s=1500.0,
    beta_m3_per_s=8.0e-20,
    sigma_z_m=8.5e-3 / (2.0 * math.sqrt(2.0 * math.log(2.0))),
    sigma_r_m=20e-6 / (2.0 * math.sqrt(2.0 * math.log(2.0))),
)


def decay_samples(times, noise_fraction=0.0, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for t in times:
        n = evolve_trap_population(DECAY_TRUE, t)
        if noise_fraction > 0.0:
            sigma = noise_fraction * n
            rows.append((t, n * (1.0 + noise_fraction * rng.standard_normal()), sigma))
        else:
            rows.append((t, n, 1.0))
    return rows


def test_decay_fit_noiseless_recovery():
    times = np.linspace(0.0, 90.0, 46)
    fit = fit_two_body_decay(decay_samples(times), DECAY_TRUE.v_eff_m3)
    assert fit.converged
    assert fit.params["n0"] == pytest.approx(1.2e6, rel=1e-6)
    assert fit.params["tau_s"] == pytest.approx(1500.0, rel=1e-5)
    assert fit.params["beta_m3_per_s"] == pytest.approx(8.0e-20, rel=1e-5)
    assert fit.chi2 < 1e-6
    assert fit.dof == 43


def test_decay_fit_noisy_recovery():
    times = np.linspace(0.0, 90.0, 46)
    fit = fit_two_body_decay(
        decay_samples(times, noise_fraction=0.002, seed=11), DECAY_TRUE.v_eff_m3
    )
    assert fit.converged
    assert fit.params["beta_m3_per_s"] == pytest.approx(8.0e-20, rel=0.10)
    assert fit.sigmas["beta_m3_per_s"] < 0.05 * 8.0e-20
    # weighted residuals of a correct model at 0.2% noise land near dof
    assert fit.chi2 < 3.0 * fit.dof


def test_decay_fit_converges_over_seeds():
    """Seeds 0-99 of the CLI's decay draw: PCG64(seed), 0.2 % noise, 46
    times.  Every fit converges and recovers n0 and beta within 5 sigma, the
    benchmark's recovery gate.  Some seeds (6 is the first) end where no
    step reduces the cost, at its rounding floor, so this fails unless a
    step that the damping has shrunk below the relative tolerance counts
    as convergence."""
    times = np.linspace(0.0, 90.0, 46)
    truth = {"n0": DECAY_TRUE.n0, "beta_m3_per_s": DECAY_TRUE.beta_m3_per_s}
    for seed in range(100):
        rng = np.random.Generator(np.random.PCG64(seed))
        rows = []
        for t in times:
            n = evolve_trap_population(DECAY_TRUE, float(t))
            rows.append((float(t), n * (1.0 + 0.002 * rng.standard_normal()), 0.002 * n))
        fit = fit_two_body_decay(rows, DECAY_TRUE.v_eff_m3)
        assert fit.converged, seed
        for key, value in truth.items():
            assert abs(fit.params[key] - value) < 5.0 * fit.sigmas[key], (seed, key)


@settings(max_examples=15, deadline=None)
@given(
    n0=st.floats(min_value=2e5, max_value=5e6),
    tau=st.floats(min_value=400.0, max_value=4000.0),
    beta=st.floats(min_value=1e-20, max_value=3e-19),
)
def test_decay_fit_round_trip_property(n0, tau, beta):
    truth = TrapPopulationParams(
        n0=n0,
        tau_s=tau,
        beta_m3_per_s=beta,
        sigma_z_m=DECAY_TRUE.sigma_z_m,
        sigma_r_m=DECAY_TRUE.sigma_r_m,
    )
    times = np.linspace(0.0, 90.0, 46)
    rows = [(t, evolve_trap_population(truth, t), 1.0) for t in times]
    fit = fit_two_body_decay(rows, truth.v_eff_m3)
    assert fit.converged
    assert fit.params["n0"] == pytest.approx(n0, rel=1e-4)
    assert fit.params["beta_m3_per_s"] == pytest.approx(beta, rel=1e-3)


def test_decay_fit_validation():
    times = np.linspace(0.0, 90.0, 10)
    rows = decay_samples(times)
    with pytest.raises(ValidationError):
        fit_two_body_decay(rows, 0.0)
    with pytest.raises(FitError, match=">= 4"):
        fit_two_body_decay(rows[:3], DECAY_TRUE.v_eff_m3)
    with pytest.raises(ValidationError):
        fit_two_body_decay([(-1.0, 1e6, 1.0)] + rows[:5], DECAY_TRUE.v_eff_m3)
    with pytest.raises(FitError):
        fit_two_body_decay([(r[0], r[1], 0.0) for r in rows], DECAY_TRUE.v_eff_m3)
    with pytest.raises(FitError):
        fit_two_body_decay([(r[0], -1.0, 1.0) for r in rows], DECAY_TRUE.v_eff_m3)
    with pytest.raises(FitError):
        fit_two_body_decay([(5.0, 1e6, 1.0)] * 6, DECAY_TRUE.v_eff_m3)


def test_decay_fit_accepts_unsorted_input():
    times = np.linspace(0.0, 90.0, 12)
    rows = decay_samples(times)
    fit = fit_two_body_decay(rows[::-1], DECAY_TRUE.v_eff_m3)
    assert fit.params["n0"] == pytest.approx(1.2e6, rel=1e-5)


def test_decay_start_falls_back_on_flat_counts():
    # equal interior counts leave the rate regression nothing to split, so
    # the start spreads the overall loss rate evenly over the two channels:
    # gamma = kappa N0, both 0 when the counts show no loss
    times = [0.0, 10.0, 20.0, 30.0]
    overall = math.log(1e6 / 8e5) / 30.0
    assert _decay_start(times, [1e6, 9e5, 9e5, 8e5]) == [1e6, overall / 2.0, overall / 2e6]
    assert _decay_start(times, [1e6] * 4) == [1e6, 0.0, 0.0]
    fit = fit_two_body_decay([(t, 1e6, 1e3) for t in times], 1.0)
    assert fit.converged
    assert fit.params["n0"] == pytest.approx(1e6, rel=1e-12)


def test_flat_decay_fits_alike_at_every_volume():
    """Counts with no visible loss resolve only the loss rates' sum, which
    is 0: both rates end at their bound with infinite sigmas, and the
    volume only scales beta = kappa V_eff."""
    flat = [(t, 1e6, 1e3) for t in (0.0, 10.0, 20.0, 30.0)]
    fits = {k: fit_two_body_decay(flat, 10.0**k) for k in range(-15, 1)}
    kappa = fits[0].params["beta_m3_per_s"]
    for k, fit in fits.items():
        assert fit.converged, k
        assert fit.params["n0"] == fits[0].params["n0"], k
        assert fit.params["tau_s"] == fits[0].params["tau_s"] == math.inf, k
        assert fit.params["beta_m3_per_s"] == kappa * 10.0**k, k
        assert math.isfinite(fit.sigmas["n0"]), k
        assert fit.sigmas["tau_s"] == fit.sigmas["beta_m3_per_s"] == math.inf, k


KB_OVER_M = 1.380649e-23 / SPEC.mass_kg


def tof_samples(temperature_k=25e-6, sigma0=8.5e-6, times=None):
    if times is None:
        times = np.linspace(0.5e-3, 4.0e-3, 8)
    return [
        (t, math.sqrt(sigma0**2 + KB_OVER_M * temperature_k * t**2)) for t in times
    ]


def test_tof_fit_exact_recovery():
    fit = fit_tof_temperature(tof_samples(), SPEC.mass_kg)
    assert fit.converged
    assert fit.params["temperature_k"] == pytest.approx(25e-6, rel=1e-10)
    assert fit.params["sigma0_m"] == pytest.approx(8.5e-6, rel=1e-10)
    assert fit.chi2 == pytest.approx(0.0, abs=1e-24)
    assert fit.dof == 6
    # frozen slope k_B T / m for T = 25 uK (reference mass differs from the
    # tabulated constant in the 8th digit)
    assert KB_OVER_M * 25e-6 == pytest.approx(2.391710107976790e-3, rel=1e-6)


@pytest.mark.numpy_oracle
def test_tof_fit_matches_numpy_formulation():
    # temperature and sigma0 and their sigmas are bit-identical to the
    # numpy line fit; chi2 is a plain sequential sum of squares
    rng = np.random.default_rng(3)
    for n in (3, 8, 9, 40):
        times = np.linspace(0.5e-3, 4.0e-3, n)
        sigmas = np.sqrt(8.5e-6**2 + KB_OVER_M * 25e-6 * times**2)
        sigmas = sigmas + 0.2e-6 * rng.standard_normal(n)
        fit = fit_tof_temperature(list(zip(times.tolist(), sigmas.tolist())), SPEC.mass_kg)
        x = np.array([t**2 for t in times.tolist()])
        y = np.array([s**2 for s in sigmas.tolist()])
        x_mean, y_mean = float(x.mean()), float(y.mean())
        s_xx = float(np.sum((x - x_mean) ** 2))
        slope = float(np.sum((x - x_mean) * (y - y_mean))) / s_xx
        intercept = y_mean - slope * x_mean
        chi2 = 0.0
        for r in (y - slope * x - intercept).tolist():
            chi2 += r * r
        var = chi2 / (n - 2)
        assert fit.chi2.hex() == chi2.hex()
        assert fit.params["temperature_k"].hex() == (slope / KB_OVER_M).hex()
        assert fit.params["sigma0_m"].hex() == math.sqrt(intercept).hex()
        assert fit.sigmas["temperature_k"].hex() == (math.sqrt(var / s_xx) / KB_OVER_M).hex()
        intercept_sigma = math.sqrt(var * (1.0 / n + x_mean**2 / s_xx))
        assert fit.sigmas["sigma0_m"].hex() == (
            intercept_sigma / (2.0 * math.sqrt(intercept))).hex()


def test_tof_fit_zero_temperature():
    rows = [(t, 8.5e-6) for t in np.linspace(1e-3, 4e-3, 5)]
    fit = fit_tof_temperature(rows, SPEC.mass_kg)
    assert fit.params["temperature_k"] == pytest.approx(0.0, abs=1e-12)
    assert fit.params["sigma0_m"] == pytest.approx(8.5e-6, rel=1e-12)


def test_tof_fit_negative_slope_raises():
    rows = [(1e-3, 10e-6), (2e-3, 8e-6), (3e-3, 6e-6)]
    with pytest.raises(FitError, match="negative"):
        fit_tof_temperature(rows, SPEC.mass_kg)


def test_tof_fit_validation():
    rows = tof_samples()
    with pytest.raises(ValidationError):
        fit_tof_temperature(rows, 0.0)
    with pytest.raises(FitError, match=">= 3"):
        fit_tof_temperature(rows[:2], SPEC.mass_kg)
    with pytest.raises(FitError, match="coincide"):
        fit_tof_temperature([(1e-3, 9e-6)] * 4, SPEC.mass_kg)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "fit, column",
    [("decay", 0), ("decay", 1), ("decay", 2), ("tof", 0), ("tof", 1)],
    ids=["decay-time", "decay-count", "decay-sigma", "tof-time", "tof-radius"],
)
def test_fits_reject_nonfinite_samples(fit, column, value):
    if fit == "decay":
        rows = decay_samples(np.linspace(0.0, 90.0, 10))
        run, arg = fit_two_body_decay, DECAY_TRUE.v_eff_m3
    else:
        rows, run, arg = tof_samples(), fit_tof_temperature, SPEC.mass_kg
    row = list(rows[1])
    row[column] = value
    rows[1] = tuple(row)
    with pytest.raises(ValidationError, match="must be finite"):
        run(rows, arg)


def test_fit_result_json_round_trip(tmp_path):
    fit = FitResult(
        params={"b": 2.0, "a": 1.0},
        sigmas={"a": 0.1, "b": 0.2},
        chi2=3.5,
        dof=7,
        converged=False,
    )
    document = fit.to_json_dict()
    assert list(document["params"]) == ["a", "b"]
    restored = fit_result_from_json_dict(document)
    assert restored == fit

    path = tmp_path / "fit.json"
    path.write_bytes(format_json(fit.to_json_dict()))
    raw = path.read_text()
    assert raw.endswith("\n")
    assert fit_result_from_json_dict(json.loads(raw)) == fit


def test_fit_result_json_round_trip_with_undefined_sigma(tmp_path):
    fit = FitResult(
        params={"sigma0_m": 0.0, "temperature_k": 2.5e-5},
        sigmas={"sigma0_m": math.inf, "temperature_k": 1e-6},
        chi2=1.0,
        dof=3,
        converged=True,
    )
    path = tmp_path / "fit.json"
    path.write_bytes(format_json(fit.to_json_dict()))

    def reject(name):
        raise ValueError(name)

    document = json.loads(path.read_text(), parse_constant=reject)
    assert document["sigmas"]["sigma0_m"] is None
    assert document["nonfinite"] == {"/sigmas/sigma0_m": "inf"}
    assert fit_result_from_json_dict(document) == fit


def test_fit_result_from_json_rejects_malformed():
    with pytest.raises(ValidationError):
        fit_result_from_json_dict({"params": {"a": 1.0}})


def test_fit_result_validation():
    with pytest.raises(ValidationError, match="identical keys"):
        FitResult(params={"a": 1.0}, sigmas={"b": 0.1}, chi2=0.0, dof=1, converged=True)
    with pytest.raises(ValidationError, match=">= 0"):
        FitResult(params={"a": 1.0}, sigmas={"a": -0.1}, chi2=0.0, dof=1, converged=True)
    with pytest.raises(ValidationError, match="dof"):
        FitResult(params={"a": 1.0}, sigmas={"a": 0.1}, chi2=0.0, dof=0, converged=True)


def test_v_eff_matches_frozen_reference():
    v = effective_two_body_volume(DECAY_TRUE.sigma_z_m, DECAY_TRUE.sigma_r_m)
    assert v == pytest.approx(1.159899980199411e-11, rel=1e-12)
    assert DECAY_TRUE.v_eff_m3 == pytest.approx(v, rel=1e-15)
