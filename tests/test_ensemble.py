import math

import numpy as np
import pytest

from coldspin import (
    NearResonanceError,
    TrapPopulationParams,
    TrapSpec,
    ValidationError,
    default_atom_spec,
    default_trap_spec,
    dipole_trap_depth,
    effective_two_body_volume,
    evolve_trap_population,
    evolve_trap_population_rk4,
    light_shift,
    peak_density,
    tof_radius,
)
from coldspin.ensemble import two_body_gradient, two_body_population

SPEC = default_atom_spec()
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))
SIGMA_Z = 8.5e-3 * FWHM_TO_SIGMA
SIGMA_R = 20e-6 * FWHM_TO_SIGMA


def params(n0=1.2e6, tau=1500.0, beta=8.0e-20):
    return TrapPopulationParams(
        n0=n0,
        tau_s=tau,
        beta_m3_per_s=beta,
        sigma_z_m=SIGMA_Z,
        sigma_r_m=SIGMA_R,
        temperature_k=25e-6,
    )


def central_difference(t, point, k, v_eff, rel_step=1e-6):
    up, down = list(point), list(point)
    up[k] += rel_step * abs(point[k])
    down[k] -= rel_step * abs(point[k])
    rise = two_body_population(t, *up, v_eff) - two_body_population(t, *down, v_eff)
    return rise / (up[k] - down[k])


@pytest.mark.parametrize(
    "point",
    [(1.2e6, 1500.0, 8.0e-20), (3.0e5, 400.0, 3.0e-19), (5.0e6, 4000.0, 1.0e-20),
     (1.2e6, 1500.0, -2.0e-20)],
    ids=["default", "fast", "slow", "negative-beta"],
)
def test_two_body_gradient_matches_central_differences(point):
    v_eff = params().v_eff_m3
    for t in (0.0, 1.0, 10.0, 45.0, 90.0):
        gradient = two_body_gradient(t, *point, v_eff)
        for k in range(3):
            assert gradient[k] == pytest.approx(
                central_difference(t, point, k, v_eff), rel=1e-6, abs=0.0
            ), (t, k)


def test_two_body_population_is_the_evolved_law():
    p = params()
    for t in (0.0, 0.5, 30.0, 90.0):
        assert evolve_trap_population(p, t) == two_body_population(
            t, p.n0, p.tau_s, p.beta_m3_per_s, p.v_eff_m3
        )
    # a collapsing denominator, reachable with beta < 0, reads as +inf
    assert two_body_population(90.0, 1.2e6, 1500.0, -1e-15, p.v_eff_m3) == math.inf


# 40-digit closed-form references for the benchmark trap
DECAY_REFERENCE = {
    10.0: 1101188.99511242925,
    30.0: 944139.7957111428,
    60.0: 775458.8131723873,
    90.0: 655906.5793337781,
}


def test_decay_matches_frozen_reference():
    p = params()
    for t, expected in DECAY_REFERENCE.items():
        assert evolve_trap_population(p, t) == pytest.approx(expected, rel=1e-12)


def test_decay_initial_value_and_monotonicity():
    p = params()
    assert evolve_trap_population(p, 0.0) == 1.2e6
    times = np.linspace(0.0, 300.0, 400)
    values = [evolve_trap_population(p, t) for t in times]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_decay_pure_exponential_limit():
    p = params(beta=0.0)
    for t in (5.0, 50.0, 500.0):
        assert evolve_trap_population(p, t) == pytest.approx(
            1.2e6 * math.exp(-t / 1500.0), rel=1e-14
        )


def test_decay_pure_two_body_limit():
    # tau = inf: 1/N(t) - 1/N0 = beta t / V_eff exactly
    p = params(tau=math.inf)
    for t in (5.0, 50.0, 500.0):
        n = evolve_trap_population(p, t)
        expected = 1.2e6 / (1.0 + 1.2e6 * 8.0e-20 * t / p.v_eff_m3)
        assert n == pytest.approx(expected, rel=1e-14)


def test_decay_zero_population_stays_zero():
    assert evolve_trap_population(params(n0=0.0), 100.0) == 0.0


def test_decay_short_time_expansion():
    # small t: N(t) = N0 (1 - t (1/tau + beta N0 / V_eff)) + O(t^2)
    p = params()
    rate = 1.0 / 1500.0 + 8.0e-20 * 1.2e6 / p.v_eff_m3
    t = 1e-6
    expected = 1.2e6 * (1.0 - rate * t)
    assert evolve_trap_population(p, t) == pytest.approx(expected, rel=1e-9)


def test_rk4_agrees_with_closed_form():
    p = params()
    for t in (10.0, 30.0, 60.0, 90.0):
        closed = evolve_trap_population(p, t)
        stepped = evolve_trap_population_rk4(p, t)
        assert stepped == pytest.approx(closed, rel=1e-6)


def test_rk4_agreement_across_parameter_sweep():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = params(
            n0=float(rng.uniform(1e5, 5e6)),
            tau=float(rng.uniform(200.0, 5000.0)),
            beta=float(rng.uniform(0.0, 5e-19)),
        )
        t = float(rng.uniform(0.1, 150.0))
        closed = evolve_trap_population(p, t)
        stepped = evolve_trap_population_rk4(p, t)
        assert stepped == pytest.approx(closed, rel=1e-6)


def test_rk4_handles_limit_branches():
    assert evolve_trap_population_rk4(params(beta=0.0), 50.0) == pytest.approx(
        evolve_trap_population(params(beta=0.0), 50.0), rel=1e-9
    )
    assert evolve_trap_population_rk4(params(tau=math.inf), 50.0) == pytest.approx(
        evolve_trap_population(params(tau=math.inf), 50.0), rel=1e-9
    )
    assert evolve_trap_population_rk4(params(), 0.0) == 1.2e6


def test_rk4_step_control():
    p = params()
    coarse = evolve_trap_population_rk4(p, 90.0, n_steps=10)
    fine = evolve_trap_population_rk4(p, 90.0, n_steps=4000)
    closed = evolve_trap_population(p, 90.0)
    assert abs(fine - closed) < abs(coarse - closed) or coarse == fine
    with pytest.raises(ValidationError):
        evolve_trap_population_rk4(p, 90.0, n_steps=0)


def test_trap_population_params_validation():
    with pytest.raises(ValidationError):
        params(n0=-1.0)
    with pytest.raises(ValidationError):
        params(tau=0.0)
    with pytest.raises(ValidationError):
        params(beta=-1e-20)
    with pytest.raises(ValidationError):
        TrapPopulationParams(
            n0=1e6, tau_s=1500.0, beta_m3_per_s=8e-20,
            sigma_z_m=0.0, sigma_r_m=SIGMA_R, temperature_k=25e-6,
        )


def test_effective_volume_reference():
    assert effective_two_body_volume(SIGMA_Z, SIGMA_R) == pytest.approx(
        1.159899980199411e-11, rel=1e-12
    )
    # V_eff = N / <n> with <n> = n0 / (2 sqrt 2)
    n_atoms = 1.2e6
    mean_density = peak_density(n_atoms, SIGMA_Z, SIGMA_R) / (2.0 * math.sqrt(2.0))
    assert effective_two_body_volume(SIGMA_Z, SIGMA_R) == pytest.approx(
        n_atoms / mean_density, rel=1e-12
    )


def test_peak_density_reference():
    n0 = peak_density(1.2e6, SIGMA_Z, SIGMA_R)
    assert n0 == pytest.approx(2.926211404117714e17, rel=1e-12)  # 2.93e11 cm^-3
    assert peak_density(2.4e6, SIGMA_Z, SIGMA_R) == pytest.approx(2 * n0, rel=1e-12)
    assert peak_density(0.0, SIGMA_Z, SIGMA_R) == 0.0
    with pytest.raises(ValidationError):
        peak_density(-1.0, SIGMA_Z, SIGMA_R)
    with pytest.raises(ValidationError):
        peak_density(1e6, 0.0, SIGMA_R)


def test_tof_radius_reference():
    sigma = tof_radius(8.5e-6, 25e-6, 4e-3, SPEC.mass_kg)
    assert sigma == pytest.approx(1.958050349904941e-4, rel=1e-6)
    assert tof_radius(8.5e-6, 25e-6, 0.0, SPEC.mass_kg) == 8.5e-6
    assert tof_radius(8.5e-6, 0.0, 4e-3, SPEC.mass_kg) == 8.5e-6


def test_tof_radius_is_linear_in_t_squared():
    values = [
        tof_radius(8.5e-6, 25e-6, t, SPEC.mass_kg) ** 2
        for t in (1e-3, 2e-3, 3e-3)
    ]
    # sigma^2 grows linearly in t^2: second difference over t^2 grid vanishes
    diffs = (values[1] - values[0]) / 3.0, (values[2] - values[1]) / 5.0
    assert diffs[0] == pytest.approx(diffs[1], rel=1e-12)


def test_tof_radius_validation():
    with pytest.raises(ValidationError):
        tof_radius(-1e-6, 25e-6, 1e-3, SPEC.mass_kg)
    with pytest.raises(ValidationError):
        tof_radius(8.5e-6, -1e-6, 1e-3, SPEC.mass_kg)
    with pytest.raises(ValidationError):
        tof_radius(8.5e-6, 25e-6, -1e-3, SPEC.mass_kg)
    with pytest.raises(ValidationError):
        tof_radius(8.5e-6, 25e-6, 1e-3, 0.0)


def test_trap_depth_reference():
    trap = default_trap_spec()
    depth = dipole_trap_depth(trap, SPEC)
    assert depth == pytest.approx(2.879539941551146e-4, rel=1e-6)


def test_light_shift_reference():
    shift = light_shift(default_trap_spec(), SPEC)
    assert shift == pytest.approx(11999975.40250203, rel=1e-6)
    # twice the single-level shift |U|/h = depth k_B / h
    depth = dipole_trap_depth(default_trap_spec(), SPEC)
    assert shift == pytest.approx(2.0 * depth * 1.380649e-23 / 6.62607015e-34, rel=1e-12)


def test_trap_depth_scaling():
    base = default_trap_spec()
    depth = dipole_trap_depth(base, SPEC)
    double_power = TrapSpec(
        wavelength_m=base.wavelength_m, power_w=2 * base.power_w, waist_m=base.waist_m
    )
    assert dipole_trap_depth(double_power, SPEC) == pytest.approx(2 * depth, rel=1e-12)
    double_waist = TrapSpec(
        wavelength_m=base.wavelength_m, power_w=base.power_w, waist_m=2 * base.waist_m
    )
    assert dipole_trap_depth(double_waist, SPEC) == pytest.approx(depth / 4, rel=1e-12)
    off = TrapSpec(
        wavelength_m=base.wavelength_m, power_w=0.0, waist_m=base.waist_m
    )
    assert dipole_trap_depth(off, SPEC) == 0.0


def test_trap_near_resonance_guard():
    at_probe = TrapSpec(wavelength_m=SPEC.wavelength_m, power_w=7.0, waist_m=5e-5)
    with pytest.raises(NearResonanceError):
        dipole_trap_depth(at_probe, SPEC)
    with pytest.raises(NearResonanceError):
        light_shift(at_probe, SPEC)
    # 1e-7 relative detuning in wavelength is about 6 linewidths: inside
    # the default guard, legal once the guard is dropped
    close = TrapSpec(wavelength_m=SPEC.wavelength_m * (1 + 1e-7), power_w=7.0, waist_m=5e-5)
    with pytest.raises(NearResonanceError):
        dipole_trap_depth(close, SPEC)
    assert dipole_trap_depth(close, SPEC, guard_linewidths=0.0) > 0.0
