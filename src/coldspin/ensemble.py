"""Trapped-ensemble forward models: two-body population decay, peak
density, ballistic expansion, dipole-trap depth and light shift.

Cloud geometry is a fixed Gaussian (no heating or shape dynamics during
decay).  The two-body volume convention used throughout: the
density-weighted mean density of a Gaussian cloud is <n> = n0/(2 sqrt 2),
so V_eff = N/<n> = (4 pi)^(3/2) sigma_z sigma_r^2, and beta is the
volume-independent rate referred to that V_eff.
"""

from __future__ import annotations

import math

from .atomic_data import (
    BOLTZMANN_J_PER_K,
    DEFAULT_GUARD_LINEWIDTHS,
    PLANCK_J_S,
    SPEED_OF_LIGHT_M_PER_S,
)
from .errors import NearResonanceError, ValidationError
from .frozen import Frozen

RK4_DEFAULT_STEPS = 4000


def effective_two_body_volume(sigma_z_m: float, sigma_r_m: float) -> float:
    """(4 pi)^(3/2) sigma_z sigma_r^2 for a Gaussian cloud, the volume that
    makes N/V_eff the density-weighted mean density."""
    if not (sigma_z_m > 0 and sigma_r_m > 0):
        raise ValidationError("cloud sigmas must be positive")
    volume = (4.0 * math.pi) ** 1.5 * sigma_z_m * sigma_r_m**2
    if volume == 0.0:  # every density divides by it
        raise ArithmeticError("the two-body volume underflows to 0")
    return volume


class TrapPopulationParams(Frozen):
    """Two-body decay parameters plus the fixed cloud geometry.

    tau_s may be math.inf (pure two-body loss) and beta_m3_per_s may be 0
    (pure exponential); v_eff_m3 is derived from the sigmas, never passed.
    """

    n0: float
    tau_s: float
    beta_m3_per_s: float
    sigma_z_m: float
    sigma_r_m: float

    def __post_init__(self):
        if not 0 <= self.n0 < math.inf:
            raise ValidationError(f"n0 must be finite and >= 0, got {self.n0!r}")
        if not self.tau_s > 0:  # math.inf passes
            raise ValidationError(f"tau_s must be positive, got {self.tau_s!r}")
        if not self.beta_m3_per_s >= 0:
            raise ValidationError(
                f"beta_m3_per_s must be >= 0, got {self.beta_m3_per_s!r}"
            )
        object.__setattr__(
            self,
            "v_eff_m3",
            effective_two_body_volume(self.sigma_z_m, self.sigma_r_m),
        )


def _two_body_terms(t, n0, gamma, kappa) -> tuple[float, float, float]:
    # e = e^(-gamma t), F = (1 - e)/gamma its time integral (expm1: no
    # cancellation; F = t at gamma = 0) and D = 1 + kappa N0 F
    decay = math.exp(-gamma * t)
    span = -math.expm1(-gamma * t) / gamma if gamma else t
    return decay, span, 1.0 + kappa * n0 * span


def two_body_population(t, n0, gamma, kappa) -> float:
    """The two-body decay law N(t) = N0 e / D in the one- and two-body loss
    rates gamma = 1/tau and kappa = beta/V_eff; a non-positive D, reachable
    only with kappa < 0, gives +inf."""
    decay, _, denominator = _two_body_terms(t, n0, gamma, kappa)
    return n0 * decay / denominator if denominator > 0.0 else math.inf


def two_body_gradient(t, n0, gamma, kappa) -> tuple[float, float, float]:
    """Exact dN/dN0 = e/D^2, dN/dgamma = -N t (1 - kappa N0 t h/D) and
    dN/dkappa = -N N0 F/D where D > 0, with h(x) = (1 - (1 + x) e^(-x))/x^2
    at x = gamma t (h(0) = 1/2), so dF/dgamma = -t^2 h, by successive
    divisions so that plain floats overflow to inf or underflow to 0,
    never raise."""
    decay, span, denominator = _two_body_terms(t, n0, gamma, kappa)
    n = n0 * decay / denominator
    x = gamma * t
    if abs(x) < 0.5:
        # the closed form cancels as x -> 0: sum its series
        # sum_k (-x)^k (k+1)/(k+2)! until a term no longer changes the sum
        h, term, k = 0.0, 0.5, 0
        while h + term != h:
            h += term
            term *= -x * (k + 2) / ((k + 1) * (k + 3))
            k += 1
    else:
        h = (-math.expm1(-x) - x * decay) / x / x
    return (
        decay / denominator / denominator,
        -n * t * (1.0 - kappa * n0 * t * h / denominator),
        -n * n0 * span / denominator,
    )


def evolve_trap_population(p: TrapPopulationParams, t_s: float) -> float:
    """Population at time t under dN/dt = -N/tau - (beta/V)N^2, from the
    closed form two_body_population at gamma = 1/tau (0 for tau = inf) and
    kappa = beta/V_eff."""
    if not t_s >= 0:
        raise ValidationError(f"t_s must be >= 0, got {t_s!r}")
    if p.n0 == 0.0:
        return 0.0
    return two_body_population(t_s, p.n0, 1.0 / p.tau_s, p.beta_m3_per_s / p.v_eff_m3)


def evolve_trap_population_rk4(
    p: TrapPopulationParams, t_s: float, *, n_steps: int = RK4_DEFAULT_STEPS
) -> float:
    """Fixed-step classical Runge-Kutta integration of the same rate
    equation, as an independent check on the closed form."""
    if not t_s >= 0:
        raise ValidationError(f"t_s must be >= 0, got {t_s!r}")
    if not (isinstance(n_steps, int) and not isinstance(n_steps, bool) and n_steps >= 1):
        raise ValidationError(f"n_steps must be a positive int, got {n_steps!r}")
    if t_s == 0.0:
        return p.n0
    rate_one = 1.0 / p.tau_s
    rate_two = p.beta_m3_per_s / p.v_eff_m3

    def derivative(n: float) -> float:
        return -n * rate_one - rate_two * n * n

    h = t_s / n_steps
    n = p.n0
    for _ in range(n_steps):
        k1 = derivative(n)
        k2 = derivative(n + 0.5 * h * k1)
        k3 = derivative(n + 0.5 * h * k2)
        k4 = derivative(n + h * k3)
        n += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return n


def peak_density(n_atoms: float, sigma_z_m: float, sigma_r_m: float) -> float:
    """Center density of a Gaussian cloud: N / ((2 pi)^(3/2) sigma_z sigma_r^2)."""
    if not n_atoms >= 0:
        raise ValidationError(f"n_atoms must be >= 0, got {n_atoms!r}")
    if not (sigma_z_m > 0 and sigma_r_m > 0):
        raise ValidationError("cloud sigmas must be positive")
    return n_atoms / ((2.0 * math.pi) ** 1.5 * sigma_z_m * sigma_r_m**2)


def tof_radius(sigma0_m: float, temperature_k: float, t_s: float, mass_kg: float) -> float:
    """Gaussian radius after ballistic expansion:
    sigma(t) = sqrt(sigma0^2 + (k_B T / m) t^2)."""
    if not sigma0_m >= 0:
        raise ValidationError(f"sigma0_m must be >= 0, got {sigma0_m!r}")
    if not temperature_k >= 0:
        raise ValidationError(f"temperature_k must be >= 0, got {temperature_k!r}")
    if not t_s >= 0:
        raise ValidationError(f"t_s must be >= 0, got {t_s!r}")
    if not mass_kg > 0:
        raise ValidationError(f"mass_kg must be positive, got {mass_kg!r}")
    return math.sqrt(sigma0_m**2 + (BOLTZMANN_J_PER_K * temperature_k / mass_kg) * t_s**2)


def _trap_potential_j(trap: TrapSpec, spec: AtomSpec,
                      guard_linewidths: float) -> float:
    """Magnitude of the ground-state dipole potential at the trap focus.

    Two-level form with the counter-rotating term kept:
    U = (3 pi c^2 / 2 omega0^3) Gamma_w (1/(omega0 - omega_t) +
    1/(omega0 + omega_t)) I0, I0 = 2P/(pi w^2), all frequencies angular.
    The fine-structure splitting is ignored; callers quote loose tolerances.
    """
    if not guard_linewidths >= 0:
        raise ValidationError(
            f"guard_linewidths must be >= 0, got {guard_linewidths!r}"
        )
    omega0 = 2.0 * math.pi * SPEED_OF_LIGHT_M_PER_S / spec.wavelength_m
    omega_t = 2.0 * math.pi * SPEED_OF_LIGHT_M_PER_S / trap.wavelength_m
    gamma_w = 2.0 * math.pi * spec.linewidth_hz
    if abs(omega0 - omega_t) < guard_linewidths * gamma_w:
        raise NearResonanceError(
            f"trap wavelength {trap.wavelength_m!r} m is within "
            f"{guard_linewidths} linewidths of the probe line "
            f"{spec.wavelength_m!r} m"
        )
    intensity = 2.0 * trap.power_w / (math.pi * trap.waist_m**2)
    u = (
        (3.0 * math.pi * SPEED_OF_LIGHT_M_PER_S**2 / (2.0 * omega0**3))
        * gamma_w
        * (1.0 / (omega0 - omega_t) + 1.0 / (omega0 + omega_t))
        * intensity
    )
    return abs(u)


def dipole_trap_depth(
    trap: TrapSpec,
    spec: AtomSpec,
    *,
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> float:
    """Trap depth |U|/k_B in kelvin at the focus."""
    return _trap_potential_j(trap, spec, guard_linewidths) / BOLTZMANN_J_PER_K


def light_shift(
    trap: TrapSpec,
    spec: AtomSpec,
    *,
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> float:
    """Shift of the probe transition frequency (Hz) due to the trap light.

    For trap light red of the probe line the ground level is pushed down by
    |U|/h and the excited level up by about the same amount, so the
    transition moves by 2|U|/h.  This is what a probe-frequency scan on the
    trapped cloud measures.
    """
    return 2.0 * _trap_potential_j(trap, spec, guard_linewidths) / PLANCK_J_S