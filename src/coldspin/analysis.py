"""Parameter estimation: column-density fit, photon budget, SNR, and the
trap-loss and time-of-flight fits.

The rotation-angle scan is fit by weighted linear least squares for the one
free parameter (the column density); the trap decay is fit by Gauss-Newton
with backtracking on the closed-form two-body solution; time-of-flight
temperatures come from an ordinary linear fit of sigma^2 against t^2.

Only the decay fit needs numpy (for lstsq and inv), and imports it when
called; the closed-form fits run in plain floats, summing as np.sum does
(_pairwise_sum), so their results match the numpy formulation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .atomic_data import BOLTZMANN_J_PER_K, AtomSpec
from .detector import DetectorSpec
from .ensemble import two_body_gradient, two_body_population
from .errors import FitError, ValidationError
from .jsonio import decode_nonfinite, write_json
from .scandata import ScanDataset
from .spin_optics import DEFAULT_GUARD_LINEWIDTHS, rotation_cross_section

# Gauss-Newton controls: deterministic, testable stopping
GN_MAX_ITERATIONS = 200
GN_RELATIVE_TOLERANCE = 1.0e-10
GN_COST_TOLERANCE = 1.0e-12
# a failed line search from a proposed relative step below this is
# stationarity, not a stall: the cost drop such a step predicts (1e-12 and
# less) falls below the rounding of the cost itself.  Even with the exact
# Jacobian, 18 of seeds 0-999 of the default decay config end this way, at
# relative steps of 2.3e-10 to 2.0e-7.
GN_STALL_TOLERANCE = 1.0e-6
GN_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class FitResult:
    """Named parameter estimates with 1-sigma uncertainties.

    chi2 is the weighted sum of squared residuals (the plain residual sum of
    squares for unweighted fits), dof = n_points - n_params, and converged
    reports whether the optimizer met its tolerance (always True for the
    closed-form linear fits).
    """

    params: Mapping[str, float]
    sigmas: Mapping[str, float]
    chi2: float
    dof: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "sigmas", dict(self.sigmas))
        if set(self.params) != set(self.sigmas):
            raise ValidationError("params and sigmas must have identical keys")
        if any(v < 0 for v in self.sigmas.values()):
            raise ValidationError("sigmas must be >= 0")
        if self.dof < 1:
            raise ValidationError(f"dof must be >= 1, got {self.dof!r}")

    def to_json_dict(self) -> dict:
        return {
            "params": {k: float(v) for k, v in sorted(self.params.items())},
            "sigmas": {k: float(v) for k, v in sorted(self.sigmas.items())},
            "chi2": float(self.chi2),
            "dof": int(self.dof),
            "converged": bool(self.converged),
        }


def fit_result_from_json_dict(document: Mapping) -> FitResult:
    """FitResult from to_json_dict output or from a written fit file, whose
    undefined sigmas are null and listed under "nonfinite"."""
    document = decode_nonfinite(document)
    try:
        return FitResult(
            params=dict(document["params"]),
            sigmas=dict(document["sigmas"]),
            chi2=float(document["chi2"]),
            dof=int(document["dof"]),
            converged=bool(document["converged"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"not a fit-result document: {exc}") from exc


def write_fit_json(fit: FitResult, path) -> None:
    write_json(path, fit.to_json_dict())


def fit_column_density(
    data: ScanDataset,
    spec: AtomSpec,
    *,
    weighted: bool = True,
    sigma_source: str = "stddev",
    convention: str = "physical",
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> FitResult:
    """Weighted linear least squares for the column density n_c.

    The model is theta(Delta) = n_c * g_tilde(Delta)/2 with n_c the only
    free parameter, so the estimate is closed form:
    n_c = sum(w theta g) / sum(w g^2) with g = g_tilde/2 and w = 1/sigma^2,
    and its uncertainty is (sum w g^2)^(-1/2).

    sigma_source selects which reported spread weights the points: "stddev"
    (default) uses the per-point sample standard deviation, i.e. the
    one-standard-deviation bars such scans are plotted with, and makes the
    reported fit uncertainty reflect single-realization scatter; "stderr"
    uses the standard error of the per-point mean.  Points reporting zero
    spread are rejected rather than given infinite weight.  weighted=False
    ignores the spreads entirely and estimates the uncertainty from the
    residuals.
    """
    if sigma_source not in ("stddev", "stderr"):
        raise ValidationError(
            f"sigma_source must be 'stddev' or 'stderr', got {sigma_source!r}"
        )
    rows = []
    for point in data.points:
        sigma = (
            point.theta_stddev_rad
            if sigma_source == "stddev"
            else point.theta_stderr_rad
        )
        if weighted and sigma == 0.0:
            continue  # zero reported error: reject, do not weight infinitely
        g = 0.5 * rotation_cross_section(
            point.detuning_hz,
            spec,
            convention=convention,
            guard_linewidths=guard_linewidths,
        )
        rows.append((point.theta_mean_rad, g, sigma))
    if len(rows) < 2:
        raise FitError(
            f"column-density fit needs >= 2 usable points (dof >= 1), got {len(rows)}"
        )
    theta, g, sigma = zip(*rows)
    if weighted:
        # a square that underflows to 0 weighs infinitely, as numpy's 1/0
        w = [1.0 / (s * s) if s * s else math.inf for s in sigma]
        if not all(map(math.isfinite, w)):
            raise FitError("column-density fit weights are not finite")
    else:
        w = [1.0] * len(rows)
    denominator = _pairwise_sum([wi * gi * gi for wi, gi in zip(w, g)])
    if denominator == 0.0:
        raise FitError("degenerate design: g_tilde vanishes at every point")
    n_c = _pairwise_sum([wi * ti * gi for wi, ti, gi in zip(w, theta, g)]) / denominator
    residuals = [ti - n_c * gi for ti, gi in zip(theta, g)]
    chi2 = _pairwise_sum([wi * (r * r) for wi, r in zip(w, residuals)])
    dof = len(rows) - 1
    if weighted:
        sigma_nc = denominator**-0.5
    else:
        sigma_nc = math.sqrt(chi2 / dof / denominator)
    return FitResult(
        params={"column_density_m2": n_c},
        sigmas={"column_density_m2": float(sigma_nc)},
        chi2=chi2,
        dof=dof,
        converged=True,
    )


def compute_od(fit: FitResult, spec: AtomSpec) -> tuple[float, float]:
    """Resonant optical depth from a column-density fit:
    OD = sigma_0 n_c, with sigma_OD = sigma_0 sigma_nc."""
    if "column_density_m2" not in fit.params:
        raise ValidationError(
            "fit result carries no column_density_m2 parameter"
        )
    sigma0 = spec.cross_section_m2
    return (
        sigma0 * fit.params["column_density_m2"],
        sigma0 * fit.sigmas["column_density_m2"],
    )


def photon_budget(a: float, n_atoms: float, theta_rad: float) -> float:
    """Total probe photons for an atomic-to-shot variance ratio of a:
    N_L = a N_a / theta^2."""
    for name, value in (("a", a), ("n_atoms", n_atoms), ("theta_rad", theta_rad)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
    if theta_rad == 0.0:
        raise ValidationError("theta_rad must be nonzero")
    if a < 0 or n_atoms < 0:
        raise ValidationError("a and n_atoms must be >= 0")
    return a * n_atoms / theta_rad**2


def snr_report(
    theta_rad: float, n_photons: float, det: DetectorSpec, n_avg: int = 1
) -> float:
    """Signal-to-noise of the mean rotation after n_avg averaged pulses:
    theta N_L sqrt(n_avg) / sqrt(N_L + electronic_noise_var)."""
    if not n_photons > 0:
        raise ValidationError(f"n_photons must be positive, got {n_photons!r}")
    if not n_avg >= 1:
        raise ValidationError(f"n_avg must be >= 1, got {n_avg!r}")
    return (
        theta_rad
        * n_photons
        * math.sqrt(n_avg)
        / math.sqrt(n_photons + det.electronic_noise_var)
    )


def _pairwise_sum(values: Sequence[float]) -> float:
    """np.sum of float64 values, bit for bit.

    numpy's add reduction starts from its identity 0.0 and adds
    pairwise_sum of the values (numpy/_core/src/umath/loops_utils.h.src):
    below 8 values a sequential loop from -0.0; up to 128 values eight
    strided partial sums, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the leftover values in turn; above that the two halves, split at
    n/2 rounded down to a multiple of 8, summed recursively.
    """
    return 0.0 + _pairwise(values)


def _pairwise(values: Sequence[float]) -> float:
    n = len(values)
    if n < 8:
        total = -0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        r = list(values[:8])
        stop = n - n % 8
        for i in range(8, stop, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[stop:]:
            total += value
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise(values[:half]) + _pairwise(values[half:])


def _line_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float, float]:
    """Ordinary least-squares line y = slope x + intercept: returns slope,
    intercept, mean(x) and S_xx = sum (x - mean(x))^2."""
    x_mean = _pairwise_sum(x) / len(x)
    y_mean = _pairwise_sum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    s_xx = _pairwise_sum([d * d for d in dx])
    slope = _pairwise_sum([d * (yi - y_mean) for d, yi in zip(dx, y)]) / s_xx
    return slope, y_mean - slope * x_mean, x_mean, s_xx


def _decay_start(t: Sequence[float], n: Sequence[float], v_eff: float) -> list[float]:
    """Starting point for the decay fit from a linearization: the per-atom
    loss rate -dN/dt / N equals 1/tau + (beta/V_eff) N, so regressing the
    finite-difference rate against N splits the two channels before any
    nonlinear iteration.  Clamped to the physical region; accuracy only
    matters for basin selection."""
    rates = []
    densities = []
    for i in range(1, len(t) - 1):
        dt = t[i + 1] - t[i - 1]
        if dt <= 0 or n[i] <= 0:
            continue
        rates.append(-(n[i + 1] - n[i - 1]) / dt / n[i])
        densities.append(n[i])
    n0 = n[0]
    span = t[-1] - t[0]
    fallback_rate = math.log(max(n0 / n[-1], 1.0 + 1e-9)) / span
    # np.ptp(densities) > 0: the densities differ and none is NaN
    if (len(rates) >= 2 and max(densities) > min(densities)
            and not any(map(math.isnan, densities))):
        slope, intercept, _, _ = _line_fit(densities, rates)
        floor = max(fallback_rate, 1e-12)
        one_over_tau = min(max(intercept, 1e-3 * floor), 1e6 / span)
        beta = max(slope, 1e-3 * floor / n0) * v_eff
        return [n0, 1.0 / one_over_tau, beta]
    overall = max(fallback_rate, 1e-12)
    return [n0, 2.0 / overall, overall * v_eff / (2.0 * n0)]


def fit_two_body_decay(
    samples: Sequence[tuple[float, float, float]], v_eff: float
) -> FitResult:
    """Gauss-Newton fit of (N0, tau, beta) to trap-population decay data.

    samples are (time s, atom count, count uncertainty); v_eff is the
    effective two-body volume the rate constant is referred to.  Residuals
    are sigma-weighted; the model and its exact Jacobian come from
    ensemble.two_body_population and two_body_gradient; step halving
    backtracks any trial that does not reduce the cost.  Convergence means a
    relative parameter or cost change below 1e-10 or 1e-12 within 200
    iterations, or a line search that finds no descent from a proposed
    relative step below GN_STALL_TOLERANCE: such a step's predicted cost
    drop is below the rounding of the cost, as for 18 of seeds 0-999 of the
    default decay config.  The converged flag reports this honestly and the
    best point is returned either way.  A least-squares step that numpy
    cannot solve raises FitError.
    """
    import numpy as np  # lstsq and inv; every other fit runs without numpy

    if not v_eff > 0:
        raise ValidationError(f"v_eff must be positive, got {v_eff!r}")
    pts = [(float(t), float(n), float(s)) for t, n, s in samples]
    if len(pts) < 4:
        raise FitError(f"two-body decay fit needs >= 4 points, got {len(pts)}")
    pts.sort(key=lambda p: p[0])
    t, n, sigma = np.array(pts).T
    if np.any(t < 0):
        raise ValidationError("sample times must be >= 0")
    if np.any(sigma <= 0):
        raise FitError("count uncertainties must be positive")
    if np.any(n <= 0):
        raise FitError("atom counts must be positive")

    # the law is evaluated in plain floats, which never warn
    times, v_eff = t.tolist(), float(v_eff)

    def residuals(p: np.ndarray) -> np.ndarray:
        n0, tau, beta = p.tolist()
        model = [two_body_population(ti, n0, tau, beta, v_eff) for ti in times]
        return (n - np.array(model)) / sigma

    def cost(p: np.ndarray) -> float:
        r = residuals(p)
        if not np.all(np.isfinite(r)):
            return np.inf
        return float(r @ r)

    def jacobian(p: np.ndarray) -> np.ndarray:
        n0, tau, beta = p.tolist()
        rows = [two_body_gradient(ti, n0, tau, beta, v_eff) for ti in times]
        return -np.array(rows) / sigma[:, None]

    if not t[-1] > t[0]:
        raise FitError("sample times must span a nonzero interval")
    p = np.array(_decay_start(times, n.tolist(), v_eff))

    converged = False
    current = cost(p)
    for _ in range(GN_MAX_ITERATIONS):
        jac = jacobian(p)
        if not np.all(np.isfinite(jac)):
            break
        # column-scale before solving: raw columns differ by the parameter
        # magnitudes (counts vs m^3/s), which would starve the SVD cutoff
        norms = np.linalg.norm(jac, axis=0)
        norms = np.where(norms > 0.0, norms, 1.0)
        try:
            scaled, *_ = np.linalg.lstsq(jac / norms, -residuals(p), rcond=None)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"two-body decay fit: least-squares step failed: {exc}") from exc
        delta = scaled / norms
        # stationarity is judged on the full proposed step only; a
        # backtracked step can be arbitrarily small far from the minimum
        proposed = float(np.max(np.abs(delta) / np.maximum(np.abs(p), 1e-300)))
        if proposed < GN_RELATIVE_TOLERANCE:
            converged = True
            break
        # backtracking line search
        scale = 1.0
        improved = False
        for _ in range(GN_MAX_BACKTRACKS):
            trial = p + scale * delta
            if trial[0] > 0 and trial[1] > 0:
                trial_cost = cost(trial)
                if trial_cost < current:
                    improved = True
                    break
            scale *= 0.5
        if not improved:
            # no descent available: a minimum if the step was already down
            # at the rounding floor of the cost, a genuine stall otherwise
            converged = proposed < GN_STALL_TOLERANCE
            break
        accepted = float(
            np.max(np.abs(scale * delta) / np.maximum(np.abs(trial), 1e-300))
        )
        gain = (current - trial_cost) / max(current, 1e-300)
        p = trial
        current = trial_cost
        # parameter-stationary or cost-stationary, either ends the descent;
        # the cost test is safe because the step direction is solved in
        # scaled form, so a vanishing reduction along it means a minimum
        if accepted < GN_RELATIVE_TOLERANCE or gain < GN_COST_TOLERANCE:
            converged = True
            break

    # covariance from the Jacobian at the solution (sigma-weighted
    # residuals), inverted in column-scaled form for the same reason
    jac = jacobian(p)
    try:
        norms = np.linalg.norm(jac, axis=0)
        norms = np.where(norms > 0.0, norms, 1.0)
        scaled_cov = np.linalg.inv((jac / norms).T @ (jac / norms))
        covariance = scaled_cov / np.outer(norms, norms)
        uncertainties = np.sqrt(np.maximum(np.diag(covariance), 0.0))
    except np.linalg.LinAlgError:
        uncertainties = np.full(3, math.inf)

    names = ("n0", "tau_s", "beta_m3_per_s")
    return FitResult(
        params=dict(zip(names, p.tolist())),
        sigmas=dict(zip(names, uncertainties.tolist())),
        chi2=current,
        dof=len(pts) - 3,
        converged=converged,
    )


def fit_tof_temperature(
    samples: Sequence[tuple[float, float]], mass_kg: float
) -> FitResult:
    """Temperature from ballistic expansion: straight-line fit of sigma^2
    against t^2, slope k_B T / m.

    Returns the temperature and the initial cloud size sigma0; the slope
    uncertainty comes from the ordinary least-squares residual variance.  A
    negative fitted slope is unphysical and raises.
    """
    if not mass_kg > 0:
        raise ValidationError(f"mass_kg must be positive, got {mass_kg!r}")
    pts = [(float(t), float(s)) for t, s in samples]
    if len(pts) < 3:
        raise FitError(f"time-of-flight fit needs >= 3 points, got {len(pts)}")
    x = [p[0] ** 2 for p in pts]
    y = [p[1] ** 2 for p in pts]
    if all(xi == x[0] for xi in x):
        raise FitError("expansion times must not all coincide")
    slope, intercept, x_mean, s_xx = _line_fit(x, y)
    # a plain sequential sum: numpy's residuals @ residuals is a BLAS dot,
    # whose order and fused multiply-adds vary with the CPU and the build
    chi2 = 0.0
    for xi, yi in zip(x, y):
        r = yi - slope * xi - intercept
        chi2 += r * r
    dof = len(pts) - 2
    residual_var = chi2 / dof
    slope_sigma = math.sqrt(residual_var / s_xx)
    intercept_sigma = math.sqrt(residual_var * (1.0 / len(pts) + x_mean**2 / s_xx))
    if slope < 0.0:
        raise FitError(
            f"fitted expansion slope is negative ({slope:.3e} m^2/s^2): "
            "the cloud cannot shrink with time of flight"
        )
    kb_over_m = BOLTZMANN_J_PER_K / mass_kg
    temperature = slope / kb_over_m
    temperature_sigma = slope_sigma / kb_over_m
    sigma0 = math.sqrt(max(intercept, 0.0))
    # d(sigma0)/d(intercept) = 1/(2 sigma0); undefined at sigma0 = 0
    sigma0_sigma = intercept_sigma / (2.0 * sigma0) if sigma0 > 0 else math.inf
    return FitResult(
        params={"temperature_k": temperature, "sigma0_m": sigma0},
        sigmas={"temperature_k": temperature_sigma, "sigma0_m": sigma0_sigma},
        chi2=chi2,
        dof=dof,
        converged=True,
    )
