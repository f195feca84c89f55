"""Parameter estimation: column-density fit, SNR, and the trap-loss and
time-of-flight fits, with the photon budget re-exported from coldspin.budget.

The rotation-angle scan is fit by weighted linear least squares for the one
free parameter (the column density); the trap decay is fit by projected
Levenberg-Marquardt steps on the closed-form two-body solution, in its two
non-negative loss rates; time-of-flight temperatures come from an ordinary
linear fit of sigma^2 against t^2.

Every fit runs in plain floats, without numpy, summing as np.sum does
(summation.pairwise_sum), so the closed-form fits match the numpy
formulation bit for bit; the decay fit solves its 3x3 steps by a cofactor
inverse.
"""

from __future__ import annotations

import math

from .atomic_data import BOLTZMANN_J_PER_K, DEFAULT_GUARD_LINEWIDTHS
from .errors import FitError, ValidationError
from .frozen import Frozen
from .jsonio import decode_nonfinite
from .summation import pairwise_sum

# Levenberg-Marquardt controls: deterministic, testable stopping
LM_MAX_ITERATIONS = 200
LM_RELATIVE_TOLERANCE = 1.0e-10
LM_COST_TOLERANCE = 1.0e-12
LM_INITIAL_DAMPING = 1.0e-3


def __getattr__(name: str):
    # photon_budget lives in coldspin.budget, so that the budget command
    # loads no fit and a fit no budget; it is re-exported here on first
    # access, the same object
    if name == "photon_budget":
        from .budget import photon_budget

        return photon_budget
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class FitResult(Frozen):
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


def fit_column_density(
    data: ScanDataset,
    spec: AtomSpec,
    *,
    weighted: bool = True,
    sigma_source: str = "stddev",
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
    from .spin_optics import rotation_cross_section

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
            point.detuning_hz, spec, guard_linewidths=guard_linewidths
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
    denominator = pairwise_sum([wi * gi * gi for wi, gi in zip(w, g)])
    if denominator == 0.0:
        raise FitError("degenerate design: g_tilde vanishes at every point")
    n_c = pairwise_sum([wi * ti * gi for wi, ti, gi in zip(w, theta, g)]) / denominator
    residuals = [ti - n_c * gi for ti, gi in zip(theta, g)]
    chi2 = pairwise_sum([wi * (r * r) for wi, r in zip(w, residuals)])
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


def _line_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float, float]:
    """Ordinary least-squares line y = slope x + intercept: returns slope,
    intercept, mean(x) and S_xx = sum (x - mean(x))^2."""
    x_mean = pairwise_sum(x) / len(x)
    y_mean = pairwise_sum(y) / len(y)
    dx = [xi - x_mean for xi in x]
    s_xx = pairwise_sum([d * d for d in dx])
    slope = pairwise_sum([d * (yi - y_mean) for d, yi in zip(dx, y)]) / s_xx
    return slope, y_mean - slope * x_mean, x_mean, s_xx


def _decay_start(t: Sequence[float], n: Sequence[float]) -> list[float]:
    """Starting (N0, gamma, kappa) for the decay fit from a linearization:
    the per-atom loss rate -dN/dt / N equals gamma + kappa N, so regressing
    the finite-difference rate against N splits the two channels before any
    nonlinear iteration.  Clamped to the physical region, gamma >= 0 and
    kappa >= 0; accuracy only matters for basin selection."""
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
    if len(rates) >= 2 and max(densities) > min(densities):
        slope, intercept, _, _ = _line_fit(densities, rates)
        return [n0, min(max(intercept, 0.0), 1e6 / span), max(slope, 0.0)]
    overall = math.log(max(n0 / n[-1], 1.0)) / span
    return [n0, overall / 2.0, overall / (2.0 * n0)]


def _symmetric_inverse(m: Sequence[Sequence[float]]) -> list[list[float]] | None:
    """Cofactor inverse of a symmetric 3x3 matrix (its upper triangle is read),
    or None if the determinant is not positive."""
    (a, b, c), (_, d, e), (_, _, f) = m
    c11, c12, c13 = d * f - e * e, c * e - b * f, b * e - c * d
    det = a * c11 + b * c12 + c * c13
    if not det > 0.0:
        return None
    c22, c23, c33 = a * f - c * c, b * c - a * e, a * d - b * b
    cofactors = ((c11, c12, c13), (c12, c22, c23), (c13, c23, c33))
    return [[x / det for x in row] for row in cofactors]


def fit_two_body_decay(
    samples: Sequence[tuple[float, float, float]], v_eff: float
) -> FitResult:
    """Fit of the two-body decay law to trap-population data, reported as
    (N0, tau, beta).

    samples are (time s, atom count, count uncertainty); v_eff is the
    effective two-body volume the rate constant is referred to.  The fit
    runs in what the data resolve, the loss rates gamma = 1/tau >= 0 and
    kappa = beta/V_eff >= 0, and reports tau = 1/gamma (inf at gamma = 0)
    and beta = kappa V_eff with their sigmas propagated, so V_eff scales
    beta and changes nothing else.  Residuals are sigma-weighted; the model
    and its exact Jacobian come from ensemble.two_body_population and
    two_body_gradient.  Each Levenberg-Marquardt step solves the
    column-scaled normal equations, damped by lambda on the diagonal, by
    their 3x3 cofactor inverse, with a rate at 0 that the cost gradient
    pushes below 0 held there, and projects the step onto the bounds; a
    step that does not reduce the cost is retried with 10x the damping, an
    accepted one divides it by 10.  Convergence means a relative parameter
    or cost change below 1e-10 or 1e-12 within 200 steps; the best point is
    returned either way.  A rate that ends at 0 has an infinite sigma, and
    every parameter does if the normal matrix of the others is singular.  A
    non-finite sample raises ValidationError.
    """
    from .ensemble import two_body_gradient, two_body_population

    if not v_eff > 0:
        raise ValidationError(f"v_eff must be positive, got {v_eff!r}")
    pts = [(float(t), float(n), float(s)) for t, n, s in samples]
    if not all(math.isfinite(x) for p in pts for x in p):
        raise ValidationError("sample times, counts and uncertainties must be finite")
    if len(pts) < 4:
        raise FitError(f"two-body decay fit needs >= 4 points, got {len(pts)}")
    pts.sort(key=lambda p: p[0])
    times, n, sigma = zip(*pts)
    if times[0] < 0:
        raise ValidationError("sample times must be >= 0")
    if min(sigma) <= 0 or min(n) <= 0:
        raise FitError("atom counts and their uncertainties must be positive")
    if not times[-1] > times[0]:
        raise FitError("sample times must span a nonzero interval")

    def evaluate(p: Sequence[float]) -> tuple[float, list[float]]:
        # the cost at p and the sigma-weighted residuals it sums
        r = [(ni - two_body_population(ti, *p)) / si for ti, ni, si in pts]
        return (pairwise_sum([x * x for x in r]) if all(map(math.isfinite, r))
                else math.inf), r

    def normal_system(p: Sequence[float], r: Sequence[float]):
        # None for a non-finite Jacobian, else the column norms (raw units),
        # the normal matrix of the columns scaled to unit norm, the scaled
        # descent direction, and which parameters are held at their bound
        rows = [two_body_gradient(ti, *p) for ti in times]
        columns = [[-g / si for g, si in zip(column, sigma)] for column in zip(*rows)]
        if not all(math.isfinite(x) for column in columns for x in column):
            return None
        norms = [math.sqrt(pairwise_sum([x * x for x in column])) for column in columns]
        norms = [norm if norm > 0.0 else 1.0 for norm in norms]
        scaled = [[x / norm for x in column] for column, norm in zip(columns, norms)]
        normal = [[pairwise_sum([x * y for x, y in zip(a, b)]) for b in scaled] for a in scaled]
        rhs = [pairwise_sum([-x * ri for x, ri in zip(column, r)]) for column in scaled]
        held = [k > 0 and p[k] == 0.0 and rhs[k] <= 0.0 for k in range(3)]
        return norms, normal, rhs, held

    def reduced(normal, held, damping: float):
        # the normal matrix with each held parameter's row and column
        # replaced by the identity's, damped on the free diagonal
        return [[float(i == j) if held[i] or held[j] else a + damping * (i == j)
                 for j, a in enumerate(row)] for i, row in enumerate(normal)]

    p = _decay_start(times, n)
    damping = LM_INITIAL_DAMPING
    converged = False
    current, r = evaluate(p)
    for _ in range(LM_MAX_ITERATIONS):
        system = normal_system(p, r)
        if system is None:
            break
        norms, normal, rhs, held = system
        inverse = _symmetric_inverse(reduced(normal, held, damping))
        if inverse is None:
            damping *= 10.0
            continue
        delta = [0.0 if h else pairwise_sum([a * b for a, b in zip(row, rhs)]) / norm
                 for row, norm, h in zip(inverse, norms, held)]
        trial = [p[0] + delta[0], max(p[1] + delta[1], 0.0), max(p[2] + delta[2], 0.0)]
        step = max(abs(a - b) / max(abs(b), 1e-300) for a, b in zip(trial, p))
        if step < LM_RELATIVE_TOLERANCE:
            converged = True
            break
        trial_cost, trial_r = evaluate(trial)
        if not trial_cost < current:
            damping *= 10.0
            continue
        gain = (current - trial_cost) / max(current, 1e-300)
        p, current, r = trial, trial_cost, trial_r
        damping /= 10.0
        if gain < LM_COST_TOLERANCE:
            converged = True
            break

    # covariance of the free parameters from the undamped scaled normal
    # matrix at the solution: a rate at 0, or a singular matrix, is inf
    uncertainties = [math.inf] * 3
    system = normal_system(p, r)
    if system is not None:
        norms, normal, _, _ = system
        held = [False, p[1] == 0.0, p[2] == 0.0]
        inverse = _symmetric_inverse(reduced(normal, held, 0.0))
        if inverse is not None:
            uncertainties = [math.inf if h else math.sqrt(max(row[i], 0.0)) / norm
                             for i, (row, norm, h) in enumerate(zip(inverse, norms, held))]
    n0, gamma, kappa = p
    sigma_n0, sigma_gamma, sigma_kappa = uncertainties
    tau = 1.0 / gamma if gamma else math.inf
    return FitResult(
        {"n0": n0, "tau_s": tau, "beta_m3_per_s": kappa * v_eff},
        {"n0": sigma_n0, "tau_s": sigma_gamma * tau * tau,
         "beta_m3_per_s": sigma_kappa * v_eff},
        chi2=current, dof=len(pts) - 3, converged=converged)


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
    if not all(math.isfinite(x) for p in pts for x in p):
        raise ValidationError("expansion times and radii must be finite")
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
