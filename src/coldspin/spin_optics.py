"""Gaussian-moment model of the dispersive polarization-spin interface.

The collective atomic alignment pseudo-spin J and the light Stokes vector S
are tracked as mean/variance triples (no cross covariances are retained),
which is exact at the first-order coupling strengths of interest.  The
dispersive interaction rotates the light polarization in proportion to the
atomic z component and writes light ellipticity into the atomic y component,
leaving both z components untouched: the measurement back-action avoids the
measured observable.

Units: J components count atoms (a fully pumped ensemble has |<J_z>| =
N_a/2), S components count photons per pulse, and the coupling g is the
polarization rotation in radians per unit J_z.
"""

from __future__ import annotations

import math

from .atomic_data import SPEED_OF_LIGHT_M_PER_S, AtomSpec
from .errors import NearResonanceError, ValidationError
from .frozen import Frozen

# The first-order interaction map grows |mean| at second order in the
# rotation angle, so state validation allows a few percent of slack above
# the physical ball radius N/2 instead of demanding exact containment.
NORM_SLACK = 0.05

DEFAULT_GUARD_LINEWIDTHS = 10.0

_AXES = {
    "x": (1.0, 0),
    "y": (1.0, 1),
    "z": (1.0, 2),
    "-x": (-1.0, 0),
    "-y": (-1.0, 1),
    "-z": (-1.0, 2),
}


def _check_triple(values, name: str) -> tuple[float, float, float]:
    try:
        a, b, c = (float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a numeric 3-vector") from exc
    for v in (a, b, c):
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {values!r}")
    return (a, b, c)


def _check_ball(mean: tuple[float, float, float], radius: float, name: str) -> None:
    length = math.sqrt(mean[0] ** 2 + mean[1] ** 2 + mean[2] ** 2)
    if length > radius * (1.0 + NORM_SLACK):
        raise ValidationError(
            f"|{name}| = {length:.6g} exceeds the physical bound {radius:.6g}"
        )


def _check_variances(var: tuple[float, float, float], name: str) -> None:
    if min(var) < 0.0:
        raise ValidationError(f"{name} must be non-negative, got {var!r}")


class CollectiveSpinState(Frozen):
    """Mean and variance of the collective pseudo-spin (J_x, J_y, J_z)."""

    mean_j: tuple[float, float, float]
    var_j: tuple[float, float, float]
    n_atoms: float

    def __post_init__(self):
        object.__setattr__(self, "mean_j", _check_triple(self.mean_j, "mean_j"))
        object.__setattr__(self, "var_j", _check_triple(self.var_j, "var_j"))
        object.__setattr__(self, "n_atoms", float(self.n_atoms))
        if not math.isfinite(self.n_atoms) or self.n_atoms < 0.0:
            raise ValidationError(f"n_atoms must be >= 0, got {self.n_atoms!r}")
        _check_variances(self.var_j, "var_j")
        _check_ball(self.mean_j, self.n_atoms / 2.0, "mean_j")


class StokesState(Frozen):
    """Mean and variance of the Stokes vector (S_x, S_y, S_z) of one pulse."""

    mean_s: tuple[float, float, float]
    var_s: tuple[float, float, float]
    n_photons: float

    def __post_init__(self):
        object.__setattr__(self, "mean_s", _check_triple(self.mean_s, "mean_s"))
        object.__setattr__(self, "var_s", _check_triple(self.var_s, "var_s"))
        object.__setattr__(self, "n_photons", float(self.n_photons))
        if not math.isfinite(self.n_photons) or self.n_photons < 0.0:
            raise ValidationError(f"n_photons must be >= 0, got {self.n_photons!r}")
        _check_variances(self.var_s, "var_s")
        _check_ball(self.mean_s, self.n_photons / 2.0, "mean_s")


class CouplingParams(Frozen):
    """Dispersive coupling at one detuning and beam area.

    g is the dimensionless per-J_z rotation; g_tilde = area * g depends only
    on atomic structure and detuning and converts column density to angle.
    """

    detuning_hz: float
    area_m2: float
    g: float
    g_tilde_m2: float


def coherent_spin_state(n_atoms: float, axis: str = "z") -> CollectiveSpinState:
    """Fully pumped coherent ensemble along a signed principal axis.

    Mean is (n_atoms/2) along the axis; the two transverse components carry
    the projection-noise variance n_atoms/4 and the longitudinal one is 0.
    """
    if axis not in _AXES:
        raise ValidationError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    if n_atoms < 0:
        raise ValidationError(f"n_atoms must be >= 0, got {n_atoms!r}")
    sign, index = _AXES[axis]
    mean = [0.0, 0.0, 0.0]
    mean[index] = sign * n_atoms / 2.0
    var = [n_atoms / 4.0] * 3
    var[index] = 0.0
    return CollectiveSpinState(tuple(mean), tuple(var), n_atoms)


def coherent_pulse(n_photons: float, polarization: str = "x") -> StokesState:
    """Coherent probe pulse; all three Stokes variances are shot noise N/4.

    polarization: "x", "y" (linear along S_x), "+45", "-45" (along S_y), or
    "sigma+", "sigma-" (circular, along S_z).
    """
    poles = {
        "x": (1.0, 0),
        "y": (-1.0, 0),
        "+45": (1.0, 1),
        "-45": (-1.0, 1),
        "sigma+": (1.0, 2),
        "sigma-": (-1.0, 2),
    }
    if polarization not in poles:
        raise ValidationError(
            f"polarization must be one of {sorted(poles)}, got {polarization!r}"
        )
    if n_photons < 0:
        raise ValidationError(f"n_photons must be >= 0, got {n_photons!r}")
    sign, index = poles[polarization]
    mean = [0.0, 0.0, 0.0]
    mean[index] = sign * n_photons / 2.0
    var = (n_photons / 4.0,) * 3
    return StokesState(tuple(mean), var, n_photons)


def detuning_factor(
    detuning_hz: float,
    f_prime: int,
    spec: AtomSpec,
    *,
    convention: str = "physical",
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> float:
    """Reciprocal detuning 1/(Delta -+ Delta_0,F') from one F' resonance.

    detuning_hz is measured from the F=1 -> F'=0 transition, negative on the
    red side.  The default "physical" convention places each pole exactly at
    the F' resonance, 1/(Delta - Delta_0,F'); "literal" selects the opposite
    sign, 1/(Delta + Delta_0,F'), for comparison against analyses written in
    the reversed detuning convention.  A guard band of guard_linewidths
    natural linewidths around each pole is refused: the dispersive model
    neglects absorption there.  A detuning at or beyond the probe's optical
    frequency c/lambda would make that frequency negative and is refused.
    """
    optical_hz = SPEED_OF_LIGHT_M_PER_S / spec.wavelength_m
    if not abs(detuning_hz) < optical_hz:
        raise ValidationError(
            f"detuning {detuning_hz:.6g} Hz is not below the probe's optical "
            f"frequency {optical_hz:.6g} Hz in magnitude"
        )
    if f_prime not in (0, 1, 2):
        raise ValidationError(f"f_prime must be 0, 1, or 2, got {f_prime!r}")
    if convention not in ("physical", "literal"):
        raise ValidationError(
            f"convention must be 'physical' or 'literal', got {convention!r}"
        )
    if guard_linewidths < 0:
        raise ValidationError(
            f"guard_linewidths must be >= 0, got {guard_linewidths!r}"
        )
    splitting = spec.hyperfine_splittings[f_prime]
    if convention == "physical":
        denominator = detuning_hz - splitting
    else:
        denominator = detuning_hz + splitting
    if abs(denominator) < guard_linewidths * spec.linewidth_hz:
        raise NearResonanceError(
            f"detuning {detuning_hz:.6g} Hz is within {guard_linewidths:g} "
            f"linewidths of the F'={f_prime} resonance"
        )
    return 1.0 / denominator


def rotation_cross_section(
    detuning_hz: float,
    spec: AtomSpec,
    *,
    convention: str = "physical",
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> float:
    """Area-independent coupling g_tilde (m^2): the rotation angle per unit
    column density is g_tilde/2.

    g_tilde = (Gamma lambda^2 / 16 pi) (-4 delta_0 - 5 delta_1 + 5 delta_2),
    with the vector weights of the F=1 -> F' in {0,1,2} manifold.
    """
    deltas = [
        detuning_factor(
            detuning_hz,
            f_prime,
            spec,
            convention=convention,
            guard_linewidths=guard_linewidths,
        )
        for f_prime in (0, 1, 2)
    ]
    prefactor = spec.linewidth_hz * spec.wavelength_m**2 / (16.0 * math.pi)
    return prefactor * (-4.0 * deltas[0] - 5.0 * deltas[1] + 5.0 * deltas[2])


def coupling_constant(
    detuning_hz: float,
    area_m2: float,
    spec: AtomSpec,
    *,
    convention: str = "physical",
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> CouplingParams:
    """Dispersive coupling g = g_tilde/area at one detuning and beam area."""
    if not (area_m2 > 0.0 and math.isfinite(area_m2)):
        raise ValidationError(f"area_m2 must be positive, got {area_m2!r}")
    g_tilde = rotation_cross_section(
        detuning_hz, spec, convention=convention, guard_linewidths=guard_linewidths
    )
    return CouplingParams(
        detuning_hz=float(detuning_hz),
        area_m2=float(area_m2),
        g=g_tilde / area_m2,
        g_tilde_m2=g_tilde,
    )


def qnd_interact(
    light: StokesState, atoms: CollectiveSpinState, cp: CouplingParams
) -> tuple[StokesState, CollectiveSpinState]:
    """Apply the first-order dispersive map to one pulse and one ensemble.

    Means: S_y += g J_z S_x and J_y += g S_z J_x; S_z and J_z pass through
    untouched (their means and variances are copied bit for bit).  Variances
    of the rotated components pick up the full quadratic propagation of a
    product of independent Gaussians,

        var(S_y) += g^2 [<S_x>^2 var(J_z) + <J_z>^2 var(S_x)
                         + var(S_x) var(J_z)]

    and symmetrically for var(J_y); the bilinear var*var term is exact for
    Gaussian factors and negligible when the means dominate.
    """
    g = cp.g
    s_x, s_y, s_z = light.mean_s
    vs_x, vs_y, vs_z = light.var_s
    j_x, j_y, j_z = atoms.mean_j
    vj_x, vj_y, vj_z = atoms.var_j

    s_y_out = s_y + g * j_z * s_x
    vs_y_out = vs_y + g * g * (s_x * s_x * vj_z + j_z * j_z * vs_x + vs_x * vj_z)
    j_y_out = j_y + g * s_z * j_x
    vj_y_out = vj_y + g * g * (s_z * s_z * vj_x + j_x * j_x * vs_z + vs_z * vj_x)

    light_out = StokesState((s_x, s_y_out, s_z), (vs_x, vs_y_out, vs_z), light.n_photons)
    atoms_out = CollectiveSpinState(
        (j_x, j_y_out, j_z), (vj_x, vj_y_out, vj_z), atoms.n_atoms
    )
    return light_out, atoms_out


def faraday_angle(atoms: CollectiveSpinState, g: float) -> float:
    """Polarization rotation angle theta = g <J_z> (radians); g N_a/2 for a
    fully z-pumped ensemble, with sign following the pumping direction."""
    return g * atoms.mean_j[2]


def od_from_angle(
    theta_rad: float,
    detuning_hz: float,
    spec: AtomSpec,
    *,
    convention: str = "physical",
    guard_linewidths: float = DEFAULT_GUARD_LINEWIDTHS,
) -> float:
    """Resonant optical depth inferred from a rotation angle measured at a
    known detuning: OD = 2 sigma_0 theta / g_tilde(Delta)."""
    g_tilde = rotation_cross_section(
        detuning_hz, spec, convention=convention, guard_linewidths=guard_linewidths
    )
    return 2.0 * spec.cross_section_m2 * theta_rad / g_tilde


def single_atom_pseudospin(amplitudes) -> tuple[float, float, float]:
    """Pseudo-spin expectations (j_x, j_y, j_z) of one F=1 atom.

    amplitudes (a, b, c) are the complex state amplitudes over m = -1, 0,
    +1 (must be normalized within 1e-12).  Components are the
    half-expectations of the quadratic forms F_x^2 - F_y^2, F_x F_y +
    F_y F_x, and F_z, in closed form: j_x + i j_y = conj(c) a and
    j_z = (|c|^2 - |a|^2)/2.
    """
    try:
        if isinstance(amplitudes, (str, bytes)):
            raise TypeError("a string is not a vector")
        a, b, c = (complex(v) for v in amplitudes)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"amplitudes must be a complex 3-vector over m = -1, 0, +1, got {amplitudes!r}"
        ) from exc
    pop_minus, pop_plus = (z.real * z.real + z.imag * z.imag for z in (a, c))
    norm_sq = pop_minus + (b.real * b.real + b.imag * b.imag) + pop_plus
    if not abs(norm_sq - 1.0) <= 1e-12:  # NaN fails too
        raise ValidationError(
            f"amplitudes must be normalized within 1e-12, got |psi|^2 = {norm_sq!r}"
        )
    coherence = c.conjugate() * a
    return (coherence.real, coherence.imag, (pop_plus - pop_minus) / 2.0)


def decay_mean_z(atoms: CollectiveSpinState, fraction: float) -> CollectiveSpinState:
    """Reduce <J_z> by the given fraction, leaving everything else alone.

    Models probe-induced depolarization of the pumped component; variances
    are deliberately untouched (the loss acts on the mean signal only).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"fraction must be in [0, 1], got {fraction!r}")
    j_x, j_y, j_z = atoms.mean_j
    return CollectiveSpinState(
        (j_x, j_y, j_z * (1.0 - fraction)), atoms.var_j, atoms.n_atoms
    )
