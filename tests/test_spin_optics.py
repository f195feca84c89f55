import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldspin import (
    CollectiveSpinState,
    NearResonanceError,
    StokesState,
    ValidationError,
    coherent_pulse,
    coherent_spin_state,
    coupling_constant,
    decay_mean_z,
    default_atom_spec,
    detuning_factor,
    faraday_angle,
    od_from_angle,
    qnd_interact,
    rotation_cross_section,
    single_atom_pseudospin,
)

SPEC = default_atom_spec()
AREA = 1.0e6 / 2.65e14  # benchmark beam area: 1e6 atoms at n_c=2.65e14


def g_tilde_oracle(detuning_hz):
    """High-precision reference for the rotation cross section, computed
    from scratch with 40-digit arithmetic so round-off in the package
    implementation cannot hide sign or weight errors."""
    from mpmath import mp, mpf

    mp.dps = 40
    gamma = mpf("6066600.0")
    lam = mpf("780.241209686e-9")
    splittings = (mpf(0), mpf("72218000.0"), mpf("229165000.0"))
    weights = (mpf(-4), mpf(-5), mpf(5))
    delta = mpf(repr(detuning_hz))
    total = mpf(0)
    for w, s in zip(weights, splittings):
        total += w / (delta - s)
    return float(gamma * lam**2 / (16 * mp.pi) * total)


@pytest.mark.parametrize("detuning_hz", [-2.3e9, -1.6e9, -0.8e9, 3.5e9, -6.8e9])
def test_rotation_cross_section_against_oracle(detuning_hz):
    assert rotation_cross_section(detuning_hz, SPEC) == pytest.approx(
        g_tilde_oracle(detuning_hz), rel=1e-12
    )


def test_detuning_factor_pole_positions():
    # physical convention: each pole sits at the F' resonance itself
    assert detuning_factor(-1.6e9, 0, SPEC) == pytest.approx(-6.25e-10, rel=1e-12)
    assert detuning_factor(-1.6e9, 1, SPEC) == pytest.approx(
        1.0 / (-1.6e9 - 72.218e6), rel=1e-12
    )
    with pytest.raises(NearResonanceError):
        detuning_factor(72.218e6 + 3 * SPEC.linewidth_hz, 1, SPEC)
    # guard can be widened past the default
    with pytest.raises(NearResonanceError):
        detuning_factor(-1e9, 0, SPEC, guard_linewidths=2e8)


def test_detuning_factor_literal_convention_flips_pole():
    # literal convention: pole of the F'=1 term sits at -72.218 MHz instead
    assert detuning_factor(-1.6e9, 1, SPEC, convention="literal") == pytest.approx(
        1.0 / (-1.6e9 + 72.218e6), rel=1e-12
    )
    with pytest.raises(NearResonanceError):
        detuning_factor(-72.218e6, 1, SPEC, convention="literal")
    detuning_factor(-72.218e6, 1, SPEC)  # fine physically: 72 MHz off F'=1


def test_detuning_factor_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        detuning_factor(-1.6e9, 3, SPEC)
    with pytest.raises(ValidationError):
        detuning_factor(-1.6e9, 0, SPEC, convention="both")
    with pytest.raises(ValidationError):
        detuning_factor(-1.6e9, 0, SPEC, guard_linewidths=-1.0)


def test_guard_zero_admits_any_off_pole_detuning():
    value = detuning_factor(1.0, 0, SPEC, guard_linewidths=0.0)
    assert value == 1.0


@pytest.mark.parametrize(
    "axis,index,sign",
    [("x", 0, 1), ("y", 1, 1), ("z", 2, 1), ("-x", 0, -1), ("-y", 1, -1), ("-z", 2, -1)],
)
def test_coherent_spin_state_axes(axis, index, sign):
    state = coherent_spin_state(1e6, axis)
    assert state.mean_j[index] == sign * 5e5
    assert state.var_j[index] == 0.0
    for k in range(3):
        if k != index:
            assert state.mean_j[k] == 0.0
            assert state.var_j[k] == 2.5e5  # n/4 projection noise


def test_coherent_spin_state_rejects_unknown_axis():
    with pytest.raises(ValidationError):
        coherent_spin_state(1e6, "w")
    with pytest.raises(ValidationError):
        coherent_spin_state(-1.0)


def test_mean_ball_validation():
    # |mean| up to (1 + slack) n/2 tolerated, beyond that rejected
    CollectiveSpinState((0.0, 0.0, 52.4), (0.0, 0.0, 0.0), 100)
    with pytest.raises(ValidationError):
        CollectiveSpinState((0.0, 0.0, 53.0), (0.0, 0.0, 0.0), 100)
    with pytest.raises(ValidationError):
        CollectiveSpinState((0.0, 0.0, 10.0), (0.0, -1.0, 0.0), 100)


def test_coherent_pulse_polarizations():
    for pol, mean in [
        ("x", (2e6, 0.0, 0.0)),
        ("y", (-2e6, 0.0, 0.0)),
        ("+45", (0.0, 2e6, 0.0)),
        ("-45", (0.0, -2e6, 0.0)),
        ("sigma+", (0.0, 0.0, 2e6)),
        ("sigma-", (0.0, 0.0, -2e6)),
    ]:
        pulse = coherent_pulse(4e6, pol)
        assert pulse.mean_s == mean
        assert pulse.var_s == (1e6, 1e6, 1e6)  # n/4 shot noise on all three
    with pytest.raises(ValidationError):
        coherent_pulse(4e6, "elliptical")


def test_coherent_pulse_refuses_a_pulse_duration():
    # 0.4.0 dropped the pulse_duration_s parameter: an old positional call
    # fails loudly instead of reading the duration as a polarization
    with pytest.raises(ValidationError, match="polarization"):
        coherent_pulse(4e6, 1e-6)
    with pytest.raises(TypeError):
        coherent_pulse(4e6, 1e-6, "x")
    with pytest.raises(TypeError):
        StokesState((2e6, 0.0, 0.0), (1e6, 1e6, 1e6), 4e6, 1e-6)


def test_qnd_mean_map_and_passthrough():
    cp = coupling_constant(-1.6e9, AREA, SPEC)
    light = coherent_pulse(4e6, "x")
    atoms = coherent_spin_state(1e6, "z")
    light_out, atoms_out = qnd_interact(light, atoms, cp)
    # rotation writes <J_z> onto S_y
    assert light_out.mean_s[1] == cp.g * 5e5 * 2e6
    # back action writes <S_z> onto J_y; zero for linear x polarization
    assert atoms_out.mean_j[1] == 0.0
    # probed components pass through bit for bit
    assert light_out.mean_s[2] == light.mean_s[2]
    assert light_out.var_s[2] == light.var_s[2]
    assert atoms_out.mean_j[2] == atoms.mean_j[2]
    assert atoms_out.var_j[2] == atoms.var_j[2]
    assert light_out.n_photons == light.n_photons
    assert atoms_out.n_atoms == atoms.n_atoms


def test_qnd_variance_matches_closed_form():
    # atoms pumped along x so J_z carries the n/4 projection noise the
    # probe is supposed to read out
    cp = coupling_constant(-1.6e9, AREA, SPEC)
    light = coherent_pulse(4e6, "x")
    atoms = coherent_spin_state(1e6, "x")
    light_out, _ = qnd_interact(light, atoms, cp)
    g = cp.g
    expected = 1e6 + g * g * ((2e6) ** 2 * 2.5e5 + 0.0**2 * 1e6 + 1e6 * 2.5e5)
    assert light_out.var_s[1] == expected
    # the mean-dominated budget formula N_p/4 + g^2 (N_p^2/4)(N_a/4) drops
    # the var*var cross term, a relative 1/N_L correction
    budget = 4e6 / 4.0 + g * g * ((4e6) ** 2 / 4.0) * (1e6 / 4.0)
    assert light_out.var_s[1] == pytest.approx(budget, rel=1e-5)
    assert light_out.var_s[1] > budget


finite = st.floats(
    min_value=-1e5, max_value=1e5, allow_nan=False, allow_infinity=False
)
variances = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
couplings = st.floats(min_value=-1e-4, max_value=1e-4, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(finite, finite, finite),
    st.tuples(variances, variances, variances),
    st.tuples(finite, finite, finite),
    st.tuples(variances, variances, variances),
    couplings,
)
def test_qnd_conservation_property(mean_s, var_s, mean_j, var_j, g):
    """The probed projections are exactly conserved and no variance ever
    shrinks, whatever the state and coupling."""
    # size the photon/atom numbers to cover the means after the rotation,
    # which can exceed the input ball for large g * J_z
    growth_s = abs(g) * abs(mean_j[2]) * abs(mean_s[0])
    growth_j = abs(g) * abs(mean_s[2]) * abs(mean_j[0])
    radius_s = 4.0 * (math.sqrt(sum(m * m for m in mean_s)) + growth_s + 1.0)
    radius_j = 4.0 * (math.sqrt(sum(m * m for m in mean_j)) + growth_j + 1.0)
    light = StokesState(mean_s, var_s, radius_s)
    atoms = CollectiveSpinState(mean_j, var_j, radius_j)
    from coldspin import CouplingParams

    cp = CouplingParams(detuning_hz=-1.6e9, area_m2=AREA, g=g, g_tilde_m2=g * AREA)
    light_out, atoms_out = qnd_interact(light, atoms, cp)
    assert light_out.mean_s[2] == light.mean_s[2]
    assert light_out.var_s[2] == light.var_s[2]
    assert atoms_out.mean_j[2] == atoms.mean_j[2]
    assert atoms_out.var_j[2] == atoms.var_j[2]
    assert light_out.var_s[1] >= light.var_s[1]
    assert atoms_out.var_j[1] >= atoms.var_j[1]
    assert light_out.var_s[0] == light.var_s[0]
    assert atoms_out.var_j[0] == atoms.var_j[0]


def test_faraday_angle_sign_and_magnitude():
    cp = coupling_constant(-1.6e9, AREA, SPEC)
    up = coherent_spin_state(1e6, "z")
    down = coherent_spin_state(1e6, "-z")
    assert faraday_angle(up, cp.g) == pytest.approx(cp.g * 5e5, rel=1e-15)
    assert faraday_angle(down, cp.g) == -faraday_angle(up, cp.g)
    # benchmark value: half a column density times g_tilde
    assert faraday_angle(up, cp.g) == pytest.approx(
        0.5 * 2.65e14 * g_tilde_oracle(-1.6e9), rel=1e-12
    )


@pytest.mark.parametrize("detuning_hz", [-2.3e9, -1.6e9, -0.8e9])
def test_od_is_detuning_independent(detuning_hz):
    """theta varies strongly with detuning but the inferred resonant OD must
    not: it is a property of the cloud alone."""
    n_c = 2.65e14
    theta = 0.5 * n_c * rotation_cross_section(detuning_hz, SPEC)
    od = od_from_angle(theta, detuning_hz, SPEC)
    assert od == pytest.approx(SPEC.cross_section_m2 * n_c, rel=1e-12)


def test_single_atom_pseudospin_stretched_states():
    # amplitudes ordered (m=-1, m=0, m=+1)
    assert single_atom_pseudospin((0.0, 0.0, 1.0)) == pytest.approx(
        (0.0, 0.0, 0.5), abs=1e-12
    )
    assert single_atom_pseudospin((1.0, 0.0, 0.0)) == pytest.approx(
        (0.0, 0.0, -0.5), abs=1e-12
    )


def test_single_atom_pseudospin_superpositions():
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    plus = single_atom_pseudospin((inv_sqrt2, 0.0, inv_sqrt2))
    minus = single_atom_pseudospin((-inv_sqrt2, 0.0, inv_sqrt2))
    assert plus == pytest.approx((0.5, 0.0, 0.0), abs=1e-12)
    assert minus == pytest.approx((-0.5, 0.0, 0.0), abs=1e-12)


def test_single_atom_pseudospin_rejects_unnormalized():
    with pytest.raises(ValidationError):
        single_atom_pseudospin((1.0, 0.0, 1.0))
    with pytest.raises(ValidationError, match="normalized"):
        single_atom_pseudospin((math.nan, 0.0, 0.0))


def matrix_means(amplitudes):
    """Oracle: means of the pseudo-spin from explicit spin-1 matrices in the
    (m=-1, m=0, m=+1) basis."""
    f_plus = np.zeros((3, 3), dtype=complex)
    f_plus[1, 0] = f_plus[2, 1] = math.sqrt(2.0)
    f_x = (f_plus + f_plus.conj().T) / 2.0
    f_y = (f_plus - f_plus.conj().T) / 2.0j
    f_z = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    ops = ((f_x @ f_x - f_y @ f_y) / 2.0, (f_x @ f_y + f_y @ f_x) / 2.0, f_z / 2.0)
    psi = np.asarray(amplitudes, dtype=complex)
    return [float(np.vdot(psi, op @ psi).real) for op in ops]


def test_pseudospin_matches_matrix_oracle():
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert single_atom_pseudospin((inv_sqrt2, 0.0, 1j * inv_sqrt2)) == pytest.approx(
        (0.0, -0.5, 0.0), abs=1e-15
    )
    rng = np.random.default_rng(7)
    states = [(inv_sqrt2, 0.0, 1j * inv_sqrt2)]
    for _ in range(200):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        states.append(tuple(psi / np.linalg.norm(psi)))
    for psi in states:
        assert single_atom_pseudospin(psi) == pytest.approx(matrix_means(psi), abs=1e-15)


@pytest.mark.parametrize(
    "amplitudes",
    [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0), [[1.0, 0.0, 0.0]], "100", None, (1.0, "x", 0.0)],
    ids=["short", "long", "nested", "string", "none", "text-entry"],
)
def test_pseudospin_rejects_non_vectors(amplitudes):
    with pytest.raises(ValidationError, match="complex 3-vector"):
        single_atom_pseudospin(amplitudes)


def test_decay_mean_z():
    atoms = coherent_spin_state(1e6, "z")
    decayed = decay_mean_z(atoms, 1e-4)
    assert decayed.mean_j[2] == 5e5 * (1.0 - 1e-4)
    assert decayed.var_j == atoms.var_j
    assert decayed.n_atoms == atoms.n_atoms
    with pytest.raises(ValidationError):
        decay_mean_z(atoms, 1.5)


def test_coupling_constant_bundles_geometry():
    cp = coupling_constant(-1.6e9, AREA, SPEC)
    assert cp.g == pytest.approx(cp.g_tilde_m2 / AREA, rel=1e-15)
    assert cp.detuning_hz == -1.6e9
    with pytest.raises(ValidationError):
        coupling_constant(-1.6e9, 0.0, SPEC)


def test_states_are_value_objects():
    a = coherent_spin_state(10, "z")
    b = coherent_spin_state(10, "z")
    assert a == b
    assert hash(a) == hash(b)
