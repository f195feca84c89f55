import math

import pytest

from coldspin import (
    CollectiveSpinState,
    DestructionModel,
    DetectorSpec,
    StokesState,
    TransmissionSpec,
    TrapPopulationParams,
    ValidationError,
    angle_variance,
    coherent_pulse,
    coherent_spin_state,
    coupling_constant,
    default_atom_spec,
    default_trap_spec,
    dipole_trap_depth,
    evolve_trap_population_rk4,
    run_pulse_train,
)

SPEC = default_atom_spec()
TRAP_PARAMS = TrapPopulationParams(1.2e6, 1500.0, 8.0e-20, 3.6e-3, 8.5e-6)


def pulse_train(n_pulses):
    return run_pulse_train(
        n_pulses, coherent_spin_state(1e6), coupling_constant(-1.6e9, 4e-9, SPEC),
        coherent_pulse(4e6), DestructionModel(), DetectorSpec(), TransmissionSpec(), None,
    )


# the library's own guards of an argument, each a raise no command reaches:
# every CLI path checks the value before the call, or never passes it
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: angle_variance(0.0, DetectorSpec(), TransmissionSpec()),
         "n_photons must be positive, got 0.0"),
        (lambda: angle_variance(-4e6, DetectorSpec(), TransmissionSpec()),
         "n_photons must be positive, got -4000000.0"),
        (lambda: evolve_trap_population_rk4(TRAP_PARAMS, -1.0), "t_s must be >= 0, got -1.0"),
        (lambda: evolve_trap_population_rk4(TRAP_PARAMS, math.nan), "t_s must be >= 0, got nan"),
        (lambda: dipole_trap_depth(default_trap_spec(), SPEC, guard_linewidths=-1.0),
         "guard_linewidths must be >= 0, got -1.0"),
        (lambda: pulse_train(-1), "n_pulses must be an integer >= 0, got -1"),
        (lambda: pulse_train(10.0), "n_pulses must be an integer >= 0, got 10.0"),
        (lambda: CollectiveSpinState(("a", 0, 0), (1, 1, 0), 4),
         "mean_j must be a numeric 3-vector"),
        (lambda: StokesState((2, 0, 0), (0, 1), 4), "var_s must be a numeric 3-vector"),
        (lambda: CollectiveSpinState((0, 0, 0), (1, 1, 0), -4),
         "n_atoms must be >= 0, got -4.0"),
        (lambda: StokesState((0, 0, 0), (0, 1, 1), math.inf), "n_photons must be >= 0, got inf"),
    ],
    ids=["angle-variance-zero-photons", "angle-variance-negative-photons",
         "rk4-negative-time", "rk4-nan-time", "trap-depth-negative-guard",
         "pulse-train-negative-count", "pulse-train-float-count", "spin-non-numeric-mean",
         "stokes-short-variance", "spin-negative-count", "stokes-infinite-count"],
)
def test_library_guards_raise_validation_error(call, message):
    with pytest.raises(ValidationError) as excinfo:
        call()
    assert str(excinfo.value) == message
