import math
from types import MappingProxyType

import pytest

from coldspin.analysis import FitResult
from coldspin.atomic_data import AtomSpec, TrapSpec
from coldspin.detector import DetectorSpec, PulseRecord, TransmissionSpec
from coldspin.ensemble import TrapPopulationParams, effective_two_body_volume
from coldspin.experiment import DestructionModel, ScanConfig
from coldspin.scandata import ScanDataset, ScanPoint
from coldspin.spin_optics import CollectiveSpinState, CouplingParams, StokesState

POINT = {"detuning_hz": -1.6e9, "theta_mean_rad": 0.01, "theta_stderr_rad": 1e-3,
         "theta_stddev_rad": 6e-3, "n_runs": 40, "n_pulses": 10}

# every value class: arguments for each field in order, and attributes as
# __post_init__ leaves them (converted, sorted, copied or derived)
VALUE_CLASSES = [
    (AtomSpec,
     {"wavelength_m": 780e-9, "linewidth_hz": 6e6, "hf_splitting_f1_hz": 72_000_000,
      "hf_splitting_f2_hz": 229_000_000, "mass_kg": 1.4e-25},
     {"hf_splitting_f1_hz": 7.2e7, "hyperfine_splittings": (0.0, 7.2e7, 2.29e8),
      "cross_section_m2": 780e-9**2 / math.pi}),
    (TrapSpec, {"wavelength_m": 1.03e-6, "power_w": 7, "waist_m": 5e-5}, {"power_w": 7.0}),
    (DetectorSpec,
     {"electronic_noise_var": 1e5, "calibration_factor": 1.0, "filter_sigma_s": 2.5e-7,
      "sample_rate_hz": 1e8}, {}),
    (TransmissionSpec, {"t_h": 0.9, "t_v": 0.8}, {}),
    (PulseRecord,
     {"samples": (0.0, 1.0, 0.5), "window_start": 0, "window_end": 2,
      "integrated_imbalance": 1.5, "sample_rate_hz": 1e8}, {}),
    (CollectiveSpinState, {"mean_j": [0, 0, 5], "var_j": [2.5, 2.5, 0], "n_atoms": 10},
     {"mean_j": (0.0, 0.0, 5.0), "var_j": (2.5, 2.5, 0.0), "n_atoms": 10.0}),
    (StokesState,
     {"mean_s": [2, 0, 0], "var_s": [0, 1, 1], "n_photons": 4},
     {"mean_s": (2.0, 0.0, 0.0), "n_photons": 4.0}),
    (CouplingParams, {"detuning_hz": -1.6e9, "area_m2": 4e-9, "g": 1e-8, "g_tilde_m2": 4e-17},
     {}),
    (TrapPopulationParams,
     {"n0": 1e6, "tau_s": 10.0, "beta_m3_per_s": 1e-17, "sigma_z_m": 1e-4, "sigma_r_m": 1e-5},
     {"v_eff_m3": effective_two_body_volume(1e-4, 1e-5)}),
    (ScanPoint, POINT, {}),
    (ScanDataset, {"points": (ScanPoint(**POINT),)}, {}),
    (DestructionModel, {"per_pulse_decay": 1e-4}, {}),
    (ScanConfig,
     {"detunings_hz": [1e9, -2e9, 0], "photons_per_pulse": 4e6, "pulses_per_sample": 10,
      "runs_per_point": 40, "atom_number_spread": 0.1, "seed": 0},
     {"detunings_hz": (-2e9, 0.0, 1e9)}),
    (FitResult,
     {"params": MappingProxyType({"n": 1.0}), "sigmas": MappingProxyType({"n": 0.1}),
      "chi2": 2.0, "dof": 3, "converged": True},
     {"params": {"n": 1.0}, "sigmas": {"n": 0.1}}),
]


@pytest.mark.parametrize(
    "cls, kwargs, normalised", VALUE_CLASSES, ids=[row[0].__name__ for row in VALUE_CLASSES]
)
def test_value_class_behaviour(cls, kwargs, normalised):
    value = cls(**kwargs)
    assert cls(*kwargs.values()) == value
    fields = tuple(getattr(value, name) for name in kwargs)

    for name, expected in normalised.items():
        assert getattr(value, name) == expected, name
        assert type(getattr(value, name)) is type(expected), name

    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={field!r}" for name, field in zip(kwargs, fields)) + ")"
    assert value.__eq__(object()) is NotImplemented
    assert value != fields
    try:
        field_hash = hash(fields)
    except TypeError:  # a dict field, as in FitResult
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == field_hash == hash(cls(**kwargs))

    first = next(iter(kwargs))
    for name in (first, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert getattr(value, first) == fields[0]

    with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
        cls(**kwargs, no_such_field=1.0)
    with pytest.raises(TypeError, match=f"multiple values for argument {first!r}"):
        cls(*kwargs.values(), **{first: fields[0]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*kwargs.values(), 1.0)
    required = [name for name in kwargs if name not in vars(cls)]
    for name in required:
        with pytest.raises(TypeError, match=f"missing required argument {name!r}"):
            cls(**{key: v for key, v in kwargs.items() if key != name})
    if not required:  # every field has its class attribute as default
        assert cls() == cls(**{name: getattr(cls, name) for name in kwargs})

