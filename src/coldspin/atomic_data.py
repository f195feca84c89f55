"""Atomic line data and trap laser parameters, loaded from configuration.

Every physical constant of the probed transition lives here so the rest of
the package is constant-free.  The packaged defaults describe the 87Rb D2
line (F=1 -> F' manifold) and the dipole trap laser; they are taken from the
standard published line-data tables (Steck, "Rubidium 87 D Line Data"):
vacuum wavelength 780.241209686 nm, natural linewidth 6.0666 MHz, excited
state hyperfine intervals 72.218 MHz (F'=0 to F'=1) and 156.947 MHz (F'=1 to
F'=2), atomic mass 1.44316060e-25 kg.  Any JSON document with the same keys
can replace them; the CLI reads the one a config's atom_data key names.
The packaged document is read from the data directory beside this file,
so the package must be installed as files, not imported from a zip.  The
general constants k_B, h and c are the exact values fixed by the 2019 SI
(BIPM SI Brochure, 9th ed.).

All frequencies are linear frequencies in Hz.  The light-atom coupling only
ever uses the ratio of the linewidth to a detuning, so no 2*pi bookkeeping
enters as long as both use the same convention.
"""

from __future__ import annotations

import math
import os

from .errors import ValidationError
from .frozen import Frozen
from .jsonio import read_json

BOLTZMANN_J_PER_K = 1.380649e-23
PLANCK_J_S = 6.62607015e-34
SPEED_OF_LIGHT_M_PER_S = 299792458.0

# natural linewidths around each excited-state line inside which a
# detuning is refused (spin_optics.detuning_factor)
DEFAULT_GUARD_LINEWIDTHS = 10.0


def _require_number(value: object, name: str, *, allow_zero: bool = False) -> float:
    """value as a float if it is a finite number > 0 (>= 0 with allow_zero)."""
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value < 0.0 or (value == 0.0 and not allow_zero):
        bound = ">= 0" if allow_zero else "positive"
        raise ValidationError(f"{name} must be {bound} and finite, got {value!r}")
    return value


def _require_shape(
    document: object, keys: tuple[str, ...], what: str, extra: tuple[str, ...] = ()
) -> None:
    """Reject a document that is not a dict, a missing key or a key outside
    keys + extra, so typos fail loudly; values are checked by the spec."""
    if not isinstance(document, dict):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(document).__name__}"
        )
    for key in keys:
        if key not in document:
            raise ValidationError(f"{what} is missing key {key!r}")
    unknown = set(document) - set(keys) - set(extra)
    if unknown:
        raise ValidationError(f"{what} has unknown key {sorted(unknown)[0]!r}")


class AtomSpec(Frozen):
    """Line data for one F=1 -> F' in {0,1,2} probe transition manifold.

    The fields are the keys of the atom-data document: the two hyperfine
    splittings are the offsets (Hz) of F'=1 and F'=2 above F'=0.  Two
    attributes are derived once here and reused everywhere:
    hyperfine_splittings, the offsets (0.0, f1, f2) indexed by F', and
    cross_section_m2, the summed on-resonance scattering cross section
    lambda^2/pi.
    """

    wavelength_m: float
    linewidth_hz: float
    hf_splitting_f1_hz: float
    hf_splitting_f2_hz: float
    mass_kg: float

    def __post_init__(self):
        for name in self._fields:
            object.__setattr__(self, name, _require_number(getattr(self, name), name))
        f1, f2 = self.hf_splitting_f1_hz, self.hf_splitting_f2_hz
        if not f1 < f2:
            raise ValidationError(
                "hf_splitting_f1_hz must be smaller than hf_splitting_f2_hz, got "
                f"{f1!r} >= {f2!r}"
            )
        object.__setattr__(self, "hyperfine_splittings", (0.0, f1, f2))
        object.__setattr__(
            self, "cross_section_m2", self.wavelength_m**2 / math.pi
        )


class TrapSpec(Frozen):
    """Dipole trap laser parameters; waist_m is the 1/e^2 intensity radius."""

    wavelength_m: float
    power_w: float
    waist_m: float

    def __post_init__(self):
        for name in self._fields:
            # power 0 is legal: a switched-off trap has zero depth
            value = _require_number(
                getattr(self, name), f"trap.{name}", allow_zero=name == "power_w"
            )
            object.__setattr__(self, name, value)


def load_atom_spec(document: dict) -> AtomSpec:
    """Build a validated AtomSpec from a parsed JSON document.

    The document must hold exactly AtomSpec's fields, plus an optional
    nested "trap" section of TrapSpec's fields (see default_trap_spec);
    AtomSpec checks the values, and TrapSpec those of a trap section.
    """
    _require_shape(document, AtomSpec._fields, "atom data document", extra=("trap",))
    if "trap" in document:
        _require_shape(document["trap"], TrapSpec._fields, "atom data key 'trap'")
        TrapSpec(**document["trap"])
    return AtomSpec(**{name: document[name] for name in AtomSpec._fields})


def default_atom_document() -> dict:
    """Return the packaged 87Rb D2 document as a plain dict."""
    return read_json(os.path.join(os.path.dirname(__file__), "data", "rb87_d2.json"))


def default_atom_spec() -> AtomSpec:
    """Packaged 87Rb D2 line data (sources in the module docstring)."""
    return load_atom_spec(default_atom_document())


def default_trap_spec() -> TrapSpec:
    """Packaged trap laser defaults: 1030 nm, 7 W, 50 um waist, from the
    "trap" section of the packaged document."""
    return TrapSpec(**default_atom_document()["trap"])
