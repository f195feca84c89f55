import json
import math

import pytest

from coldspin import (
    AtomSpec,
    TrapSpec,
    ValidationError,
    default_atom_spec,
    default_trap_spec,
    load_atom_spec,
)
from coldspin.atomic_data import default_atom_document
from coldspin.jsonio import read_json


def test_default_spec_loads_and_derives_cross_section():
    spec = default_atom_spec()
    assert spec.wavelength_m == pytest.approx(780.241209686e-9, rel=1e-12)
    assert spec.cross_section_m2 == spec.wavelength_m**2 / math.pi
    # the fields are the document's keys; the splittings are indexed by F'
    assert AtomSpec._fields == tuple(key for key in default_atom_document() if key != "trap")
    assert spec.hyperfine_splittings == (0.0, spec.hf_splitting_f1_hz, spec.hf_splitting_f2_hz)
    assert 0 < spec.hf_splitting_f1_hz < spec.hf_splitting_f2_hz
    # every field is a float, so two separate loads hash alike
    assert hash(spec) == hash(default_atom_spec())


def test_resonant_cross_section_matches_stored_value():
    # sigma_0 = lambda^2/pi follows the loaded wavelength, not the packaged one
    doc = default_atom_document()
    doc["wavelength_m"] = 794.978851156e-9
    spec = load_atom_spec(doc)
    assert spec.cross_section_m2 == doc["wavelength_m"] ** 2 / math.pi
    assert spec.cross_section_m2 != default_atom_spec().cross_section_m2


def test_default_trap_spec():
    trap = default_trap_spec()
    assert trap.wavelength_m == pytest.approx(1.03e-6)
    assert trap.power_w == pytest.approx(7.0)
    assert trap.waist_m == pytest.approx(50e-6)


def test_atom_document_round_trip():
    doc = default_atom_document()
    spec = load_atom_spec(doc)
    assert spec == default_atom_spec()


@pytest.mark.parametrize("missing", ["wavelength_m", "linewidth_hz", "mass_kg"])
def test_missing_key_rejected(missing):
    doc = default_atom_document()
    del doc[missing]
    with pytest.raises(ValidationError, match=missing):
        load_atom_spec(doc)


def test_unknown_key_rejected():
    doc = default_atom_document()
    doc["spin"] = 1
    with pytest.raises(ValidationError, match="spin"):
        load_atom_spec(doc)


def test_splitting_order_enforced():
    doc = default_atom_document()
    doc["hf_splitting_f1_hz"], doc["hf_splitting_f2_hz"] = (
        doc["hf_splitting_f2_hz"],
        doc["hf_splitting_f1_hz"],
    )
    with pytest.raises(ValidationError, match="hf_splitting"):
        load_atom_spec(doc)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True, "x"])
def test_nonpositive_wavelength_rejected(bad):
    doc = default_atom_document()
    doc["wavelength_m"] = bad
    with pytest.raises(ValidationError):
        load_atom_spec(doc)


@pytest.mark.parametrize(
    "key", ["linewidth_hz", "hf_splitting_f1_hz", "hf_splitting_f2_hz", "mass_kg"]
)
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True, "x", None])
def test_every_atom_number_rejected_by_name(key, bad):
    doc = default_atom_document()
    doc[key] = bad
    with pytest.raises(ValidationError, match=key):
        load_atom_spec(doc)


@pytest.mark.parametrize("key", ["wavelength_m", "power_w", "waist_m"])
@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), True, "x", None])
def test_every_trap_number_rejected_by_name(key, bad):
    doc = default_atom_document()["trap"]
    doc[key] = bad
    with pytest.raises(ValidationError, match=f"trap.{key}"):
        TrapSpec(**doc)


def test_atom_spec_requires_exact_fprime_keys():
    line = {"wavelength_m": 780e-9, "linewidth_hz": 6e6, "mass_kg": 1.4e-25}
    with pytest.raises(TypeError, match="hf_splitting_f2_hz"):
        AtomSpec(**line, hf_splitting_f1_hz=7.2e7)
    with pytest.raises(TypeError, match="hyperfine_splittings"):
        AtomSpec(**line, hyperfine_splittings={0: 0.0, 1: 7.2e7, 2: 2.3e8})
    with pytest.raises(ValidationError, match="must be smaller than hf_splitting_f2_hz"):
        AtomSpec(**line, hf_splitting_f1_hz=2.3e8, hf_splitting_f2_hz=2.3e8)


def test_trap_power_zero_is_legal_but_negative_is_not():
    TrapSpec(wavelength_m=1.03e-6, power_w=0.0, waist_m=50e-6)
    with pytest.raises(ValidationError):
        TrapSpec(wavelength_m=1.03e-6, power_w=-1.0, waist_m=50e-6)
    with pytest.raises(ValidationError):
        TrapSpec(wavelength_m=1.03e-6, power_w=7.0, waist_m=0.0)


def test_load_atom_file(tmp_path):
    path = tmp_path / "atom.json"
    path.write_text(json.dumps(default_atom_document()))
    assert load_atom_spec(read_json(path)) == default_atom_spec()


def test_load_atom_file_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "wavelength_m": ,\n}\n')
    with pytest.raises(ValidationError, match="line 2"):
        load_atom_spec(read_json(path))


def test_load_atom_file_missing(tmp_path):
    with pytest.raises(ValidationError):
        load_atom_spec(read_json(tmp_path / "nope.json"))
