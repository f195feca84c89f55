import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coldspin import (
    DetectorSpec,
    TransmissionSpec,
    ValidationError,
    angle_denominator,
    angle_variance,
    extract_angle,
    format_pulse_csv,
    simulate_pulse_detection,
    synthesize_waveform,
)
from coldspin.csvio import read_table
from coldspin.detector import PULSE_CSV_COLUMNS

DET = DetectorSpec()
TR = TransmissionSpec()


def test_noiseless_round_trip_is_exact():
    theta = 0.0268
    delta = simulate_pulse_detection(theta, 4e6, DET, TR, normal=None)
    assert delta == theta * 4e6
    assert extract_angle(delta, 4e6, TR) == theta


def test_transmission_scales_signal_and_cancels_in_extraction():
    tr = TransmissionSpec(t_h=0.9, t_v=0.8)
    delta = simulate_pulse_detection(0.01, 4e6, DET, tr)
    assert delta == pytest.approx(0.01 * 4e6 * 0.72, rel=1e-15)
    assert extract_angle(delta, 4e6, tr) == pytest.approx(0.01, rel=1e-15)


def test_noise_statistics():
    rng = np.random.Generator(np.random.PCG64(1234))
    n = 4e6
    draws = np.array(
        [simulate_pulse_detection(0.0, n, DET, TR, rng.standard_normal()) for _ in range(40000)]
    )
    expected_var = n + DET.electronic_noise_var
    assert abs(draws.mean()) < 4 * math.sqrt(expected_var / len(draws))
    assert draws.var() == pytest.approx(expected_var, rel=0.05)


def test_angle_variance_formula():
    assert angle_variance(4e6, DET, TR) == (4e6 + 1e5) / (4e6) ** 2
    tr = TransmissionSpec(t_h=0.5, t_v=0.5)
    assert angle_variance(4e6, DET, tr) == (4e6 + 1e5) / (4e6 * 0.25) ** 2


def test_angle_variance_matches_extracted_angle_scatter():
    rng = np.random.Generator(np.random.PCG64(99))
    n = 4e6
    thetas = np.array(
        [
            extract_angle(simulate_pulse_detection(0.01, n, DET, TR, rng.standard_normal()), n, TR)
            for _ in range(40000)
        ]
    )
    assert thetas.var() == pytest.approx(angle_variance(n, DET, TR), rel=0.05)
    assert thetas.mean() == pytest.approx(0.01, rel=1e-3)


def test_detector_spec_validation():
    with pytest.raises(ValidationError):
        DetectorSpec(electronic_noise_var=-1.0)
    with pytest.raises(ValidationError):
        DetectorSpec(calibration_factor=0.0)
    # sampling too coarse to resolve the filter response
    with pytest.raises(ValidationError, match="resolve"):
        DetectorSpec(sample_rate_hz=1e6)


def test_transmission_spec_validation():
    with pytest.raises(ValidationError):
        TransmissionSpec(t_h=0.0)
    with pytest.raises(ValidationError):
        TransmissionSpec(t_v=1.2)


def test_waveform_window_sum_recovers_imbalance_exactly():
    delta = 107200.0
    record = synthesize_waveform(delta, DET, 1e-6)
    window = record.samples[record.window_start : record.window_end]
    assert math.fsum(window) / DET.calibration_factor == pytest.approx(delta, rel=1e-12)
    assert record.integrated_imbalance == delta
    assert record.sample_rate_hz == DET.sample_rate_hz


def test_waveform_calibration_division():
    det = DetectorSpec(calibration_factor=2.5)
    record = synthesize_waveform(1000.0, det, 1e-6)
    window = record.samples[record.window_start : record.window_end]
    assert math.fsum(window) == pytest.approx(2500.0, rel=1e-12)
    assert math.fsum(window) / det.calibration_factor == pytest.approx(1000.0, rel=1e-12)


def test_waveform_is_linear_in_imbalance():
    one = synthesize_waveform(1.0, DET, 1e-6)
    two = synthesize_waveform(2.0, DET, 1e-6)
    assert two.samples == pytest.approx(
        tuple(2.0 * s for s in one.samples), rel=1e-12
    )


def test_waveform_geometry():
    record = synthesize_waveform(100.0, DET, 1e-6)
    # 1 us pulse + 2 us Gaussian padding per side at 100 MS/s
    assert len(record.samples) == 500
    assert 0 < record.window_start < record.window_end < len(record.samples)
    peak = max(record.samples)
    assert record.samples[0] < 1e-10 * peak  # baseline at the record edges
    assert record.samples[-1] < 1e-10 * peak
    mid = len(record.samples) // 2
    assert record.samples[mid] == pytest.approx(peak, rel=1e-3)


def test_zero_imbalance_waveform_is_flat_zero():
    record = synthesize_waveform(0.0, DET, 1e-6)
    assert all(s == 0.0 for s in record.samples)
    window = record.samples[record.window_start : record.window_end]
    assert math.fsum(window) / DET.calibration_factor == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_waveform_round_trip_property(delta):
    record = synthesize_waveform(delta, DET, 1e-6)
    window = record.samples[record.window_start : record.window_end]
    assert math.fsum(window) / DET.calibration_factor == pytest.approx(
        delta, rel=1e-9, abs=1e-9
    )


def test_pulse_csv_round_trip(tmp_path):
    record = synthesize_waveform(107200.0, DET, 1e-6)
    path = tmp_path / "pulse.csv"
    path.write_bytes(format_pulse_csv(record, path))
    lines = path.read_text().splitlines()
    assert lines[0] == "sample_index,value"
    assert len(lines) == len(record.samples) + 1
    values = [value for _, value in read_table(path, PULSE_CSV_COLUMNS)]
    assert values == pytest.approx(record.samples, rel=1e-10)
    # serialized with 12 significant digits
    assert "e" in lines[1].split(",")[1]


def test_pulse_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,v\n0,1.0\n")
    with pytest.raises(ValidationError, match="header"):
        read_table(path, PULSE_CSV_COLUMNS)
    path.write_text("sample_index,value\n")
    with pytest.raises(ValidationError, match="no data rows"):
        read_table(path, PULSE_CSV_COLUMNS)
    with pytest.raises(ValidationError, match="cannot read"):
        read_table(tmp_path / "absent.csv", PULSE_CSV_COLUMNS)


def test_pulse_csv_names_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sample_index,value\n0,1.0\n1,oops\n")
    with pytest.raises(ValidationError, match="row 3"):
        read_table(path, PULSE_CSV_COLUMNS)
    # rows are numbered by file line, blank lines included
    path.write_text("sample_index,value\n0,1.0\n\n1.5,2.0\n")
    with pytest.raises(ValidationError, match="row 4: sample_index"):
        read_table(path, PULSE_CSV_COLUMNS)
    path.write_text("sample_index,value\n0,1.0\n1,2.0\n\n")
    assert read_table(path, PULSE_CSV_COLUMNS) == [(0, 1.0), (1, 2.0)]


def test_pulse_record_window_bounds_validated():
    from coldspin import PulseRecord

    with pytest.raises(ValidationError):
        PulseRecord(
            samples=(0.0, 1.0),
            window_start=1,
            window_end=3,
            integrated_imbalance=1.0,
            sample_rate_hz=1e8,
        )


def test_simulate_rejects_nonpositive_photons():
    with pytest.raises(ValidationError):
        simulate_pulse_detection(0.01, 0.0, DET, TR)
    with pytest.raises(ValidationError):
        extract_angle(1.0, -1.0, TR)


def test_angle_denominator_rejects_underflow():
    # positive photons and transmissions whose product rounds to 0, which
    # every extracted angle divides by
    tr = TransmissionSpec(t_h=0.5, t_v=0.5)
    with pytest.raises(ArithmeticError, match=r"n_photons \* t_h \* t_v underflows to 0"):
        angle_denominator(5e-324, tr)
    with pytest.raises(ArithmeticError, match="underflows to 0"):
        extract_angle(1.0, 5e-324, tr)
    assert angle_denominator(5e-324, TR) == 5e-324
