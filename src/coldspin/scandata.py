"""The scan dataset and its CSV table.

A scan reports one point per detuning: the mean rotation angle over runs,
its standard error and the sample standard deviation over runs, with the
run and pulse counts.  The fit reads these tables back, so this module
needs nothing beyond the standard library.
"""

from __future__ import annotations

import operator

from .csvio import read_table, write_table
from .errors import ValidationError
from .frozen import Frozen

# ScanPoint's fields, in order, with their types: read_scan_csv builds
# each point from its row's fields positionally
SCAN_CSV_COLUMNS = {
    "detuning_hz": float,
    "theta_mean_rad": float,
    "theta_stderr_rad": float,
    "theta_stddev_rad": float,
    "n_runs": int,
    "n_pulses": int,
}


class ScanPoint(Frozen):
    """Aggregated statistics of one scan detuning."""

    detuning_hz: float
    theta_mean_rad: float
    theta_stderr_rad: float
    theta_stddev_rad: float
    n_runs: int
    n_pulses: int

    def __post_init__(self):
        if self.theta_stderr_rad < 0 or self.theta_stddev_rad < 0:
            raise ValidationError("scan point spreads must be >= 0")


class ScanDataset(Frozen):
    """One record per configured detuning, ordered by detuning."""

    points: tuple[ScanPoint, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValidationError("a scan dataset needs at least one point")


def write_scan_csv(dataset: ScanDataset, path) -> None:
    """Serialize a scan as a CSV table, one row per point."""
    rows = map(operator.attrgetter(*SCAN_CSV_COLUMNS), dataset.points)
    write_table(path, SCAN_CSV_COLUMNS, rows)


def read_scan_csv(path) -> ScanDataset:
    """Parse a scan CSV back into a dataset; errors name the bad row."""
    return ScanDataset(points=tuple(read_table(path, SCAN_CSV_COLUMNS, ScanPoint)))
