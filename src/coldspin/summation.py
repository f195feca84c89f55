"""Summation as numpy sums.

pairwise_sum reproduces np.sum of a float64 array bit for bit in plain
floats, so the fits and the waveform synthesis that use it sum exactly as
their numpy formulations did, without importing numpy.
"""

from __future__ import annotations

from collections.abc import Sequence


def pairwise_sum(values: Sequence[float]) -> float:
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
