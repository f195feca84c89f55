"""The photon budget of projection-noise-limited probing, apart from the
fits, so that the budget command loads none of them."""

import math

from .errors import ValidationError


def photon_budget(a: float, n_atoms: float, theta_rad: float) -> float:
    """Total probe photons for an atomic-to-shot variance ratio of a:
    N_L = a N_a / theta^2."""
    for name, value in (("a", a), ("n_atoms", n_atoms), ("theta_rad", theta_rad)):
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
    if theta_rad == 0.0:
        raise ValidationError("theta_rad must be nonzero")
    if a < 0 or n_atoms < 0:
        raise ValidationError("a and n_atoms must be >= 0")
    # theta_rad**2 is 0 for |theta_rad| < ~1.6e-162, where the total overflows
    # for any a * n_atoms above ~1e-15: report that as an overflow too
    try:
        theta_squared = theta_rad**2
    except OverflowError:
        # |theta_rad| > ~1.3e154: divide by theta_rad twice instead; the total
        # underflows to 0.0 unless a * n_atoms is far beyond 1e154
        total = (a / theta_rad) * (n_atoms / theta_rad)
    else:
        total = a * n_atoms / theta_squared if theta_squared else math.inf
    if total == math.inf:
        raise OverflowError(
            "photons_total = a * n_atoms / theta_rad**2 exceeds the float range at "
            f"a = {a!r}, n_atoms = {n_atoms!r}, theta_rad = {theta_rad!r}"
        )
    return total
