"""The helpers of the command runners, one module per command below.

A runner module's run(cfg, spec) takes a resolved, checked config (atom
constants inlined, the output path under "out") and the AtomSpec built from
those constants, and returns each output's bytes by path; the CLI digests
and writes them, and replays a manifest through the same run.  It imports
each library function under its own name, most only when it runs, and
calls each through _keyed.  No module here imports coldspin.cli, which
runs as __main__ under `python -m coldspin.cli` and would run again.
"""

from __future__ import annotations

import math
import os

from ..errors import FitError, NearResonanceError, ValidationError


def _key_values(cfg: dict, keys: tuple) -> str:
    """The config keys with their values, as an error names them: a dotted
    key, a top-level one, or a section's name for each key of the section."""
    values = []
    for key in keys:
        if isinstance(cfg.get(key), dict):
            values += [f"{key}.{name} = {value!r}" for name, value in cfg[key].items()]
        else:
            section, _, name = key.rpartition(".")
            values.append(f"{key} = {(cfg[section] if section else cfg)[name]!r}")
    return ", ".join(values)


def _in_range(what: str, function, *args, **kwargs):
    """function(*args, **kwargs), whose OverflowError, or non-finite float
    result, is reported as what, the computed value, exceeding the float range."""
    try:
        result = function(*args, **kwargs)
    except OverflowError:
        result = math.inf
    if isinstance(result, float) and not math.isfinite(result):
        raise OverflowError(f"{what} exceeds the float range")
    return result


def _keyed(cfg: dict, keys: tuple, function, *args, what: str | None = None, **kwargs):
    """function(*args, **kwargs) for a runner, the one place where a
    library failure turns into an error that names the config keys the
    call reads (see _key_values), with their values: a ValidationError,
    NearResonanceError, FitError or ArithmeticError keeps its type and
    text, with the keys appended.  A call given what is _in_range's."""
    try:
        return _in_range(what, function, *args, **kwargs) if what else function(*args, **kwargs)
    except (ValidationError, NearResonanceError, FitError, ArithmeticError) as exc:
        raise type(exc)(f"{exc} at {_key_values(cfg, keys)}") from None


def _record(cfg: dict, section: str, record: type, what: str | None = None, **computed):
    """record built from the keys of the config section that are its
    fields, and the computed ones, through _keyed naming the section."""
    fields = {key: value for key, value in cfg[section].items() if key in record._fields}
    return _keyed(cfg, (section,), record, **{**fields, **computed}, what=what)


def _scan_curve_path(out: str) -> str:
    stem, extension = os.path.splitext(out)
    return f"{stem}_curve{extension or '.csv'}"


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """np.linspace(start, stop, num).tolist() for num >= 2, bit for bit, and
    [start] for num = 1, as numpy gives for a finite span and a start
    other than -0.0."""
    if num == 1:
        return [start]
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # a subnormal span: numpy scales before multiplying (gh-5437)
        points = [(i / div) * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _normals(cfg: dict, section: str, count: int) -> list[float]:
    """The first count draws of the section's normal stream: those of
    numpy's Generator, PCG64 seeded with the section's seed, frozen in
    rng."""
    from ..rng import normal_draws, seeded_state

    return normal_draws(*seeded_state(cfg[section]["seed"]), count)[0]


def _times(section: dict) -> list[float]:
    if not section["t_stop_s"] > section["t_start_s"]:
        raise ValidationError("t_stop_s must exceed t_start_s")
    return _linspace(section["t_start_s"], section["t_stop_s"], section["n_times"])
