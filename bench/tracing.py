"""Span recorder and instrumentation for the traced benchmark run.

Instrumentation wraps coldspin functions from outside: it rebinds each
target name in every coldspin module that holds the same function object,
so calls made through any import of the name are seen, and restores the
originals on exit.  A target the program no longer defines is skipped and
reads as zero.  Timed targets record a span; per-pulse targets are only
counted, because a span per pulse would cost more than the pulse.

Spans stay in memory (one list per recorder) and are written by the caller
when the run ends.  A span started on a worker thread with nothing open on
that thread takes the innermost span open on the pass's own thread as its
parent, so scan cells run by the pool still nest under the scan.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, function) pairs.  Names with a leading underscore are coldspin
# internals: the per-cell function the scan's pool runs, and the helpers
# that carry a ROADMAP stage (config resolution, digesting, JSON and CSV
# writing, the decay model); the rest are public functions.
TIMED = (
    ("cli", "main"),
    ("cli", "_resolve_config"),
    ("cli", "_attach_atom_constants"),
    ("cli", "_load_json_file"),
    ("cli", "_sha256"),
    ("cli", "_write_json"),
    ("cli", "_write_rows_csv"),
    ("cli", "_read_rows_csv"),
    ("atomic_data", "load_atom_spec"),
    ("spin_optics", "coupling_constant"),
    ("spin_optics", "rotation_cross_section"),
    ("experiment", "run_detuning_scan"),
    ("experiment", "_scan_cell"),
    ("experiment", "child_stream"),
    ("experiment", "run_pulse_train"),
    ("experiment", "write_scan_csv"),
    ("experiment", "read_scan_csv"),
    ("detector", "synthesize_waveform"),
    ("detector", "write_pulse_csv"),
    ("analysis", "fit_column_density"),
    ("analysis", "fit_two_body_decay"),
    ("analysis", "fit_tof_temperature"),
)
COUNTED = (
    ("spin_optics", "decay_mean_z"),
    ("spin_optics", "faraday_angle"),
    ("detector", "simulate_pulse_detection"),
    ("detector", "extract_angle"),
    ("analysis", "_decay_model"),
    ("ensemble", "evolve_trap_population"),
    ("ensemble", "tof_radius"),
)
# The light level times whole scans only, for in-scan throughput and as
# the reference the tracing overhead is measured against.
LIGHT = (("experiment", "run_detuning_scan"),)

# ROADMAP stages: each instant of a traced pass is charged to the stage of
# the innermost span covering it.
STAGES = {
    "stage.config_ms": ("cli._resolve_config", "cli._attach_atom_constants",
                        "atomic_data.load_atom_spec"),
    "stage.coupling_ms": ("spin_optics.coupling_constant", "spin_optics.rotation_cross_section"),
    "stage.rng_streams_ms": ("experiment.child_stream",),
    "stage.pulse_kernel_ms": ("experiment.run_pulse_train",),
    "stage.aggregation_ms": ("experiment.run_detuning_scan",),
    "stage.io_digest_ms": ("cli._load_json_file", "cli._sha256", "cli._write_json",
                           "cli._write_rows_csv", "cli._read_rows_csv",
                           "experiment.write_scan_csv", "experiment.read_scan_csv",
                           "detector.write_pulse_csv"),
    "stage.fit_ms": ("analysis.fit_column_density", "analysis.fit_two_body_decay",
                     "analysis.fit_tof_temperature"),
}
STAGE_OF = {name: stage for stage, names in STAGES.items() for name in names}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    run_id: str
    start: float
    end: float
    cpu: float  # thread CPU seconds inside the span

    @property
    def wall(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and call counts of one traced pass at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pass_stack: list[int] = []
        self._counters: dict[str, itertools.count] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._pass_stack
            parent = outer[-1] if outer else None
            span_id = next(self._ids)
            stack.append(span_id)
            t0 = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu0
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, parent, self.run_id, t0, t1, cpu))
        return wrapper

    def counted(self, name: str, fn):
        # next() on itertools.count is a single C call, so pool threads
        # can share one counter without a lock
        counter = self._counters[name]

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return wrapper

    @contextmanager
    def instrument(self, run_id: str, timed, counted=()):
        """Wrap the targets for one pass; yields after rebinding."""
        self.run_id = run_id
        self.spans = []
        self._counters = {f"{m}.{f}": itertools.count() for m, f in counted}
        self._pass_stack = self._stack()
        modules = [m for n, m in list(sys.modules.items())
                   if n == "coldspin" or n.startswith("coldspin.")]
        saved = []
        for targets, make in ((timed, self.timed), (counted, self.counted)):
            for module, function in targets:
                owner = sys.modules.get(f"coldspin.{module}")
                original = getattr(owner, function, None)
                if original is None:
                    continue
                wrapper = make(f"{module}.{function}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, key, value))
                            setattr(holder, key, wrapper)
        try:
            yield
        finally:
            for holder, key, value in reversed(saved):
                setattr(holder, key, value)

    def counts(self) -> dict[str, int]:
        """Calls per counted target since instrument() began."""
        return {name: next(counter) for name, counter in self._counters.items()}


# ------------------------------------------------------------ analysis


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


class PassSpans:
    """The spans of one traced pass, indexed for self-time queries."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.children: dict[int | None, list[Span]] = {}
        for span in spans:
            self.children.setdefault(span.parent, []).append(span)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def exclusive(self, span: Span, boundary) -> float:
        """span's wall minus the time covered by its nearest descendants
        for which boundary(descendant) holds."""
        intervals = []
        pending = list(self.children.get(span.id, ()))
        while pending:
            child = pending.pop()
            if boundary(child):
                intervals.append((child.start, child.end))
            else:
                pending.extend(self.children.get(child.id, ()))
        return span.wall - _covered(intervals, span.start, span.end)

    def stage_seconds(self) -> dict[str, float]:
        totals = dict.fromkeys(STAGES, 0.0)
        in_stage = lambda s: s.name in STAGE_OF  # noqa: E731
        for span in self.spans:
            stage = STAGE_OF.get(span.name)
            if stage is not None:
                totals[stage] += self.exclusive(span, in_stage)
        return totals


def _sum_wall(spans: list[Span]) -> float:
    return sum(s.wall for s in spans)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer figures of one traced pass, in the units named by the key."""
    p = PassSpans(spans)
    out: dict[str, float] = {}
    mains = p.named("cli.main")
    other_layer = lambda s: not s.name.startswith("cli.")  # noqa: E731
    out["cli.main_ms"] = 1e3 * _median(s.wall for s in mains)
    out["cli.main_self_ms"] = 1e3 * _median(p.exclusive(s, other_layer) for s in mains)

    trains = p.named("experiment.run_pulse_train")
    streams = p.named("experiment.child_stream")
    out["experiment.run_pulse_train_s"] = _sum_wall(trains)
    out["experiment.run_pulse_train_us_p50"] = 1e6 * _median(s.wall for s in trains)
    out["experiment.child_stream_us_p50"] = 1e6 * _median(s.wall for s in streams)
    out["experiment.child_stream_s"] = _sum_wall(streams)
    scans = p.named("experiment.run_detuning_scan")
    out["experiment.scan_self_s"] = sum(
        p.exclusive(s, lambda c: True) for s in scans)
    scan_wall = _sum_wall(scans)
    train_cover = sum(_covered([(t.start, t.end) for t in trains], s.start, s.end)
                      for s in scans)
    out["experiment.pulse_train_share"] = train_cover / scan_wall if scan_wall else 0.0
    cells = p.named("experiment._scan_cell")
    cell_wall = _sum_wall(cells)
    cell_cpu = sum(s.cpu for s in cells)
    out["experiment.cell_wait_s"] = cell_wall - cell_cpu
    out["experiment.cell_cpu_over_wall"] = cell_cpu / cell_wall if cell_wall else 0.0

    for name in ("spin_optics.coupling_constant", "atomic_data.load_atom_spec"):
        calls = p.named(name)
        out[f"{name}_calls"] = len(calls)
        out[f"{name}_us"] = 1e6 * _median(s.wall for s in calls)
    rotations = p.named("spin_optics.rotation_cross_section")
    out["spin_optics.rotation_cross_section_calls"] = len(rotations)
    out["spin_optics.rotation_cross_section_ms"] = 1e3 * _sum_wall(rotations)
    for name in ("experiment.write_scan_csv", "experiment.read_scan_csv",
                 "detector.synthesize_waveform", "detector.write_pulse_csv",
                 "analysis.fit_column_density", "analysis.fit_two_body_decay",
                 "analysis.fit_tof_temperature"):
        out[f"{name}_ms"] = 1e3 * _sum_wall(p.named(name))

    for name in ("spin_optics.decay_mean_z", "spin_optics.faraday_angle",
                 "detector.simulate_pulse_detection", "detector.extract_angle",
                 "ensemble.evolve_trap_population", "ensemble.tof_radius"):
        out[f"{name}_calls"] = counts.get(name, 0)
    out["analysis.decay_model_evals"] = counts.get("analysis._decay_model", 0)

    for stage, seconds in p.stage_seconds().items():
        out[stage] = 1e3 * seconds
    out["trace.spans"] = len(spans)
    return out
