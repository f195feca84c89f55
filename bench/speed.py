"""Machine-speed references of the timed processes.

The speed of the virtual machines this benchmark runs on drifts by a
factor of up to 1.5, over seconds as well as minutes, and each virtual
CPU drifts on its own: a reference measured on one CPU does not track a
process on the other.  So every timed process runs pinned to a fixed set
of CPUs, fixed references run next to it on those same CPUs, and the
process's wall time is multiplied by a scale: a reference's nominal time
over its measured time.  The figures then read as seconds on a machine
where the references take their nominal times.

Different work slows by different amounts on a slow machine, so there are
two references, each like one part of a coldspin process:

- "startup": a fresh interpreter that imports numpy, like the start-up
  that is most of every short command.  It runs after the process, and
  its scale uses the mean of the runs just before and after it.
- "compute": a chunk of interpreted per-item work with scalar numpy
  Generator draws, frozen-dataclass updates and tuple records, like the
  per-pulse path of a scan.  The process is stopped (SIGSTOP) after each
  SLICE_S of running, one chunk runs, and the process continues (SIGCONT).
  Its scale uses the median chunk time during the process and just before
  and after it.

A process measured against both (a scan: part start-up, mostly compute)
gets the geometric mean of the two scales.  Its wall time is the sum of
its running slices.  Neither reference imports coldspin, so no change to
the program under test can move them.
"""

from __future__ import annotations

import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Reference times in a fast spell of the 2-core Xeon virtual machine of the
# baseline.  They fix the scale of every reported time; changing them breaks
# comparison with earlier runs.
NOMINAL_S = {"startup": 0.15, "compute": 0.025}
STARTUP_CODE = "import numpy"
CHUNK_ITEMS = 6000
# A process scaled by "compute" is stopped for one chunk after each slice.
SLICE_S = 0.25
# A reference measured longer ago than this is measured again before a process.
STALE_S = 1.0
REFERENCE_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class _State:
    mean: tuple[float, float, float]
    var: tuple[float, float, float]
    count: float


def _observe(state: _State, gain: float, rng: np.random.Generator, sigma: float) -> float:
    return gain * state.mean[2] + sigma * float(rng.standard_normal())


def _decay(state: _State, fraction: float) -> _State:
    x, y, z = state.mean
    return _State((x, y, z * (1.0 - fraction)), state.var, state.count)


_SOURCE = "".join(f"def f{i}(a, b=2):\n    return {{'k': [a * b + {i}] * 3, 'i': {i}}}\n"
                  for i in range(60))


def chunk() -> float:
    """Wall time of one fixed chunk of the compute reference."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20081231)
    state = _State((0.0, 0.0, 5.0e5), (1.0, 1.0, 1.0), 1.0e6)
    records = []
    for i in range(CHUNK_ITEMS):
        value = _observe(state, 1.0e-7, rng, 0.3)
        records.append((i, value, value / 3.0))
        state = _decay(state, 1.0e-4)
    namespace: dict = {}
    exec(compile(_SOURCE, "<reference>", "exec"), namespace)
    if not math.isfinite(sum(json.loads(json.dumps([r[1] for r in records])))):
        raise ArithmeticError("reference work went non-finite")
    return time.perf_counter() - t0


class Yardstick:
    """Runs processes pinned to a CPU set and measures the references there."""

    def __init__(self, threads: int):
        available = sorted(os.sched_getaffinity(0))
        self.cpus = available[-max(1, min(threads, len(available))):]
        self.turn = 0
        self.measured_at = {}
        self.chunks_before = self._round()
        self.startup_before = self._startup()

    @contextmanager
    def pinned(self):
        """Processes started inside inherit the run's CPU set."""
        os.sched_setaffinity(0, self.cpus)
        yield

    def _chunk(self) -> float:
        """One chunk on the next CPU of the set."""
        os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
        self.turn += 1
        return chunk()

    def _round(self) -> list[float]:
        """One chunk on each CPU of the set."""
        chunks = [self._chunk() for _ in self.cpus]
        self.measured_at["compute"] = time.perf_counter()
        return chunks

    def ready(self, references: tuple[str, ...]) -> None:
        """Measure each of `references` again if its last measurement is stale."""
        for reference in references:
            if time.perf_counter() - self.measured_at[reference] > STALE_S:
                if reference == "compute":
                    self.chunks_before = self._round()
                else:
                    self.startup_before = self._startup()

    def _startup(self) -> float:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        with self.pinned():
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", STARTUP_CODE], env=env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        # Popen.wait(timeout) polls in steps of up to 50 ms; a pidfd wakes on exit.
        pidfd = os.pidfd_open(proc.pid)
        reaped = False
        try:
            if not select.select([pidfd], [], [], REFERENCE_TIMEOUT_S)[0]:
                os.kill(proc.pid, signal.SIGKILL)
            _, status, _ = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            os.close(pidfd)
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
        self.measured_at["startup"] = time.perf_counter()
        wall = self.measured_at["startup"] - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"{STARTUP_CODE!r} exited {proc.returncode}")
        return wall

    def wait(self, proc: subprocess.Popen, started: float, timeout: float,
             references: tuple[str, ...]):
        """Reap proc, started at `started`, and measure `references` around it.

        Kills proc once it has run for `timeout` seconds.  Returns its
        running wall time, wait status, resource usage and speed scale:
        the geometric mean of each reference's nominal over measured time.
        """
        interleave = "compute" in references
        pidfd = os.pidfd_open(proc.pid)
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        chunks = list(self.chunks_before)
        running, reaped = 0.0, False
        try:
            while True:
                exited = poller.poll(SLICE_S * 1e3)
                if not exited:
                    if running + time.perf_counter() - started > timeout:
                        os.kill(proc.pid, signal.SIGKILL)
                    elif interleave:
                        os.kill(proc.pid, signal.SIGSTOP)
                    else:
                        continue
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                running += time.perf_counter() - started
                if not os.WIFSTOPPED(status):
                    reaped = True
                    break
                chunks.append(self._chunk())
                started = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            os.close(pidfd)
            if not reaped:  # the harness failed while the process ran or was stopped
                os.kill(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
        measured = {}
        if interleave:
            self.chunks_before = self._round()
            measured["compute"] = statistics.median(chunks + self.chunks_before)
        if "startup" in references:
            after = self._startup()
            measured["startup"] = (self.startup_before + after) / 2
            self.startup_before = after
        factor = math.exp(statistics.fmean(math.log(NOMINAL_S[r] / t) for r, t in measured.items()))
        return running, status, usage, factor
