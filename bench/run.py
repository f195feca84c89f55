#!/usr/bin/env python3
"""The coldspin benchmark.

    python3 bench/run.py --workload cli-session --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout.  With --trace 0 it times whole
`coldspin` processes (`python -m coldspin.cli`, PYTHONPATH=src, one at a
time), scales each wall time by machine-speed references measured next
to it (speed.py), and reports the end-to-end metrics.  With --trace 1 it imports
coldspin once, drives the same commands in-process through `cli.main`
with the instrumentation of tracing.py, and reports the per-layer metrics.
Both modes check every output (workloads.py).  Metric names and units come
from BENCHMARK.json.  Human-readable lines come first; the last line of
standard output is one JSON object.  The full record (environment,
quartiles, per-command times, output digests, failures, spans) goes to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROCESS_TIMEOUT_S = 150.0
IMPORT_PROBE_ROUNDS = 5
TAIL_PERCENTILE = 75  # p75 of >= 40 samples leaves >= 10 beyond it


class HarnessError(Exception):
    """The benchmark cannot measure; no result is printed."""


# ------------------------------------------------------------ processes


@dataclass
class Proc:
    wall: float  # running wall time, without the reference chunks
    factor: float  # speed scale: the wall at nominal speed is wall * factor
    code: int
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


def run_process(argv: list[str], cwd: Path, scratch: Path, stick: speed.Yardstick,
                references: tuple[str, ...]) -> Proc:
    """Run argv to completion on the yardstick's CPUs, scaled by `references`."""
    env = {k: v for k, v in os.environ.items() if k != "COLDSPIN_ATOM_DATA"}
    env["PYTHONPATH"] = str(SRC)
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        stick.ready(references)
        with stick.pinned():
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        wall, status, usage, factor = stick.wait(proc, t0, PROCESS_TIMEOUT_S, references)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(wall, factor, code, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime,
                    out.read().decode(errors="replace"), err.read().decode(errors="replace"))


def probe(code: str, scratch: Path, stick: speed.Yardstick) -> Proc:
    """A fresh interpreter running `code`, scaled by the start-up reference."""
    result = run_process([sys.executable, "-c", code], scratch, scratch, stick, ("startup",))
    if result.code != 0:
        raise HarnessError(f"python -c {code!r} exited {result.code}: {result.stderr[-500:]}")
    return result


# ------------------------------------------------------------ the gate


@dataclass
class Gate:
    """Correctness of every operation of a run.

    An operation is one command.  It fails on a non-zero exit, an output
    check that does not hold (workloads.check), or outputs that differ
    from the same command's outputs in the run's first pass.
    """

    reference: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    replays: int = 0
    replays_verified: int = 0
    failures: list = field(default_factory=list)

    def record(self, wl, command, pass_dir: Path, code: int, stdout: str, stderr: str,
               pass_index: int) -> None:
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {stderr.strip()[-500:]}")
        else:
            try:
                digests = {name: workloads.sha256(pass_dir / name) for name in command.outputs}
            except OSError as exc:
                digests = {}
                problems.append(f"missing output: {exc}")
            reference = self.reference.setdefault(command.label, digests)
            if digests != reference:
                changed = sorted(n for n in digests if digests[n] != reference.get(n))
                problems.append(f"outputs differ from the first pass: {changed}")
            problems += workloads.check(command, pass_dir, wl.shape, stdout)
        self.attempted += 1
        if command.replay:
            self.replays += 1
            self.replays_verified += not problems
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"pass": pass_index, "command": command.label,
                                      "problems": problems})


def fresh_dir(scratch: Path, wl) -> Path:
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    wl.prepare(pass_dir)
    return pass_dir


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def keep_going(done: int, minimum: int, started: float, seconds: float,
               durations: list[float]) -> bool:
    """Start another iteration while one more fits in the run length."""
    if done < max(minimum, 1):
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


# ------------------------------------------------------------ --trace 0


def timed_run(wl, seconds: float, scratch: Path) -> tuple[dict, dict, Gate]:
    started = time.perf_counter()
    stick = speed.Yardstick(wl.shape.threads)
    setup_code = "import coldspin.cli"
    probe(setup_code, scratch, stick)  # warm-up: page cache and bytecode
    setup = [probe(setup_code, scratch, stick), probe(setup_code, scratch, stick)]
    gate = Gate()
    sessions, commands, durations = [], [], []
    while keep_going(len(sessions), wl.min_passes, started, seconds, durations):
        t0 = time.perf_counter()
        setup.append(probe(setup_code, scratch, stick))
        pass_dir = fresh_dir(scratch, wl)
        walls = []
        for command in wl.commands:
            result = run_process([sys.executable, "-m", "coldspin.cli", *command.argv],
                                 pass_dir, scratch, stick, wl.references)
            gate.record(wl, command, pass_dir, result.code, result.stdout, result.stderr,
                        len(sessions))
            walls.append(result.wall * result.factor)
            commands.append((command, result))
        shutil.rmtree(pass_dir)
        sessions.append(sum(walls))
        durations.append(time.perf_counter() - t0)

    command_walls = [r.wall * r.factor for _, r in commands]
    scan_rates = [wl.shape.total_pulses / (r.wall * r.factor) for c, r in commands if c.scan]
    samples = {
        "setup_s": [r.wall * r.factor for r in setup],
        "session_s": sessions,
        "command_wall_s": command_walls,
        "scan_pulses_per_s": scan_rates,
        "peak_rss_mb": [r.rss_mb for _, r in commands],
        "command_cpu_s": [r.cpu_s for _, r in commands],
        "raw_setup_s": [r.wall for r in setup],
        "raw_command_wall_s": [r.wall for _, r in commands],
        "speed_factor": [r.factor for _, r in commands],
    }
    metrics = {
        "setup_s": statistics.median(samples["setup_s"]),
        "session_s": statistics.median(sessions),
        "command_wall_p50_s": statistics.median(command_walls),
        "command_wall_tail_s": percentile(command_walls, TAIL_PERCENTILE),
        "scan_pulses_per_s": statistics.median(scan_rates),
        "peak_rss_mb": max(r.rss_mb for _, r in commands),
    }
    per_command = {}
    for command, result in commands:
        per_command.setdefault(command.label, []).append(result.wall * result.factor)
    detail = {
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "samples": samples,
        "cpus": stick.cpus,
        "references": wl.references,
        "nominal_reference_s": speed.NOMINAL_S,
        "command_labels": [c.label for c, _ in commands],
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples": len(command_walls),
        "tail_samples_beyond": sum(w > metrics["command_wall_tail_s"] for w in command_walls),
        "per_command_wall_s": {k: quartiles(v) for k, v in per_command.items()},
        "ops_failed_frac": gate.failed / gate.attempted,
    }
    return metrics, detail, gate


# ------------------------------------------------------------ --trace 1


def in_process(cli, argv, pass_dir: Path) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(pass_dir)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crash
        code = 1
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - t0
        os.chdir(cwd)
    return wall, code, out.getvalue(), err.getvalue()


def traced_run(wl, seed: int, seconds: float, scratch: Path) -> tuple[dict, dict, Gate, list]:
    started = time.perf_counter()
    imports = {"python": [], "numpy": [], "coldspin": []}
    codes = {"python": "pass", "numpy": "import numpy", "coldspin": "import coldspin.cli"}
    all_cpus = os.sched_getaffinity(0)
    stick = speed.Yardstick(1)
    for round_index in range(IMPORT_PROBE_ROUNDS + 1):
        for key, code in codes.items():
            result = probe(code, scratch, stick)
            if round_index:  # round 0 warms the page cache
                imports[key].append(result.wall * result.factor)
    os.sched_setaffinity(0, all_cpus)  # the traced passes use every CPU

    os.environ.pop("COLDSPIN_ATOM_DATA", None)
    sys.path.insert(0, str(SRC))
    import coldspin.cli as cli

    recorder = tracing.Recorder()
    warm = workloads.build("cli-session", seed)
    warm_dir = fresh_dir(scratch, warm)
    for command in warm.commands:  # first calls pay lazy imports inside numpy
        in_process(cli, command.argv, warm_dir)
    shutil.rmtree(warm_dir)

    gate = Gate()
    light, full, durations = [], [], []
    first_spans: list = []
    while keep_going(len(full), 1, started, seconds, durations):
        t0 = time.perf_counter()
        levels = ("light", "full") if len(full) % 2 == 0 else ("full", "light")
        for level in levels:
            index = len(light) + len(full)
            run_id = f"{wl.name}:{seed}:{index}"
            timed = tracing.LIGHT if level == "light" else tracing.TIMED
            counted = () if level == "light" else tracing.COUNTED
            pass_dir = fresh_dir(scratch, wl)
            wall = 0.0
            with recorder.instrument(run_id, timed, counted):
                for command in wl.commands:
                    seconds_used, code, out, err = in_process(cli, command.argv, pass_dir)
                    wall += seconds_used
                    gate.record(wl, command, pass_dir, code, out, err, index)
                counts = recorder.counts()
            shutil.rmtree(pass_dir)
            if level == "light":
                scans = [s for s in recorder.spans if s.name == "experiment.run_detuning_scan"]
                light.append((wall, sum(s.wall for s in scans)))
            else:
                full.append((wall, tracing.layer_metrics(recorder.spans, counts)))
                first_spans = first_spans or recorder.spans
        durations.append(time.perf_counter() - t0)

    layer = {key: statistics.median(m[key] for _, m in full) for key in full[0][1]}
    python_s = statistics.median(imports["python"])
    numpy_s = statistics.median(imports["numpy"])
    coldspin_s = statistics.median(imports["coldspin"])
    scan_s = statistics.median(s for _, s in light)
    pulses = wl.pulses_per_pass
    metrics = {
        "import.python_s": python_s,
        "import.numpy_s": numpy_s - python_s,
        "import.coldspin_s": coldspin_s - numpy_s,
        "import.command_share": coldspin_s / (coldspin_s + layer["cli.main_ms"] / 1e3),
        "experiment.pulses": pulses,
        "experiment.cells": wl.cells_per_pass,
        "experiment.pulse_ns": 1e9 * layer["experiment.run_pulse_train_s"] / pulses if pulses else 0.0,
        "experiment.run_detuning_scan_s": scan_s,
        "experiment.pulses_per_s": pulses / scan_s if scan_s else 0.0,
        "cli.replays_verified_frac": gate.replays_verified / gate.replays if gate.replays else 0.0,
        "trace.overhead_frac": (statistics.median(w for w, _ in full)
                                / statistics.median(w for w, _ in light) - 1.0),
        "ops_failed_frac": gate.failed / gate.attempted,
        **layer,
    }
    detail = {
        "import_probe_s": {k: quartiles(v) for k, v in imports.items()},
        "passes": {"light": len(light), "full": len(full)},
        "pass_wall_s": {"light": quartiles([w for w, _ in light]),
                        "full": quartiles([w for w, _ in full])},
    }
    return metrics, detail, gate, first_spans


# ------------------------------------------------------------ reporting


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "platform": platform.platform(), "seed": seed}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception, so that a process the harness
    # has started (or stopped, see speed.py) is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "coldspin" / "cli.py").is_file():
        print(f"error: no coldspin sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    wl = workloads.build(args.workload, args.seed)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT / "tmp"))
    spans: list = []
    try:
        if args.trace:
            metrics, detail, gate, spans = traced_run(wl, args.seed, args.seconds, scratch)
        else:
            metrics, detail, gate = timed_run(wl, args.seconds, scratch)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "output_sha256": gate.reference,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if spans:
        (results / f"{stem}-spans.json").write_text(json.dumps([asdict(s) for s in spans]))

    for failure in gate.failures:
        print(f"FAILED pass {failure['pass']} {failure['command']}: "
              f"{'; '.join(failure['problems'])}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={gate.attempted} failed={gate.failed} "
          f"ops_failed_frac={gate.failed / gate.attempted:.6g}")
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
