"""Operation accounting, timing and reporting shared by the workloads."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "work"  # scratch inputs, removed after each run
OUT = Path(__file__).resolve().parent / "out"  # results JSON and traces

FAILED = object()  # returned by Run.call when the operation raised


class Run:
    """Counts attempted and failed operations, keeps timing samples, and
    collects correctness problems.

    An operation fails when it raises where no error was expected, or
    does not raise the expected error. A wrong output is a correctness
    problem and makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.marks: list[dict[str, int]] = []  # sample counts at the end of each round

    def call(self, kind: str | None, fn, *args, **kwargs):
        """Attempt one operation, recording its wall time under ``kind``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted as a failed operation; the run goes on
            self.failed += 1
            self.errors.append(f"{kind or getattr(fn, '__name__', fn)}: {type(exc).__name__}: {str(exc)[:300]}")
            return FAILED
        if kind is not None:
            self.samples[kind].append(time.perf_counter() - t0)
        return result

    def expect_error(self, kind: str, error_type: type, fn, *args, **kwargs) -> bool:
        """Attempt an operation that must raise exactly ``error_type``."""
        self.attempted += 1
        try:
            fn(*args, **kwargs)
        except error_type as exc:
            if type(exc) is error_type:
                return True
            self.errors.append(f"{kind}: raised {type(exc).__name__}, expected {error_type.__name__}")
        except Exception as exc:  # wrong error class: a failed operation
            self.errors.append(f"{kind}: raised {type(exc).__name__}, expected {error_type.__name__}")
        else:
            self.errors.append(f"{kind}: accepted, expected {error_type.__name__}")
        self.failed += 1
        return False

    def end_round(self) -> None:
        self.marks.append({kind: len(values) for kind, values in self.samples.items()})

    def rounds(self) -> list[dict[str, list[float]]]:
        """The samples of each round that ``end_round`` closed, by kind."""
        out, before = [], {}
        for mark in self.marks:
            out.append({kind: self.samples[kind][before.get(kind, 0):n] for kind, n in mark.items()})
            before = mark
        return out

    def absorb(self, other: "Run", label: str) -> None:
        """Add another run's operations, failures and problems to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += [f"{label}: {e}" for e in other.errors]
        self.problems += [f"{label}: {p}" for p in other.problems]

    def fail(self, what: str) -> None:
        """Count an attempted operation as failed after the fact."""
        self.failed += 1
        self.errors.append(what)

    def check(self, condition: bool, what: str) -> bool:
        if not condition and len(self.problems) < 50:
            self.problems.append(what)
        return condition


def over_rounds(run: "Run", figure) -> float:
    """The 90th percentile (nearest rank), over the run's rounds, of
    ``figure(samples of one round by kind)``: a value that nine rounds in
    ten meet; with fewer than ten rounds, the slowest round's.

    This machine runs pure-Python code up to 1.6 times faster in bursts
    of a few to tens of seconds, which took from a quarter to nearly half
    of the time in two probes. A figure over the whole run moves with the
    share of it that fell in a burst. A round is short enough to run
    mostly at one speed, and its figure at the usual speed is the slow
    one, so this percentile keeps to the usual speed unless nearly every
    round ran in a burst."""
    return percentile([figure(samples) for samples in run.rounds()], 0.90)


def settle() -> None:
    """Collect the garbage and freeze every object alive now.

    Called after set-up and before each round. A garbage-collector pass
    that fires inside a timed call then scans only what was allocated
    since, not the inputs, mirrors and results the benchmark has built up;
    otherwise a call's time grows with how long the run has been going
    (``simulate_issuer`` took 420 or 660 ms depending on 2M live objects).
    """
    gc.collect()
    gc.freeze()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values)


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], cwd: Path, timeout: float = 120.0) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child process to completion and return it with its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        args, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=timeout
    )
    return proc, time.perf_counter() - t0


def environment() -> dict:
    """Commit, interpreter and machine facts recorded with every result."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def load_metric_table() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )
