"""Timed loops, failure accounting and output checks shared by the workloads."""

from __future__ import annotations

import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from perfbench.layers import REQUEST_SPAN
from perfbench.trace import FAILED_LATENCY_S, Tracer, min_samples_for
from perfbench.workloads import digest

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"
EXPECTED = pathlib.Path(__file__).with_name("expected.json")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A timed phase stops at the first pass boundary after this long, even
#: short of its sample target, so a run ends well inside 180 s.
HARD_CAP_S = 100.0
#: The seed whose first-pass outputs are pinned in expected.json.
PINNED_SEED = 0
#: Requests needed for a reported p90.
MIN_REQUESTS = min_samples_for(90)


@dataclass
class Outcome:
    """What one timed phase of a workload did."""

    #: Latency of each request of the workload's primary kind.
    latencies_s: "list[float]" = field(default_factory=list)
    #: Duration of each whole sweep (a pass, or a cold serve sweep).
    sweeps_s: "list[float]" = field(default_factory=list)
    #: Units of work delivered: frames, or serve points.
    work: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    #: Output checks that did not hold.
    errors: "list[str]" = field(default_factory=list)
    #: Extra per-workload figures: name -> (value, unit, sample count).
    detail: "dict[str, tuple[float, str, int]]" = field(default_factory=dict)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed - self.rejected

    @property
    def failed_frac(self) -> float:
        return (self.failed + self.rejected) / self.attempted if self.attempted else 0.0

    def seconds_per_work(self) -> float:
        return self.wall_s / self.work if self.work else float("inf")


def child_env() -> "dict[str, str]":
    """Environment for child interpreters: the program and the harness importable."""
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def probe_setups(workload: str) -> "list[float]":
    """Wall time of :data:`SETUP_REPEATS` fresh-interpreter set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload],
            check=True, env=child_env(), timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_passes(workload, seed: int, seconds: float, *, tracer: "Tracer | None" = None,
               min_requests: int = 0) -> "tuple[Outcome, list[tuple[Any, Any]]]":
    """Call the workload pass after pass for ``seconds``; returns the outcome
    and the ``(op, result)`` pairs of the first pass."""
    outcome = Outcome()
    first_pass: "list[tuple[Any, Any]]" = []
    start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        for position, op in enumerate(workload.make_pass(seed, index)):
            outcome.attempted += 1
            began = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.call(op)
                else:
                    with tracer.span(REQUEST_SPAN, request_id=f"{index}.{position}"):
                        result = workload.call(op)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outcome.failed += 1
                outcome.latencies_s.append(FAILED_LATENCY_S)
                continue
            outcome.latencies_s.append(time.perf_counter() - began)
            outcome.work += workload.frames(op)
            problem = workload.check(op, result)
            if problem is not None:
                outcome.errors.append(problem)
            if index == 0:
                first_pass.append((op, result))
        outcome.sweeps_s.append(time.perf_counter() - pass_start)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (
            elapsed >= seconds and len(outcome.latencies_s) >= min_requests
        ):
            break
    outcome.wall_s = time.perf_counter() - start
    return outcome, first_pass


def check_outputs(workload, first_pass, outcome: Outcome) -> str:
    """Output checks after a timed phase; returns the pinned-pass digest.

    The first pass of :data:`PINNED_SEED` is recomputed, untimed, on every
    run and its digest compared with expected.json, so a wrong result is
    caught whatever seed the run measured.  The first call of the
    measured seed is repeated and must give the same result.
    """
    pinned_pass = workload.make_pass(PINNED_SEED, 0)
    value = digest([workload.record(op, workload.call(op)) for op in pinned_pass])
    pinned = json.loads(EXPECTED.read_text()).get(workload.name)
    if value != pinned:
        outcome.errors.append(
            f"seed {PINNED_SEED} first-pass digest {value} != pinned {pinned}"
        )
    if first_pass:
        op, result = first_pass[0]
        if not workload.same(workload.call(op), result):
            outcome.errors.append(f"{op}: a repeated call gave a different result")
    return value
