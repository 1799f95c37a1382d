"""The ``serve`` workload: a ``repro serve`` process and a closed-loop load.

The server runs in its own process with the CLI defaults and a fresh
cache dir, so the write-ahead journal is on.  Two closed-loop clients
are threads of this process.  Each repeats one cycle: a cold 20-point
``ber_sweep`` under a fresh seed (every point misses the store), the
same sweep again (every point hits), then single-point ``ber`` requests
for points it has already computed.  A run stops at a cycle boundary.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import random
import re
import resource
import select
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Any

from perfbench.layers import REQUEST_SPAN
from perfbench.measure import (
    EXPECTED, HARD_CAP_S, ROOT, SETUP_REPEATS, WORK, Outcome, child_env, peak_rss_mb,
)
from perfbench.trace import FAILED_LATENCY_S, Tracer
from perfbench.workloads import digest

CLIENTS = 2
SWEEP_DISTANCES_M = [0.5 * step for step in range(1, 21)]
FRAMES_PER_POINT = 20
SYMBOL_BITS = 5
PAYLOAD_SYMBOLS = 16
WARM_POINTS_PER_CYCLE = 40
#: Served points recomputed in this process and compared, per run.
SAMPLED_POINTS = 2
#: The set-up request: a small point no workload request shares.  Its
#: result is pinned in expected.json.
SETUP_JOB = {"kind": "ber", "frames": 4, "seed": 0, "distance_m": 5.0,
             "symbol_bits": SYMBOL_BITS}


def sweep_job(seed: int) -> "dict[str, Any]":
    return {
        "kind": "ber_sweep", "frames": FRAMES_PER_POINT, "seed": seed,
        "symbol_bits": SYMBOL_BITS,
        "sweep": {"field": "distance_m", "values": SWEEP_DISTANCES_M},
    }


def point_job(seed: int, distance_m: float) -> "dict[str, Any]":
    return {
        "kind": "ber", "frames": FRAMES_PER_POINT, "seed": seed,
        "symbol_bits": SYMBOL_BITS, "distance_m": distance_m,
    }


class ServerProcess:
    """One ``repro serve`` child; ``stop`` always waits for it to end."""

    def __init__(self, workdir: pathlib.Path, spans_out: "pathlib.Path | None" = None):
        self.workdir = pathlib.Path(tempfile.mkdtemp(prefix="serve-", dir=workdir))
        command = [sys.executable, str(ROOT / "perfbench" / "serve_main.py")]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        command += ["--", "serve", "--port", "0", "--cache-dir", str(self.workdir / "cache")]
        with open(self.workdir / "server.log", "wb") as log:
            self.process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, env=child_env()
            )
        try:
            line = self._first_line(timeout_s=60.0)
            match = re.match(r"serving on (.+):(\d+)$", line)
            if match is None:
                raise RuntimeError(f"unexpected server banner {line!r}")
        except BaseException:
            self.process.kill()
            self.process.wait()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def _first_line(self, timeout_s: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout_s)
        if not ready:
            raise RuntimeError("server printed no banner in time")
        return self.process.stdout.readline().decode().strip()

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(self.host, self.port, timeout=120.0)

    def stop(self) -> None:
        from repro.errors import ServeError

        try:
            with self.client() as client:
                client.shutdown_server()
        except (ServeError, OSError):
            pass
        try:
            self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def start_server(workdir: pathlib.Path, spans_out=None) -> "tuple[ServerProcess, float, str]":
    """A server, the time from spawning it to its first reply, and the
    digest of that reply (the :data:`SETUP_JOB` point)."""
    start = time.perf_counter()
    server = ServerProcess(workdir, spans_out)
    try:
        with server.client() as client:
            point = client.run(SETUP_JOB).ber_point()
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - start
    return server, elapsed, digest([
        point.parameter, point.ber, point.bits_total, point.bit_errors,
        point.extra["sync_failures"], point.extra["video_snr_db"],
    ])


def check_setup_digests(digests: "list[str]", outcome: Outcome) -> None:
    """Every set-up reply must equal the point pinned in expected.json."""
    pinned = json.loads(EXPECTED.read_text()).get("serve")
    for value in digests:
        if value != pinned:
            outcome.errors.append(f"set-up point digest {value} != pinned {pinned}")


@dataclass
class _Request:
    step: str  # cold_sweep | warm_sweep | warm_point
    cycle: int
    latency_s: float = 0.0
    points: int = 0
    cached: int = 0
    status: str = "ok"  # ok | failed | rejected
    job: "dict[str, Any] | None" = None
    result: Any = None


def _client_loop(server: ServerProcess, index: int, seed: int, steps: threading.Barrier,
                 running: "list[bool]", tracer: "Tracer | None",
                 log: "list[_Request]") -> None:
    """One client's cycles; ``steps`` holds both clients to the same step."""
    from repro.errors import ServeError
    from repro.serve.protocol import JobRejected

    rng = random.Random(f"serve:{seed}:{index}")
    computed: "list[tuple[int, float]]" = []

    def request(step: str, job: "dict[str, Any]", cycle: int) -> None:
        record = _Request(step, cycle, job=job)
        began = time.perf_counter()
        try:
            with (tracer.span(REQUEST_SPAN, request_id=f"c{index}/{len(log)}")
                  if tracer is not None else contextlib.nullcontext()):
                result = client.run(job, allow_failed=True)
        except JobRejected:
            record.status = "rejected"
        except (ServeError, OSError):
            record.status = "failed"
        else:
            record.result = result
            record.points = sum(point is not None for point in result.points)
            record.cached = sum(bool(meta and meta.get("cached")) for meta in result.meta)
            if result.failed:
                record.status = "failed"
        record.latency_s = (
            time.perf_counter() - began if record.status == "ok" else FAILED_LATENCY_S
        )
        log.append(record)

    try:
        with server.client() as client:
            cycle = 0
            while True:
                steps.wait()
                if not running[0]:
                    return
                job = sweep_job(rng.randrange(2**31))
                request("cold_sweep", job, cycle)
                steps.wait()
                request("warm_sweep", job, cycle)
                computed.extend((job["seed"], d) for d in SWEEP_DISTANCES_M)
                steps.wait()
                for _ in range(WARM_POINTS_PER_CYCLE):
                    point_seed, distance = rng.choice(computed)
                    request("warm_point", point_job(point_seed, distance), cycle)
                cycle += 1
    except BaseException:
        steps.abort()
        raise


def run_load(server: ServerProcess, seed: int, seconds: float,
             tracer: "Tracer | None" = None) -> "tuple[Outcome, list[_Request]]":
    """Drive ``server`` with the closed-loop clients for ``seconds``.

    The clients take each step of a cycle together: both cold sweeps,
    then both warm sweeps, then both runs of warm points.  Every cycle
    thus loads the server the same way, whatever the seed.
    """
    start = time.perf_counter()
    deadline = start + min(seconds, HARD_CAP_S)
    running = [True]

    def next_step() -> None:
        running[0] = time.perf_counter() < deadline

    steps = threading.Barrier(CLIENTS, action=next_step, timeout=HARD_CAP_S)
    logs: "list[list[_Request]]" = [[] for _ in range(CLIENTS)]
    threads = [
        threading.Thread(target=_client_loop,
                         args=(server, index, seed, steps, running, tracer, logs[index]))
        for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome = Outcome(wall_s=time.perf_counter() - start)
    requests = [request for log in logs for request in log]
    for request in requests:
        outcome.attempted += 1
        outcome.rejected += request.status == "rejected"
        outcome.failed += request.status == "failed"
        outcome.work += request.points
    outcome.latencies_s = [r.latency_s for r in requests if r.step == "warm_point"]
    # The cold step ends when the later of the two concurrent sweeps is done.
    cold_steps: "dict[int, float]" = {}
    for request in requests:
        if request.step == "cold_sweep":
            cold_steps[request.cycle] = max(cold_steps.get(request.cycle, 0.0),
                                            request.latency_s)
    outcome.sweeps_s = list(cold_steps.values())
    return outcome, requests


def check_requests(requests: "list[_Request]", seed: int, outcome: Outcome) -> None:
    """Output checks on what the server delivered."""
    from repro.serve.protocol import parse_job
    from repro.sim.engine import run_downlink_trials

    expected_bits = FRAMES_PER_POINT * PAYLOAD_SYMBOLS * SYMBOL_BITS
    delivered = [r for r in requests if r.status == "ok"]
    for request in delivered:
        for point in request.result.ber_points():
            if point.bits_total != expected_bits:
                outcome.errors.append(
                    f"{request.step}: bits_total {point.bits_total} != {expected_bits}"
                )
    for step, expected in (("cold_sweep", 0.0), ("warm_sweep", 1.0), ("warm_point", 1.0)):
        points = sum(r.points for r in delivered if r.step == step)
        cached = sum(r.cached for r in delivered if r.step == step)
        share = cached / points if points else 0.0
        outcome.detail[f"serve.hit_share.{step}"] = (share, "frac", points)
        if points and share != expected:
            outcome.errors.append(f"{step}: store hit share {share} != {expected}")
    colds = [r for r in delivered if r.step == "cold_sweep"]
    rng = random.Random(f"serve-check:{seed}")
    for request in rng.sample(colds, min(SAMPLED_POINTS, len(colds))):
        position = rng.randrange(len(SWEEP_DISTANCES_M))
        spec = parse_job(request.job).points[position]
        local = run_downlink_trials(spec.trial_config(), rng=spec.seed)
        served = request.result.ber_points()[position]
        if served != local:
            outcome.errors.append(
                f"served point {request.job['seed']}/{position} differs from "
                f"the in-process run: {served} != {local}"
            )


def describe(outcome: Outcome, requests: "list[_Request]") -> None:
    """The serve figures the end-to-end metrics leave out, with sample counts."""
    each = [r.latency_s for r in requests if r.step == "cold_sweep"]
    warm_sweep = [r.latency_s * 1e3 for r in requests if r.step == "warm_sweep"]
    outcome.detail["serve_cold_sweep_each_s_p50"] = (median(each), "s", len(each))
    outcome.detail["serve_warm_sweep_ms_p50"] = (median(warm_sweep), "ms", len(warm_sweep))


def measure(seed: int, seconds: float) -> "tuple[Outcome, list[float], float]":
    """Untraced run: the outcome, the set-up times and the server's peak RSS."""
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="serve-", dir=WORK))
    try:
        setups, digests = [], []
        server = None
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, seconds_to_reply, value = start_server(workdir)
            setups.append(seconds_to_reply)
            digests.append(value)
        try:
            outcome, requests = run_load(server, seed, seconds)
        finally:
            server.stop()
        check_setup_digests(digests, outcome)
        check_requests(requests, seed, outcome)
        describe(outcome, requests)
        return outcome, setups, peak_rss_mb(resource.RUSAGE_CHILDREN)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_traced(seed: int, seconds: float):
    """Untraced then traced half-runs: (untraced, traced, tracers, absent)."""
    from perfbench.layers import targets
    from perfbench.trace import import_all, patched

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="serve-", dir=WORK))
    try:
        server, _, plain_digest = start_server(workdir)
        try:
            plain, _ = run_load(server, seed, seconds / 2)
        finally:
            server.stop()
        import_all("repro")
        client_tracer = Tracer()
        spans_path = workdir / "server-spans.json"
        server, _, traced_digest = start_server(workdir, spans_out=spans_path)
        try:
            with patched(client_tracer, targets(client_tracer)):
                traced, requests = run_load(server, seed, seconds / 2, client_tracer)
        finally:
            server.stop()
        check_setup_digests([plain_digest, traced_digest], traced)
        check_requests(requests, seed, traced)
        document = json.loads(spans_path.read_text())
        server_tracer = Tracer.from_json(document)
        return plain, traced, [server_tracer, client_tracer], document["absent"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
