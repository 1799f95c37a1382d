"""Chaos integration: injected failures converge to golden results.

Every test here runs a *real* server and drives a real client through
:class:`repro.serve.chaosproxy.ChaosProxy` (or kills a real ``repro
serve`` subprocess outright), then asserts the two acceptance criteria
of the crash-safe service layer:

* **Bit-identity** — the reassembled result equals a clean uninterrupted
  run of the same job (golden-anchored where the end-to-end suite has an
  anchor), no matter how the stream was torn, dropped, or restarted.
* **No recomputation** — a point that reached the store is never
  computed again by any recovery path.  The store's session ``misses``
  counter is the ground truth: one miss per genuinely new point, zero
  for every replayed/re-requested one.

All chaos is seed-deterministic (``ChaosConfig.seed``), so a failure
here replays its exact fault sequence.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.errors import ServeConnectionLost, ServeError
from chaosproxy import ChaosConfig, ChaosProxyThread
from repro.serve.client import BackoffPolicy, ServeClient
from repro.serve.journal import JobJournal
from repro.serve.protocol import MAX_LINE_BYTES, encode_message, parse_job
from repro.serve.server import ServeConfig, ServerThread
from repro.store import ExperimentStore

#: A sweep long enough to interrupt, fast enough for CI.
SWEEP_JOB = {
    "kind": "ber_sweep", "frames": 20, "distance_m": 9.0,
    "sweep": {"field": "seed", "values": [0, 1, 2, 3]},
}

#: Zero-sleep backoff: the schedule is still computed and asserted on,
#: the test just does not wait it out.
FAST_POLICY = BackoffPolicy(base_s=0.01, cap_s=0.05, jitter=0.0, seed=0,
                            max_attempts=12)


def clean_run(job, cache_dir=None):
    """The uninterrupted golden: one server, one client, no chaos."""
    with ServerThread(ServeConfig(pool_workers=2,
                                  cache_dir=cache_dir)) as handle:
        with ServeClient(handle.host, handle.port) as client:
            return client.run(job)


def wait_for(predicate, timeout=60.0, message="condition not met in time"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.02)


class TestChaosProxyConvergence:
    """Connection drops, torn lines, slow reads — all converge."""

    def _run_through_chaos(self, tmp_path, **chaos_knobs):
        cache_dir = str(tmp_path / "chaos-cache")
        with ServerThread(ServeConfig(pool_workers=2,
                                      cache_dir=cache_dir)) as handle:
            with ChaosProxyThread(ChaosConfig(
                target_host=handle.host, target_port=handle.port,
                **chaos_knobs,
            )) as chaos:
                waits = []
                with ServeClient(chaos.host, chaos.port) as client:
                    client._sleep = lambda _s: None  # schedule, don't wait
                    result = client.run_resilient(
                        SWEEP_JOB, policy=FAST_POLICY,
                        on_wait=lambda a, d, r: waits.append((a, d, r)),
                    )
                counters = dict(chaos.counters)
            # No-recompute ground truth, straight from the real server.
            with ServeClient(handle.host, handle.port) as direct:
                store_session = direct.status()["store"]["session"]
        return result, counters, waits, store_session

    def test_connection_drops_converge_bit_identical(self, tmp_path):
        result, counters, waits, store_session = self._run_through_chaos(
            tmp_path, seed=1, drop_after_frames=3, max_faults=3,
        )
        golden = clean_run(SWEEP_JOB)
        assert result.points == golden.points
        assert result.failed == []
        assert counters["drops"] >= 1
        assert waits != []  # the client actually backed off
        # Each of the 4 points was computed exactly once, ever.
        assert store_session["misses"] == len(parse_job(SWEEP_JOB).points)

    def test_torn_lines_converge_bit_identical(self, tmp_path):
        result, counters, _waits, store_session = self._run_through_chaos(
            tmp_path, seed=2, truncate_probability=0.25, max_faults=2,
        )
        golden = clean_run(SWEEP_JOB)
        assert result.points == golden.points
        assert counters["truncations"] + counters["drops"] >= 1
        assert store_session["misses"] == len(parse_job(SWEEP_JOB).points)

    def test_slow_reads_still_complete(self, tmp_path):
        result, counters, _waits, store_session = self._run_through_chaos(
            tmp_path, seed=3, delay_probability=0.5, delay_s=0.05,
        )
        golden = clean_run(SWEEP_JOB)
        assert result.points == golden.points
        assert counters["delays"] >= 1
        assert store_session["misses"] == len(parse_job(SWEEP_JOB).points)

    def test_fault_sequence_is_seed_deterministic(self, tmp_path):
        # Same seed, same fault sequence.  (frames_forwarded is excluded:
        # with two pool workers the point *completion order* is not
        # pinned, only the fault decisions and the reassembled result.)
        knobs = dict(drop_after_frames=2, max_faults=2)
        faults = ("connections", "drops", "truncations", "delays")
        _r1, first, _w1, _s1 = self._run_through_chaos(
            tmp_path / "a", seed=42, **knobs
        )
        _r2, second, _w2, _s2 = self._run_through_chaos(
            tmp_path / "b", seed=42, **knobs
        )
        assert {k: first[k] for k in faults} == {k: second[k] for k in faults}

    def test_budget_exhausts_into_connection_lost(self, tmp_path):
        # Unlimited faults + drop-every-frame: the client must give up
        # with the retryable error class after its whole backoff budget.
        with ServerThread(ServeConfig(pool_workers=1)) as handle:
            with ChaosProxyThread(ChaosConfig(
                target_host=handle.host, target_port=handle.port,
                seed=4, drop_after_frames=0,
            )) as chaos:
                with ServeClient(chaos.host, chaos.port) as client:
                    client._sleep = lambda _s: None
                    policy = BackoffPolicy(base_s=0.01, cap_s=0.02,
                                           jitter=0.0, max_attempts=2)
                    with pytest.raises(ServeConnectionLost):
                        client.run_resilient(SWEEP_JOB, policy=policy)


class TestOverlongLineResync:
    """Satellite: an over-long frame must not tear the session down."""

    def test_oversized_line_gets_error_frame_and_session_survives(self):
        with ServerThread(ServeConfig(pool_workers=1)) as handle:
            with socket.create_connection(
                (handle.host, handle.port), timeout=30.0,
            ) as sock:
                reader = sock.makefile("rb")
                # A single line well past the cap, then a normal ping.
                sock.sendall(b"x" * (MAX_LINE_BYTES + 4096) + b"\n")
                sock.sendall(encode_message({"type": "ping"}))
                error = json.loads(reader.readline())
                assert error["type"] == "error"
                assert error["code"] == "frame_too_long"
                assert error["resynced"] is True
                # The connection is still alive and correctly framed.
                pong = json.loads(reader.readline())
                assert pong["type"] == "pong"


class TestRejectionBackoff:
    """run_resilient honors retry_after_s instead of failing fast."""

    def test_rejected_job_waits_and_completes(self, tmp_path):
        # The blocker occupies the single pending slot until it finishes
        # computing, so the client genuinely has to wait it out: real
        # (small) sleeps, with a budget far past the blocker's runtime.
        blocker = {"kind": "ber", "frames": 120, "seed": 7}
        small = {"kind": "ber", "frames": 8, "seed": 3}
        policy = BackoffPolicy(base_s=0.01, cap_s=0.05, jitter=0.0,
                               max_attempts=1200)
        with ServerThread(ServeConfig(pool_workers=1, max_pending=1,
                                      retry_after_s=0.5)) as handle:
            with ServeClient(handle.host, handle.port) as block_client, \
                    ServeClient(handle.host, handle.port) as client:
                block_client.submit(blocker)
                waits = []
                result = client.run_resilient(
                    small, policy=policy,
                    on_wait=lambda a, d, r: waits.append((a, d, r)),
                )
                assert result.ber_point() is not None
                # At least one rejection happened, and its delay honored
                # the server's retry_after_s hint of 0.5 s — clamped to
                # the client's own 0.05 s cap, proving the hint was the
                # floor and the cap still won.
                rejected = [w for w in waits if w[2] == "rejected"]
                assert rejected != []
                assert all(d == 0.05 for _a, d, _r in rejected)


REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class ServeProcess:
    """A real ``repro serve`` subprocess (the thing we get to SIGKILL)."""

    def __init__(self, cache_dir, *extra_args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--pool-workers", "1", "--cache-dir", str(cache_dir),
             *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(REPO_ROOT),
        )
        self.host, self.port = self._scrape_address()

    def _scrape_address(self):
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                host, _, port = line.strip().rpartition(":")
                return host.split()[-1], int(port)
        raise AssertionError("serve subprocess never announced its address")

    def sigkill(self):
        self.proc.kill()  # SIGKILL: no atexit, no graceful anything
        self.proc.wait(timeout=30.0)

    def terminate(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30.0)


@pytest.mark.slow
class TestSigkillResume:
    """The headline acceptance test: SIGKILL mid-sweep, restart --resume,
    and the reassembled stream is bit-identical with zero recomputation."""

    def test_sigkill_midsweep_then_resume_is_bit_identical(self, tmp_path):
        cache_dir = tmp_path / "crash-cache"
        specs = parse_job(SWEEP_JOB).points
        fingerprints = [spec.fingerprint() for spec in specs]
        store = ExperimentStore(cache_dir)
        journal = JobJournal(cache_dir)

        # Phase 1: submit against a real server process, wait until at
        # least one point has durably landed, then SIGKILL mid-sweep.
        first = ServeProcess(cache_dir)
        try:
            with ServeClient(first.host, first.port, timeout=120.0) as client:
                client_id = client.submit(SWEEP_JOB)
                wait_for(
                    lambda: any(store.contains(f) for f in fingerprints),
                    message="no point landed before the kill",
                )
                first.sigkill()
                # The client sees the crash as a retryable connection loss.
                with pytest.raises((ServeConnectionLost, ServeError, OSError)):
                    for _message in client.events(client_id):
                        pass
        finally:
            first.terminate()
        stored_before = sum(store.contains(f) for f in fingerprints)
        journaled = len(journal.incomplete())
        assert journaled == 1, "the crashed server must leave its WAL behind"

        # Phase 2: restart with --resume; the journal replays, missing
        # points compute, completed points come back from the store.
        second = ServeProcess(cache_dir, "--resume")
        try:
            with ServeClient(second.host, second.port, timeout=120.0) as client:
                client._sleep = lambda _s: None
                result = client.run_resilient(SWEEP_JOB, policy=FAST_POLICY)
                status = client.status()
            wait_for(lambda: not journal.incomplete(),
                     message="journal record never retired after resume")
        finally:
            second.terminate()

        # Bit-identity against a clean uninterrupted run.
        golden = clean_run(SWEEP_JOB)
        assert result.points == golden.points
        assert result.failed == []
        # No recomputation: the restarted server recomputed exactly the
        # points missing from the store, never the ones already in it.
        session = status["store"]["session"]
        assert status["counters"]["journal_replayed"] == 1
        assert session["misses"] == len(fingerprints) - stored_before
        assert session["hits"] >= stored_before
