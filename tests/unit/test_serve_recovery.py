"""Unit tests for crash recovery: scheduler journaling + server resume.

The scheduler half runs on synthetic point specs with a real
:class:`JobJournal` in a tmp dir, pinning the write-ahead discipline
(record before compute, one write per job, removal at done / cancel).
The server half stands up a real :class:`ServerThread` over a pre-seeded
journal and pins the ``--resume`` replay contract: incomplete jobs
resubmit, points already in the store are never re-scheduled, records
whose fingerprints drifted are dropped loudly, a record from another
build is skipped without blocking the rest, and the journal ends empty.
"""

import asyncio
import json
import threading
import time

import repro.store.cache
from repro.serve.journal import JobJournal
from repro.serve.protocol import ParsedJob, parse_job
from repro.serve.scheduler import JobScheduler
from repro.serve.server import ServeConfig, ServerThread
from repro.sim.executor import ExecutionPlan
from repro.store import ExperimentStore


class FakeSpec:
    kind = "fake"

    def __init__(self, name, *, gate=None):
        self.name = name
        self.gate = gate

    def fingerprint(self):
        return f"fp-{self.name}"

    def compute(self, execution, store):
        if self.gate is not None:
            assert self.gate.wait(timeout=10.0), "test gate never released"
        return {"name": self.name}


class FakeSession:
    def __init__(self):
        self.messages = []

    def send(self, message):
        self.messages.append(message)

    def finish_job(self, job):
        pass


def job_of(*specs):
    return ParsedJob(kind="fake", points=tuple(specs))


async def eventually(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        await asyncio.sleep(0.005)


class TestSchedulerJournaling:
    def test_submit_journals_write_ahead_and_done_retires(self, tmp_path):
        async def scenario():
            journal = JobJournal(tmp_path)
            gate = threading.Event()
            scheduler = JobScheduler(
                pool_workers=1, max_pending=8, journal=journal
            )
            session = FakeSession()
            raw = {"kind": "fake", "what": "ever"}
            _, job = scheduler.submit(
                session, "j1", job_of(FakeSpec("a", gate=gate), FakeSpec("b")),
                raw_job=raw,
            )
            # Write-ahead: the record is on disk while nothing computed.
            record = journal.get(job.journal_id)
            assert record is not None
            assert record.job == raw
            assert record.fingerprints == ("fp-a", "fp-b")
            assert scheduler.counters["journal_records"] == 1
            gate.set()
            await eventually(lambda: scheduler._pending == 0)
            # Fully delivered: the record is gone.
            await eventually(lambda: journal.get(job.journal_id) is None)
            await scheduler.close()

        asyncio.run(scenario())

    def test_one_journal_write_per_job(self, tmp_path, monkeypatch):
        writes = []
        real_write = repro.store.cache.atomic_write_bytes

        def counting_write(path, data):
            writes.append(path)
            real_write(path, data)

        monkeypatch.setattr(
            repro.store.cache, "atomic_write_bytes", counting_write
        )

        async def scenario():
            journal = JobJournal(tmp_path)
            scheduler = JobScheduler(
                pool_workers=2, max_pending=32, journal=journal
            )
            session = FakeSession()
            _, job = scheduler.submit(
                session, "j1",
                job_of(*(FakeSpec(f"p{index}") for index in range(20))),
                raw_job={"kind": "fake"},
            )
            await eventually(
                lambda: any(m["type"] == "done" for m in session.messages)
            )
            await scheduler.close()
            return journal, job

        journal, job = asyncio.run(scenario())
        # The write-ahead record is the only write: delivering a point
        # touches the store, never the journal.
        assert writes == [journal._path(job.journal_id)]
        assert journal.get(job.journal_id) is None

    def test_cancel_retires_the_record(self, tmp_path):
        async def scenario():
            journal = JobJournal(tmp_path)
            gate = threading.Event()
            scheduler = JobScheduler(
                pool_workers=1, max_pending=8, journal=journal
            )
            session = FakeSession()
            scheduler.submit(
                session, "block", job_of(FakeSpec("block", gate=gate)),
                raw_job={"kind": "fake"},
            )
            _, victim = scheduler.submit(
                session, "victim", job_of(FakeSpec("v")),
                raw_job={"kind": "fake"},
            )
            assert journal.get(victim.journal_id) is not None
            scheduler.cancel_job(victim)
            # An explicitly cancelled job must not replay at next restart:
            # a reconnecting client resubmits (and re-journals) itself.
            assert journal.get(victim.journal_id) is None
            gate.set()
            await eventually(lambda: scheduler._pending == 0)
            await scheduler.close()

        asyncio.run(scenario())

    def test_no_journal_without_raw_job(self, tmp_path):
        async def scenario():
            journal = JobJournal(tmp_path)
            scheduler = JobScheduler(
                pool_workers=1, max_pending=8, journal=journal
            )
            _, job = scheduler.submit(
                FakeSession(), "j1", job_of(FakeSpec("a"))
            )
            assert job.journal_id is None
            assert not journal.incomplete()
            await eventually(lambda: scheduler._pending == 0)
            await scheduler.close()

        asyncio.run(scenario())


#: Two fast points; distinct seeds keep the fingerprints distinct.
SWEEP_JOB = {
    "kind": "ber_sweep", "frames": 2, "distance_m": 3.0,
    "sweep": {"field": "seed", "values": [11, 12]},
}


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        time.sleep(0.02)


class TestServerResume:
    def _seed_journal(self, cache_dir, job):
        """Plant the record a crashed server would have left behind."""
        parsed = parse_job(job)
        fingerprints = [spec.fingerprint() for spec in parsed.points]
        journal = JobJournal(cache_dir)
        record = journal.record(
            kind=parsed.kind, job=job, fingerprints=fingerprints,
        )
        return journal, record, parsed, fingerprints

    @staticmethod
    def _plant_record(journal, journal_id, encoded):
        """Write a record file verbatim, as another build would have."""
        path = journal.root / f"{journal_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**encoded, "journal_id": journal_id}))
        return path

    def _seed_version_1_journal(self, cache_dir, job):
        """A record exactly as a version-1 server wrote it: point 0
        marked complete, state running, owned by a dead pid."""
        journal, record, _parsed, fingerprints = self._seed_journal(
            cache_dir, job
        )
        journal.finish(record.journal_id)
        self._plant_record(journal, "v1-record", {
            **record.encode(), "schema_version": 1, "completed": [0],
            "state": "running", "pid": 2 ** 22 + 54321,
        })
        return journal, fingerprints

    def test_resume_replays_incomplete_job_into_store(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal, record, _parsed, fingerprints = self._seed_journal(
            cache_dir, SWEEP_JOB
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            assert handle.server.replayed_jobs == 1
            assert handle.server.scheduler.counters["journal_replayed"] == 1
            # Replay finishes: record retired, every point in the store.
            wait_for(lambda: journal.get(record.journal_id) is None)
            store = ExperimentStore(cache_dir)
            for fingerprint in fingerprints:
                assert store.contains(fingerprint)

    def test_resume_skips_completed_points(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        # Point 0 landed in the store before the "crash"...
        parsed = parse_job(SWEEP_JOB)
        store = ExperimentStore(cache_dir)
        parsed.points[0].compute(ExecutionPlan(), store)
        # ...so the store, not the journal, knows it was delivered.
        journal, record, _parsed, fingerprints = self._seed_journal(
            cache_dir, SWEEP_JOB
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            wait_for(lambda: journal.get(record.journal_id) is None)
            counters = handle.server.scheduler.counters
            # Only the missing point was ever scheduled.
            assert counters["points_submitted"] == 1
            assert counters["journal_replayed"] == 1
            store = ExperimentStore(cache_dir)
            for fingerprint in fingerprints:
                assert store.contains(fingerprint)

    def test_resume_reads_a_version_1_record(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        parsed = parse_job(SWEEP_JOB)
        parsed.points[0].compute(ExecutionPlan(), ExperimentStore(cache_dir))
        journal, fingerprints = self._seed_version_1_journal(
            cache_dir, SWEEP_JOB
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            assert handle.server.replayed_jobs == 1
            wait_for(lambda: journal.get("v1-record") is None)
            # Point 0 is in the store: only point 1 was scheduled.
            assert handle.server.scheduler.counters["points_submitted"] == 1
            store = ExperimentStore(cache_dir)
            for fingerprint in fingerprints:
                assert store.contains(fingerprint)

    def test_resume_recomputes_a_delivered_point_missing_from_the_store(
        self, tmp_path
    ):
        # The record says point 0 was delivered, but its store entry is
        # corrupt: the store is the authority, so point 0 recomputes.
        cache_dir = str(tmp_path / "cache")
        parsed = parse_job(SWEEP_JOB)
        store = ExperimentStore(cache_dir)
        parsed.points[0].compute(ExecutionPlan(), store)
        store._record_path(parsed.points[0].fingerprint()).write_bytes(b"{")
        journal, fingerprints = self._seed_version_1_journal(
            cache_dir, SWEEP_JOB
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            wait_for(lambda: journal.get("v1-record") is None)
            assert handle.server.scheduler.counters["points_submitted"] == 2
            store = ExperimentStore(cache_dir)
            for fingerprint in fingerprints:
                assert store.contains(fingerprint)

    def test_foreign_schema_record_does_not_block_resume(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal, record, _parsed, _fps = self._seed_journal(
            cache_dir, SWEEP_JOB
        )
        foreign = self._plant_record(journal, "from-a-newer-build", {
            **record.encode(), "schema_version": 999,
        })
        before = foreign.read_bytes()
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            assert handle.server.replayed_jobs == 1
            wait_for(lambda: journal.get(record.journal_id) is None)
        # Left on disk, byte for byte, for the build that can read it.
        assert foreign.read_bytes() == before

    def test_resume_drops_record_with_drifted_fingerprints(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        parsed = parse_job(SWEEP_JOB)
        journal = JobJournal(cache_dir)
        record = journal.record(
            kind=parsed.kind, job=SWEEP_JOB,
            fingerprints=["0" * 64 for _ in parsed.points],  # drifted
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=True,
        )) as handle:
            assert handle.server.replayed_jobs == 0
            assert handle.server.scheduler.counters["points_submitted"] == 0
        # Dropped loudly, not left to replay wrong forever.
        assert journal.get(record.journal_id) is None

    def test_start_without_resume_leaves_journal_alone(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        journal, record, _parsed, _fps = self._seed_journal(
            cache_dir, SWEEP_JOB
        )
        with ServerThread(ServeConfig(
            pool_workers=1, cache_dir=cache_dir, resume=False,
        )) as handle:
            assert handle.server.replayed_jobs == 0
        assert journal.get(record.journal_id) is not None
