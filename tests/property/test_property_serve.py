"""Hypothesis properties for the crash-safe serve layer.

Two families:

* **Journal records** — ``encode -> decode`` is the identity over the
  whole representable space (the ledger must survive any job it can
  record), the JSON layer round-trips byte-stably, and any
  ``schema_version`` this build cannot read is rejected loudly rather
  than misread.
* **Backoff schedules** — the delay sequence is a pure function of the
  seed (same seed, same schedule), monotonically bounded by the cap, and
  never below a server-supplied ``retry_after_s`` floor (up to the cap).
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import ServeError
from repro.serve.client import BackoffPolicy
from repro.serve.journal import JOURNAL_SCHEMA_VERSION, JournalRecord

# -- strategies ---------------------------------------------------------------

_identifiers = st.text(
    alphabet="abcdef0123456789-", min_size=1, max_size=24,
).filter(lambda s: not s.startswith("."))

_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 31), max_value=2 ** 31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=16),
)

_jobs = st.dictionaries(
    st.text(min_size=1, max_size=12), _json_scalars, max_size=6,
)


@st.composite
def journal_records(draw):
    fingerprints = tuple(draw(st.lists(
        st.text(alphabet="0123456789abcdef", min_size=8, max_size=64),
        min_size=1, max_size=8,
    )))
    count = len(fingerprints)
    point_indices = draw(st.one_of(
        st.none(),
        st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=count, max_size=count, unique=True,
        ).map(lambda items: tuple(sorted(items))),
    ))
    return JournalRecord(
        journal_id=draw(_identifiers),
        kind=draw(st.sampled_from(["ber", "ber_sweep", "robustness"])),
        job=draw(_jobs),
        fingerprints=fingerprints,
        point_indices=point_indices,
        pid=draw(st.integers(min_value=0, max_value=2 ** 22)),
        created_unix=draw(st.floats(
            min_value=0.0, max_value=4e9, allow_nan=False,
        )),
    )


# -- journal properties -------------------------------------------------------


class TestJournalRecordProperties:
    @given(record=journal_records())
    def test_encode_decode_identity(self, record):
        assert JournalRecord.decode(record.encode()) == record

    @given(record=journal_records())
    def test_survives_json_round_trip(self, record):
        # The on-disk representation is JSON bytes; identity must hold
        # through serialization, not just through the dict form.
        wire = json.dumps(record.encode(), sort_keys=True)
        assert JournalRecord.decode(json.loads(wire)) == record

    @given(
        record=journal_records(),
        version=st.one_of(
            # Version 1 is still read (see JournalRecord.decode).
            st.integers().filter(lambda v: v not in (1, JOURNAL_SCHEMA_VERSION)),
            st.none(),
            st.text(max_size=4),
        ),
    )
    def test_unknown_schema_version_rejected_loudly(self, record, version):
        encoded = record.encode()
        encoded["schema_version"] = version
        with pytest.raises(ServeError, match="schema_version"):
            JournalRecord.decode(encoded)


# -- backoff properties -------------------------------------------------------

_policies = st.builds(
    BackoffPolicy,
    base_s=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    factor=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
    cap_s=st.floats(min_value=2.0, max_value=120.0, allow_nan=False),
    jitter=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    max_attempts=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)


class TestBackoffProperties:
    @given(policy=_policies, attempts=st.integers(min_value=0, max_value=24))
    def test_same_seed_same_delays(self, policy, attempts):
        rebuilt = BackoffPolicy(
            base_s=policy.base_s, factor=policy.factor, cap_s=policy.cap_s,
            jitter=policy.jitter, max_attempts=policy.max_attempts,
            seed=policy.seed,
        )
        assert policy.schedule(attempts) == rebuilt.schedule(attempts)

    @given(policy=_policies, attempt=st.integers(min_value=0, max_value=64))
    def test_cap_respected(self, policy, attempt):
        assert 0.0 < policy.delay(attempt) <= policy.cap_s

    @given(
        policy=_policies,
        attempt=st.integers(min_value=0, max_value=16),
        retry_after=st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
    )
    def test_retry_after_is_a_floor_up_to_the_cap(
        self, policy, attempt, retry_after
    ):
        delay = policy.delay(attempt, retry_after_s=retry_after)
        assert delay <= policy.cap_s
        assert delay >= min(retry_after, policy.cap_s)
        # And the hint never *lowers* the ramp.
        assert delay >= min(policy.delay(attempt), policy.cap_s)
