"""Unit tests of the job store: state machine, views, TTL eviction, and —
for a store kept in a file — durability, recovery and the schema guard.

Every behaviour that does not depend on a file runs twice, against an
in-memory store (the daemon's default) and a file-backed one (``--store``).
"""

import json
import sqlite3

import pytest

from repro.api.schema import API_SCHEMA_VERSION
from repro.service.errors import UnknownJobError
from repro.service.jobs import JOB_STATES, TERMINAL_STATES
from repro.service.repository import (
    REPOSITORY_SCHEMA_VERSION,
    JobRepository,
    RepositoryStateError,
)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


PAYLOAD = {"kind": "advising_request", "schema_version": API_SCHEMA_VERSION}


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "jobs.sqlite3"


@pytest.fixture(params=["memory", "file"])
def make_repo(request, store_path):
    """Factory for repositories in memory or in a file; all closed after."""
    location = ":memory:" if request.param == "memory" else store_path
    opened = []

    def make(**kwargs):
        repository = JobRepository(location, **kwargs)
        opened.append(repository)
        return repository

    yield make
    for repository in opened:
        repository.close()


@pytest.fixture
def repo(make_repo):
    return make_repo(ttl=None)


@pytest.fixture
def clock():
    return FakeClock()


class TestStateMachine:
    def test_lifecycle(self, repo):
        job = repo.create(PAYLOAD, "case-a")
        assert job.state == "queued" and not job.terminal
        assert job.state in JOB_STATES
        assert job.job_id in repo and len(repo) == 1

        repo.mark_running(job.job_id)
        assert repo.get(job.job_id).state == "running"

        repo.finish(job.job_id, {"ok": True}, None)
        finished = repo.get(job.job_id)
        assert finished.state == "done" and finished.terminal
        assert finished.state in TERMINAL_STATES
        assert finished.result == {"ok": True}
        assert finished.payload == PAYLOAD
        counts = repo.counts
        assert counts.submitted == 1 and counts.done == 1
        assert counts.failed == 0 and counts.served == 1

    def test_error_marks_failed(self, repo):
        job = repo.create(PAYLOAD, "case-b")
        repo.mark_running(job.job_id)
        repo.finish(job.job_id, {"error": "boom"}, "boom\n  traceback")
        failed = repo.get(job.job_id)
        assert failed.state == "failed"
        assert failed.error == "boom\n  traceback"
        assert repo.counts.failed == 1
        assert repo.counts.served == 1

    def test_finish_straight_from_queue(self, repo):
        # An aborted (never-run) job still gets coherent timestamps.
        job = repo.create(PAYLOAD, "case-c")
        repo.finish(job.job_id, None, "aborted")
        view = repo.view(job.job_id)
        assert view["state"] == "failed"
        assert view["waited_seconds"] is not None

    def test_abort_counts_separately(self, repo):
        job = repo.create(PAYLOAD, "case-c")
        repo.abort(job.job_id, "shutting down")
        assert repo.get(job.job_id).state == "failed"
        assert repo.counts.aborted == 1 and repo.counts.failed == 0

    def test_unknown_job(self, repo):
        primary = repo.create(PAYLOAD, "case-a")
        before = repo.counts
        with pytest.raises(UnknownJobError, match="nope"):
            repo.get("nope")
        with pytest.raises(UnknownJobError):
            repo.view("nope")
        with pytest.raises(UnknownJobError):
            repo.mark_running("nope")
        with pytest.raises(UnknownJobError):
            repo.attach("nope", primary.job_id)
        with pytest.raises(UnknownJobError):
            repo.finish("nope", {}, None)
        with pytest.raises(UnknownJobError):
            repo.abort("nope", "shutting down")
        assert repo.counts == before
        assert len(repo) == 1

    def test_discard_reverses_create(self, repo):
        job = repo.create(PAYLOAD, "case-d")
        assert repo.counts.submitted == 1
        repo.discard(job.job_id)
        assert job.job_id not in repo
        assert repo.counts.submitted == 0
        repo.discard("never-there")  # idempotent
        assert repo.counts.submitted == 0

    def test_attach_records_coalescing(self, repo):
        primary = repo.create(PAYLOAD, "case-e")
        follower = repo.create(PAYLOAD, "case-e")
        attached = repo.attach(follower.job_id, primary.job_id)
        assert attached.coalesced_with == primary.job_id
        assert repo.counts.coalesced == 1
        assert repo.view(follower.job_id)["coalesced_with"] == primary.job_id

    def test_view_shape(self, repo):
        job = repo.create(PAYLOAD, "case-e", index=3)
        view = repo.view(job.job_id)
        assert view["kind"] == "job"
        assert view["schema_version"] == API_SCHEMA_VERSION
        assert view["job_id"] == job.job_id
        assert view["state"] == "queued"
        assert view["index"] == 3
        assert view["label"] == "case-e"
        assert view["result"] is None and view["error"] is None
        assert view == job.view()

    def test_view_matches_the_stored_job(self, repo):
        job = repo.create(PAYLOAD, "case-f", index=2)
        repo.mark_running(job.job_id)
        repo.finish(job.job_id, {"zeta": 1, "alpha": [2]}, None)
        view = repo.view(job.job_id)
        assert view == repo.get(job.job_id).view()
        assert json.dumps(view["result"]) == '{"zeta": 1, "alpha": [2]}'

    def test_job_ids_are_unique(self, repo):
        ids = {repo.create(PAYLOAD, "x").job_id for _ in range(100)}
        assert len(ids) == 100

    def test_pending_lists_only_live_jobs(self, repo):
        live = repo.create(PAYLOAD, "live")
        settled = repo.create(PAYLOAD, "settled")
        repo.finish(settled.job_id, None, None)
        assert repo.pending() == [live.job_id]


class TestTtlEviction:
    def test_terminal_jobs_evict_after_ttl(self, make_repo, clock):
        repo = make_repo(ttl=60.0, clock=clock)
        done = repo.create(PAYLOAD, "old")
        repo.finish(done.job_id, {"ok": True}, None)
        queued = repo.create(PAYLOAD, "queued")
        clock.advance(61.0)
        assert repo.evict() == 1
        assert repo.counts.evicted == 1
        assert done.job_id not in repo
        assert queued.job_id in repo
        with pytest.raises(UnknownJobError):
            repo.get(done.job_id)

    def test_live_jobs_never_evict(self, make_repo, clock):
        repo = make_repo(ttl=60.0, clock=clock)
        queued = repo.create(PAYLOAD, "queued")
        running = repo.create(PAYLOAD, "running")
        repo.mark_running(running.job_id)
        clock.advance(3600.0)
        assert repo.evict() == 0
        assert repo.get(queued.job_id).state == "queued"
        assert repo.get(running.job_id).state == "running"
        assert repo.view(running.job_id)["state"] == "running"

    def test_expired_results_are_never_served(self, make_repo, clock):
        repo = make_repo(ttl=60.0, clock=clock)
        done = repo.create(PAYLOAD, "old")
        repo.finish(done.job_id, {"ok": True}, None)
        clock.advance(61.0)
        with pytest.raises(UnknownJobError, match="retention"):
            repo.get(done.job_id)
        with pytest.raises(UnknownJobError, match="retention"):
            repo.view(done.job_id)
        # Reads never write: the row is deleted by the next eviction.
        assert done.job_id in repo
        assert repo.counts.evicted == 0
        assert repo.evict() == 1

    def test_eviction_piggybacks_on_create(self, make_repo, clock):
        repo = make_repo(ttl=60.0, clock=clock)
        old = repo.create(PAYLOAD, "old")
        repo.finish(old.job_id, None, None)
        clock.advance(61.0)
        fresh = repo.create(PAYLOAD, "fresh")  # triggers eviction
        assert old.job_id not in repo
        assert fresh.job_id in repo
        assert repo.counts.evicted == 1

    def test_ttl_none_disables_eviction(self, make_repo, clock):
        repo = make_repo(ttl=None, clock=clock)
        job = repo.create(PAYLOAD, "kept")
        repo.finish(job.job_id, None, None)
        clock.advance(1e9)
        assert repo.evict() == 0
        assert job.job_id in repo
        assert repo.get(job.job_id).state == "done"

    def test_ttl_validation(self, make_repo):
        with pytest.raises(ValueError, match="ttl"):
            make_repo(ttl=0)
        with pytest.raises(ValueError, match="ttl"):
            make_repo(ttl=-5.0)


class TestDurability:
    def test_results_survive_reopen_byte_identically(self, store_path):
        result = {"kind": "advising_result", "zeta": 1, "alpha": [2, {"b": 3}]}
        repo = JobRepository(store_path, ttl=None)
        job = repo.create(PAYLOAD, "case-a")
        repo.mark_running(job.job_id)
        repo.finish(job.job_id, result, None)
        before = json.dumps(repo.view(job.job_id), sort_keys=True)
        repo.close()

        reopened = JobRepository(store_path, ttl=None)
        try:
            after = json.dumps(reopened.view(job.job_id), sort_keys=True)
            assert after == before
            # Key order inside the result dict round-trips too.
            replayed = reopened.get(job.job_id).result
            assert json.dumps(replayed) == json.dumps(result)
        finally:
            reopened.close()

    def test_counters_survive_reopen(self, store_path):
        repo = JobRepository(store_path, ttl=None)
        job = repo.create(PAYLOAD, "case-a")
        repo.finish(job.job_id, {"ok": True}, None)
        repo.close()
        reopened = JobRepository(store_path, ttl=None)
        try:
            counts = reopened.counts
            assert counts.submitted == 1 and counts.done == 1
        finally:
            reopened.close()

    def test_recover_requeues_running_jobs_in_order(self, store_path):
        repo = JobRepository(store_path, ttl=None)
        first = repo.create(PAYLOAD, "case-a")
        second = repo.create(PAYLOAD, "case-b")
        third = repo.create(PAYLOAD, "case-c")
        repo.mark_running(second.job_id)
        repo.finish(third.job_id, {"ok": True}, None)
        repo.close()

        reopened = JobRepository(store_path, ttl=None)
        try:
            recovered = reopened.recover()
            # Submission order, interrupted 'running' job healed to queued.
            assert recovered == [first.job_id, second.job_id]
            healed = reopened.get(second.job_id)
            assert healed.state == "queued" and healed.started_at is None
            # Settled jobs are untouched.
            assert reopened.get(third.job_id).state == "done"
        finally:
            reopened.close()

    def test_in_memory_stores_share_nothing(self):
        first = JobRepository(":memory:")
        second = JobRepository(":memory:")
        try:
            job = first.create(PAYLOAD, "case-a")
            assert job.job_id not in second
            assert second.recover() == []
            assert second.counts.submitted == 0
        finally:
            first.close()
            second.close()


class TestSchemaGuard:
    def test_repository_schema_mismatch_refuses_to_open(self, store_path):
        JobRepository(store_path).close()
        conn = sqlite3.connect(str(store_path))
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'repository_schema'",
            (str(REPOSITORY_SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(RepositoryStateError, match="repository_schema"):
            JobRepository(store_path)

    def test_api_schema_mismatch_refuses_to_open(self, store_path):
        JobRepository(store_path).close()
        conn = sqlite3.connect(str(store_path))
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'api_schema'",
            (str(API_SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(RepositoryStateError, match="api_schema"):
            JobRepository(store_path)


class TestMultiHandle:
    def test_two_handles_share_one_store(self, store_path):
        """Two open repositories (two daemons on one host) see each other."""
        a = JobRepository(store_path, ttl=None)
        b = JobRepository(store_path, ttl=None)
        try:
            job = a.create(PAYLOAD, "case-a")
            a.finish(job.job_id, {"ok": True}, None)
            assert b.get(job.job_id).state == "done"
            assert b.counts.done == 1
        finally:
            a.close()
            b.close()
