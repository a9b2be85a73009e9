"""Durable job-queue tests: atomic records, state machine, recovery."""

import json
import time

import pytest

from repro.service.protocol import JobStateError, UnknownJobError
from repro.service.queue import JOB_STATES, TERMINAL_STATES, JobQueue


def make_queue(tmp_path, **kwargs):
    return JobQueue(tmp_path / "spool", **kwargs)


class TestSubmitAndRecords:
    def test_submit_assigns_fifo_ids_and_persists(self, tmp_path):
        queue = make_queue(tmp_path)
        a = queue.submit("alice", {"steps": 3})
        b = queue.submit("bob", {"steps": 5})
        assert (a.job_id, b.job_id) == ("job-000000", "job-000001")
        assert a.state == "queued" and a.tenant == "alice"
        on_disk = json.loads(
            (tmp_path / "spool" / "jobs" / "job-000000.json").read_text()
        )
        assert on_disk["state"] == "queued"
        assert on_disk["spec"] == {"steps": 3}

    def test_get_returns_copies(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        queue.get("job-000000").state = "mutated"
        assert queue.get("job-000000").state == "queued"

    def test_unknown_job_raises_typed(self, tmp_path):
        with pytest.raises(UnknownJobError, match="no-such"):
            make_queue(tmp_path).get("no-such")

    def test_list_filters_by_tenant_and_state(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        queue.submit("bob", {})
        queue.transition("job-000001", "running")
        assert [r.job_id for r in queue.list(tenant="alice")] == ["job-000000"]
        assert [r.job_id for r in queue.list(states=["running"])] == ["job-000001"]
        counts = queue.counts()
        assert counts["queued"] == 1 and counts["running"] == 1


class TestStateMachine:
    def test_full_lifecycle_edges(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        queue.transition("job-000000", "running")
        record = queue.transition("job-000000", "done")
        assert record.state == "done"
        assert record.started_at is not None
        assert record.finished_at is not None
        assert record.attempts == 1
        assert [s for s, _ in record.history] == ["queued", "running", "done"]

    @pytest.mark.parametrize("terminal", TERMINAL_STATES)
    def test_terminal_states_are_final(self, tmp_path, terminal):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        if terminal != "cancelled":
            queue.transition("job-000000", "running")
        queue.transition("job-000000", terminal)
        with pytest.raises(JobStateError):
            queue.transition("job-000000", "running")

    def test_illegal_edge_rejected(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        with pytest.raises(JobStateError, match="is queued; cannot move to done"):
            queue.transition("job-000000", "done")

    def test_running_back_to_queued_is_legal(self, tmp_path):
        # The drain/crash-recovery edge: a parked job resumes later.
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        queue.transition("job-000000", "running")
        record = queue.transition("job-000000", "queued")
        assert record.state == "queued"

    def test_states_registry_is_closed(self):
        assert set(TERMINAL_STATES) <= set(JOB_STATES)


class TestDurability:
    def test_spool_survives_reconstruction(self, tmp_path):
        first = make_queue(tmp_path)
        first.submit("alice", {"steps": 4})
        first.submit("bob", {"steps": 2})
        first.transition("job-000000", "running")
        # A brand-new queue object (daemon restart) sees the same state.
        second = make_queue(tmp_path)
        assert second.get("job-000000").state == "running"
        assert second.get("job-000001").spec == {"steps": 2}
        # And continues the id sequence instead of reusing ids.
        third = second.submit("carol", {})
        assert third.job_id == "job-000002"

    def test_corrupt_record_is_skipped_not_fatal(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        (tmp_path / "spool" / "jobs" / "job-000099.json").write_text("{trunc")
        reopened = make_queue(tmp_path)
        assert [r.job_id for r in reopened.list()] == ["job-000000"]

    def test_recover_running_requeues_and_counts(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        queue.submit("alice", {})
        queue.transition("job-000000", "running")
        # Simulate the daemon dying and a new one scanning the spool.
        fresh = make_queue(tmp_path)
        recovered = fresh.recover_running()
        assert [r.job_id for r in recovered] == ["job-000000"]
        record = fresh.get("job-000000")
        assert record.state == "queued" and record.recoveries == 1
        assert fresh.get("job-000001").recoveries == 0


class TestClaiming:
    def test_claim_next_is_fifo(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        queue.submit("bob", {})
        claimed = queue.claim_next()
        assert claimed.job_id == "job-000000" and claimed.state == "running"
        assert queue.claim_next().job_id == "job-000001"
        assert queue.claim_next() is None

    def test_claim_respects_eligibility(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        queue.submit("bob", {})
        claimed = queue.claim_next(eligible=lambda r: r.tenant == "bob")
        assert claimed.job_id == "job-000001"

    def test_claim_is_durable(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        queue.claim_next()
        assert make_queue(tmp_path).get("job-000000").state == "running"

    def test_requeued_job_keeps_its_place_in_line(self, tmp_path):
        queue = make_queue(tmp_path)
        for tenant in ("alice", "bob", "carol"):
            queue.submit(tenant, {})
        assert queue.claim_next().job_id == "job-000000"
        queue.transition("job-000000", "queued")  # drained back
        assert queue.claim_next().job_id == "job-000000"  # not behind bob
        # ... and a reopened spool lines them up the same way.
        queue.transition("job-000000", "queued")
        assert make_queue(tmp_path).claim_next().job_id == "job-000000"


class TestIndexes:
    """``counts``, the next id and the queued line are maintained on every
    edge; a scan of the records must always agree with them."""

    @staticmethod
    def scanned(queue, tenant=None):
        out = dict.fromkeys(JOB_STATES, 0)
        for record in queue.list(tenant=tenant):
            out[record.state] += 1
        return out

    def test_counts_follow_every_edge_and_survive_reopening(self, tmp_path):
        queue = make_queue(tmp_path)
        for tenant in ("alice", "bob", "alice", "alice", "bob"):
            queue.submit(tenant, {})
        queue.claim_next()
        queue.transition("job-000000", "done")
        queue.claim_next()
        queue.transition("job-000001", "failed", error="boom")
        queue.transition("job-000002", "cancelled")
        queue.claim_next()
        queue.transition("job-000003", "queued")
        queue.claim_next(eligible=lambda r: r.tenant == "bob")
        for subject in (queue, make_queue(tmp_path)):
            assert subject.counts() == self.scanned(subject)
            for tenant in ("alice", "bob", "nobody"):
                assert subject.counts(tenant) == self.scanned(subject, tenant)
        assert queue.counts("alice") == {
            "queued": 1, "running": 0, "done": 1, "failed": 0, "cancelled": 1
        }
        with pytest.raises(ValueError, match="transition"):
            queue.update("job-000003", state="done")

    def test_update_is_live_at_once_and_durable_on_request(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.submit("alice", {})
        path = tmp_path / "spool" / "jobs" / "job-000000.json"
        assert queue.update("job-000000", durable=False, progress=4).progress == 4
        assert queue.get("job-000000").progress == 4
        assert json.loads(path.read_text())["progress"] == 0
        queue.update("job-000000", progress=5)
        assert json.loads(path.read_text())["progress"] == 5
        # A later edge writes whatever is live.
        queue.update("job-000000", durable=False, progress=6)
        queue.claim_next()
        assert json.loads(path.read_text())["progress"] == 6

    def test_dispatch_cost_does_not_grow_with_spool_history(self, tmp_path):
        """The dispatcher claims every 20 ms and a spool keeps every job
        it ever ran: submit + claim + the admission counts with 5,000
        finished jobs behind them cost what they cost with 50 (<= 3x;
        scanning and sorting the records read 24x)."""

        def cost(history):
            queue = JobQueue(tmp_path / f"spool-{history}")
            queue._persist = lambda record: None  # time the queue, not the disk
            for _ in range(history):
                queue.submit("old", {})
                queue.transition(queue.claim_next().job_id, "done")
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                for _ in range(20):
                    queue.counts()
                    queue.counts("alice")
                    queue.submit("alice", {})
                    assert queue.claim_next() is not None
                    assert queue.claim_next() is None  # an idle dispatcher tick
                best = min(best, time.perf_counter() - started)
            return best

        small = cost(50)
        assert cost(5000) <= 3.0 * small
