"""JobManager lifecycle: states, TTL eviction, cancel, drain, id space.

The ISSUE-5 satellite checklist in-process: poll-after-TTL-eviction
raises (the HTTP layer maps it to 404), cancelling a finished job is a
no-op, a drain with a queued job leaves it in a terminal state, and
two workspaces' job ids never collide.
"""

import threading
import time

import pytest

from repro import (
    DetectRequest,
    HomographIndex,
    JobManager,
    JobOverflowError,
    MeasureOutput,
    UnknownJobError,
    Workspace,
    register_measure,
    unregister_measure,
)
from tests.conftest import make_figure1_lake


@pytest.fixture
def index():
    idx = HomographIndex(make_figure1_lake())
    yield idx
    idx.close()


@pytest.fixture
def gated_measure():
    """A measure that blocks until released (fills dispatcher slots)."""
    state = {"release": threading.Event(), "running": threading.Event()}

    def measure(graph, request):
        state["running"].set()
        state["release"].wait(15)
        return MeasureOutput(scores={"X": 1.0}, descending=True)

    register_measure("gated-jobs-test", measure)
    yield state
    state["release"].set()
    unregister_measure("gated-jobs-test")


def wait_terminal(manager, job_id, timeout=15.0):
    """Poll until the job leaves queued/running; return the snapshot."""
    deadline = time.monotonic() + timeout
    while True:
        snapshot = manager.get(job_id)
        if snapshot["state"] in ("done", "error"):
            return snapshot
        assert time.monotonic() < deadline, snapshot
        time.sleep(0.01)


class TestLifecycle:
    def test_submit_runs_to_done_with_response_payload(self, index):
        manager = JobManager()
        job_id = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        snapshot = wait_terminal(manager, job_id)
        assert snapshot["state"] == "done"
        assert snapshot["lake"] == "zoo"
        assert snapshot["measure"] == "lcc"
        assert snapshot["runtime_seconds"] >= 0
        assert snapshot["response"]["ranking"]
        # The job rode the index's machinery: its result is cached.
        assert index.detect(measure="lcc").cached

    def test_jobs_share_the_score_cache(self, index):
        manager = JobManager()
        first = wait_terminal(manager, manager.submit(
            "zoo", index, DetectRequest(measure="lcc")))
        second = wait_terminal(manager, manager.submit(
            "zoo", index, DetectRequest(measure="lcc")))
        assert first["response"]["cached"] is False
        assert second["response"]["cached"] is True
        assert second["response"]["ranking"] == \
            first["response"]["ranking"]

    def test_measure_failure_is_error_state(self, index):
        def boom(graph, request):
            raise ValueError("kernel exploded")

        register_measure("boom-jobs-test", boom)
        try:
            manager = JobManager()
            job_id = manager.submit(
                "zoo", index, DetectRequest(measure="boom-jobs-test")
            )
            snapshot = wait_terminal(manager, job_id)
            assert snapshot["state"] == "error"
            assert snapshot["error"]["type"] == "ValueError"
            assert "kernel exploded" in snapshot["error"]["message"]
        finally:
            unregister_measure("boom-jobs-test")

    def test_unknown_job_raises(self, index):
        manager = JobManager()
        with pytest.raises(UnknownJobError):
            manager.get("deadbeef")
        with pytest.raises(UnknownJobError):
            manager.cancel("deadbeef")


class TestOverflow:
    def test_submit_past_max_jobs_raises(self, index, gated_measure):
        manager = JobManager(max_jobs=2)
        for i in range(2):
            manager.submit("zoo", index, DetectRequest(
                measure="gated-jobs-test", options={"slot": i},
            ))
        with pytest.raises(JobOverflowError):
            manager.submit("zoo", index, DetectRequest(measure="lcc"))
        gated_measure["release"].set()
        manager.drain(timeout=15.0)

    def test_eviction_frees_capacity(self, index):
        clock = [0.0]
        manager = JobManager(ttl=5.0, max_jobs=1, clock=lambda: clock[0])
        job_id = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        wait_terminal(manager, job_id)
        with pytest.raises(JobOverflowError):
            manager.submit("zoo", index, DetectRequest(measure="lcc"))
        clock[0] = 10.0  # the finished job ages out of the window
        replacement = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        assert wait_terminal(manager, replacement)["state"] == "done"


class TestTTLEviction:
    def test_nonpositive_ttl_is_rejected(self):
        # ttl=0 would evict every finished job before its first poll.
        for ttl in (0, -1, -0.5):
            with pytest.raises(ValueError):
                JobManager(ttl=ttl)

    def test_poll_after_ttl_eviction_raises(self, index):
        clock = [0.0]
        manager = JobManager(ttl=10.0, clock=lambda: clock[0])
        job_id = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        wait_terminal(manager, job_id)
        clock[0] = 10.0  # exactly at the TTL: still pollable
        assert manager.get(job_id)["state"] == "done"
        clock[0] = 10.1  # past it: evicted lazily on the next access
        with pytest.raises(UnknownJobError):
            manager.get(job_id)
        assert len(manager) == 0

    def test_eviction_message_keeps_subsecond_ttl(self, index):
        clock = [0.0]
        manager = JobManager(ttl=0.05, clock=lambda: clock[0])
        job_id = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        wait_terminal(manager, job_id)
        clock[0] = 1.0
        with pytest.raises(UnknownJobError, match=r"more than 0\.05s ago"):
            manager.get(job_id)

    def test_unfinished_jobs_are_never_evicted(self, index, gated_measure):
        clock = [0.0]
        manager = JobManager(ttl=1.0, clock=lambda: clock[0])
        job_id = manager.submit(
            "zoo", index, DetectRequest(measure="gated-jobs-test")
        )
        assert gated_measure["running"].wait(10)
        clock[0] = 100.0  # far past the TTL, but the job still runs
        assert manager.get(job_id)["state"] == "running"
        gated_measure["release"].set()
        assert wait_terminal(manager, job_id)["state"] == "done"


class TestCancel:
    def test_cancel_finished_job_is_noop(self, index):
        manager = JobManager()
        job_id = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        done = wait_terminal(manager, job_id)
        assert done["state"] == "done"
        after = manager.cancel(job_id)
        assert after["state"] == "done"  # not flipped to error
        assert after["response"] == done["response"]

    def test_cancel_queued_job_reaches_error_state(
        self, index, gated_measure
    ):
        manager = JobManager()
        # Fill every dispatcher thread so the last submission queues.
        blockers = [
            manager.submit("zoo", index, DetectRequest(
                measure="gated-jobs-test",
                options={"slot": i},
            ))
            for i in range(4)
        ]
        queued = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        assert manager.get(queued)["state"] == "queued"
        cancelled = manager.cancel(queued)
        assert cancelled["state"] == "error"
        assert cancelled["error"]["type"] == "CancelledError"
        gated_measure["release"].set()
        for job_id in blockers:
            assert wait_terminal(manager, job_id)["state"] == "done"


class TestDrain:
    def test_drain_with_queued_job_returns_terminal_state(
        self, index, gated_measure
    ):
        manager = JobManager()
        blockers = [
            manager.submit("zoo", index, DetectRequest(
                measure="gated-jobs-test",
                options={"slot": i},
            ))
            for i in range(4)
        ]
        queued = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        assert manager.get(queued)["state"] == "queued"

        closer = threading.Thread(target=index.close)
        closer.start()
        # close() cancels queued futures before waiting for the
        # admitted (gated) calls to drain.
        deadline = time.monotonic() + 10
        while manager.get(queued)["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        gated_measure["release"].set()
        closer.join(15)
        assert not closer.is_alive()
        manager.drain(timeout=10.0)
        snapshot = manager.get(queued)
        assert snapshot["state"] == "error"
        assert snapshot["error"]["type"] == "CancelledError"
        # The blockers were already admitted: they finished normally.
        for job_id in blockers:
            assert manager.get(job_id)["state"] == "done"

    def test_stats_counts_states(self, index):
        manager = JobManager()
        job_id = manager.submit(
            "zoo", index, DetectRequest(measure="lcc")
        )
        wait_terminal(manager, job_id)
        stats = manager.stats()
        assert stats["tracked"] == 1
        assert stats["states"] == {"done": 1}
        assert stats["ttl_seconds"] == manager.ttl


class TestJobIdSpace:
    def test_two_workspaces_job_ids_never_collide(self):
        with Workspace() as first, Workspace() as second:
            first.attach("zoo", make_figure1_lake())
            second.attach("zoo", make_figure1_lake())
            managers = (JobManager(), JobManager())
            ids = set()
            for workspace, manager in zip((first, second), managers):
                index = workspace.get("zoo")
                for _ in range(25):
                    job_id = manager.submit(
                        "zoo", index, DetectRequest(measure="lcc")
                    )
                    assert job_id not in ids
                    ids.add(job_id)
            assert len(ids) == 50
            for manager in managers:
                manager.drain(timeout=30.0)
