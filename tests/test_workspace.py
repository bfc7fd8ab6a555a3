"""The multi-lake Workspace: membership, one shared pool, per-lake exports.

The ISSUE-5 tentpole contract, in-process: a ``Workspace`` owns named
``HomographIndex`` members that all ride **one** persistent
``ProcessBackend`` — one pool's worth of worker processes for N lakes,
one shared-memory CSR export per lake, each invalidated independently
and all released on close.  Plus the stats()-snapshot atomicity fix.
"""

import multiprocessing
import os
import threading

import pytest

from repro import (
    DataLake,
    DuplicateLakeError,
    ExecutionConfig,
    HomographIndex,
    ProcessBackend,
    Table,
    UnknownLakeError,
    Workspace,
    WorkspaceError,
)
from tests.conftest import make_figure1_lake

PERSISTENT_2 = ExecutionConfig(backend="process", n_jobs=2, persistent=True)

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="shared-memory segment files only observable on /dev/shm",
)


def make_cars_lake() -> DataLake:
    """A second small lake with a different value universe."""
    return DataLake([
        Table.from_columns("makers", {
            "maker": ["Jaguar", "Toyota", "Fiat", "Jaguar"],
            "model": ["XE", "Prius", "500", "XJ"],
        }),
        Table.from_columns("dealers", {
            "city": ["Memphis", "Austin", "Memphis"],
            "brand": ["Toyota", "Fiat", "Jaguar"],
        }),
    ])


@pytest.fixture
def two_lakes():
    """A workspace with two serial lakes attached."""
    workspace = Workspace()
    workspace.attach("zoo", make_figure1_lake())
    workspace.attach("cars", make_cars_lake())
    yield workspace
    workspace.close()


class TestMembership:
    def test_attach_get_names_default(self, two_lakes):
        assert two_lakes.names() == ("zoo", "cars")
        assert len(two_lakes) == 2
        assert "cars" in two_lakes and "nope" not in two_lakes
        assert list(two_lakes) == ["zoo", "cars"]

    def test_attach_from_directory(self, tmp_path):
        (tmp_path / "zoo.csv").write_text(
            "animal,city\nJaguar,Memphis\nJaguar,Boston\n"
        )
        with Workspace() as workspace:
            index = workspace.attach("disk", tmp_path)
            assert len(index.lake) == 1
            assert workspace.get("disk") is index

    def test_duplicate_name_rejected(self, two_lakes):
        with pytest.raises(DuplicateLakeError):
            two_lakes.attach("zoo", make_cars_lake())
        # The failed attach did not clobber the original index.
        assert len(two_lakes.get("zoo").lake) == 4

    @pytest.mark.parametrize("name", [
        "", "-lead", "has space", "slash/й", "a" * 65, 7, "дом",
        "zoo\n", "zoo\ntrailing",
    ])
    def test_invalid_names_rejected(self, name):
        with Workspace() as workspace:
            with pytest.raises(ValueError):
                workspace.attach(name, make_figure1_lake())

    def test_unknown_lake_raises(self, two_lakes):
        with pytest.raises(UnknownLakeError):
            two_lakes.get("nope")
        with pytest.raises(UnknownLakeError):
            two_lakes.detach("nope")

    def test_detach_closes_only_that_index(self, two_lakes):
        zoo = two_lakes.get("zoo")
        detached = two_lakes.detach("zoo")
        assert detached is zoo and zoo.closed
        assert two_lakes.names() == ("cars",)
        # The sibling keeps serving.
        assert two_lakes.get("cars").detect(measure="lcc").scores

    def test_closed_workspace_rejects_attach(self):
        workspace = Workspace()
        workspace.attach("zoo", make_figure1_lake())
        workspace.close()
        assert workspace.closed
        with pytest.raises(WorkspaceError):
            workspace.attach("more", make_cars_lake())
        workspace.close()  # idempotent

    def test_per_lake_prune_override(self):
        with Workspace(prune_candidates=True) as workspace:
            pruned = workspace.attach("pruned", make_figure1_lake())
            full = workspace.attach(
                "full", make_figure1_lake(), prune_candidates=False
            )
            assert pruned.prune_candidates and not full.prune_candidates
            assert full.graph.num_values > pruned.graph.num_values


class TestSharedPool:
    def test_one_backend_instance_across_indexes(self):
        with Workspace(execution=PERSISTENT_2) as workspace:
            zoo = workspace.attach("zoo", make_figure1_lake())
            cars = workspace.attach("cars", make_cars_lake())
            zoo.detect(measure="lcc")
            cars.detect(measure="lcc")
            backend = workspace.backend
            assert isinstance(backend, ProcessBackend)
            assert zoo._backend is backend
            assert cars._backend is backend

    def test_two_lakes_one_pools_worth_of_workers(self):
        # The acceptance check: N lakes must not mean N pools.
        before = len(multiprocessing.active_children())
        workspace = Workspace(execution=PERSISTENT_2)
        zoo = workspace.attach("zoo", make_figure1_lake())
        cars = workspace.attach("cars", make_cars_lake())
        zoo_scores = zoo.detect(measure="betweenness").scores
        cars_scores = cars.detect(measure="betweenness").scores
        assert zoo_scores and cars_scores
        workers = len(multiprocessing.active_children()) - before
        assert workers == PERSISTENT_2.n_jobs  # exactly one pool
        workspace.close()
        assert len(multiprocessing.active_children()) - before == 0

    def test_per_lake_exports_coexist(self):
        with Workspace(execution=PERSISTENT_2) as workspace:
            zoo = workspace.attach("zoo", make_figure1_lake())
            cars = workspace.attach("cars", make_cars_lake())
            zoo.detect(measure="lcc")
            cars.detect(measure="lcc")
            backend = workspace.backend
            zoo_names = set(backend.export_names_for(zoo.graph))
            cars_names = set(backend.export_names_for(cars.graph))
            assert len(zoo_names) == 2 and len(cars_names) == 2
            assert not zoo_names & cars_names
            assert set(backend.export_names) == zoo_names | cars_names

    def test_mutation_drops_only_own_export(self):
        with Workspace(execution=PERSISTENT_2) as workspace:
            zoo = workspace.attach("zoo", make_figure1_lake())
            cars = workspace.attach("cars", make_cars_lake())
            zoo.detect(measure="lcc")
            cars.detect(measure="lcc")
            backend = workspace.backend
            zoo_names = set(backend.export_names_for(zoo.graph))
            cars_names = set(backend.export_names_for(cars.graph))
            zoo.add_table(
                Table.from_columns("T9", {"X": ["Lion", "Lion"]})
            )
            remaining = set(backend.export_names)
            # zoo's old export is gone, cars' untouched; the delta
            # splice may have published the *new* zoo graph's export
            # while patching scores through the shared pool.
            assert not remaining & zoo_names
            assert cars_names <= remaining
            assert remaining - cars_names <= \
                set(backend.export_names_for(zoo.graph))
            # ... and the pool survived for both lakes.
            assert backend.pool_alive
            assert zoo.detect(measure="lcc").scores
            assert cars.detect(measure="lcc", ).cached

    def test_member_close_leaves_shared_backend_running(self):
        with Workspace(execution=PERSISTENT_2) as workspace:
            zoo = workspace.attach("zoo", make_figure1_lake())
            cars = workspace.attach("cars", make_cars_lake())
            zoo.detect(measure="lcc")
            cars.detect(measure="lcc")
            backend = workspace.backend
            workspace.detach("zoo")
            assert backend.pool_alive  # member close is not pool close
            assert set(backend.export_names) == \
                set(backend.export_names_for(cars.graph))
            assert cars.detect(measure="betweenness").scores

    @needs_dev_shm
    def test_close_releases_every_lakes_segments(self):
        before = set(os.listdir("/dev/shm"))
        workspace = Workspace(execution=PERSISTENT_2)
        zoo = workspace.attach("zoo", make_figure1_lake())
        cars = workspace.attach("cars", make_cars_lake())
        zoo.detect(measure="lcc")
        cars.detect(measure="lcc")
        live = set(os.listdir("/dev/shm")) - before
        assert len(live) == 4  # two lakes x (indptr, indices)
        workspace.close()
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_workspace_scores_match_standalone(self):
        standalone = HomographIndex(make_figure1_lake())
        expected = standalone.detect(measure="betweenness").scores
        with Workspace(execution=PERSISTENT_2) as workspace:
            zoo = workspace.attach("zoo", make_figure1_lake())
            got = zoo.detect(measure="betweenness").scores
        for value, score in expected.items():
            assert got[value] == pytest.approx(score, abs=1e-12)
        standalone.close()

    def test_serial_workspace_has_no_backend(self, two_lakes):
        two_lakes.get("zoo").detect(measure="lcc")
        assert two_lakes.backend is None


class TestWorkspaceStats:
    def test_stats_shape(self, two_lakes):
        two_lakes.get("zoo").detect(measure="lcc")
        stats = two_lakes.stats()
        assert set(stats) == {"lakes", "closed", "quotas", "pool"}
        assert set(stats["lakes"]) == {"zoo", "cars"}
        assert stats["closed"] is False
        assert stats["pool"] == {"configured": False}
        assert stats["lakes"]["zoo"]["cache"]["misses"] == 1

    def test_stats_reports_shared_pool(self):
        with Workspace(execution=PERSISTENT_2) as workspace:
            zoo = workspace.attach("zoo", make_figure1_lake())
            zoo.detect(measure="lcc")
            stats = workspace.stats()
            assert stats["pool"]["alive"] is True
            assert stats["pool"]["jobs"] == 2
            assert stats["pool"]["persistent"] is True
            assert stats["pool"]["segments"] == 2
            member_pool = stats["lakes"]["zoo"]["pool"]
            assert member_pool["shared"] is True
            assert member_pool["segments"] == 2


class TestStatsSnapshotAtomicity:
    def test_stats_never_tears_across_a_mutation(self):
        # Regression for the ISSUE-5 satellite: every add_table bumps
        # the generation and the table count together under one lock,
        # so any stats() snapshot must satisfy
        #   tables - base_tables == generation - base_generation.
        # A torn (unlocked) read pairs a new table count with an old
        # generation (or vice versa) and breaks the invariant.
        index = HomographIndex(make_figure1_lake())
        base_tables = len(index.lake)
        violations = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                snapshot = index.stats()
                delta_tables = snapshot["tables"] - base_tables
                if delta_tables != snapshot["generation"]:
                    violations.append(snapshot)  # pragma: no cover

        readers = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in readers:
            thread.start()
        for step in range(200):
            index.add_table(Table.from_columns(
                f"extra_{step}", {"c": ["v1", "v2"]}
            ))
        stop.set()
        for thread in readers:
            thread.join(10)
        assert not violations
        index.close()


class TestLakeQuotas:
    """The per-lake admission-quota registry riding the membership."""

    def test_attach_stores_and_detach_clears_quota(self):
        with Workspace() as workspace:
            workspace.attach("zoo", make_figure1_lake(), quota=3)
            workspace.attach("cars", make_cars_lake())
            assert workspace.quota("zoo") == 3
            assert workspace.quota("cars") is None     # no override
            assert workspace.quota("ghost") is None    # unknown: None
            workspace.detach("zoo")
            workspace.attach("zoo", make_figure1_lake())
            # A re-attached lake does not inherit the old override.
            assert workspace.quota("zoo") is None

    def test_set_quota_updates_and_clears(self):
        with Workspace() as workspace:
            workspace.attach("zoo", make_figure1_lake())
            workspace.set_quota("zoo", 2)
            assert workspace.quota("zoo") == 2
            workspace.set_quota("zoo", None)
            assert workspace.quota("zoo") is None

    def test_set_quota_rejects_unknown_lake(self):
        with Workspace() as workspace:
            with pytest.raises(UnknownLakeError):
                workspace.set_quota("ghost", 1)

    @pytest.mark.parametrize("quota", [0, -1, 1.5, "two", True])
    def test_invalid_quotas_are_rejected_up_front(self, quota):
        with Workspace() as workspace:
            with pytest.raises(ValueError):
                workspace.attach("zoo", make_figure1_lake(), quota=quota)
            # The failed attach left no membership behind.
            assert "zoo" not in workspace.names()
            workspace.attach("zoo", make_figure1_lake())
            with pytest.raises(ValueError):
                workspace.set_quota("zoo", quota)
            assert workspace.quota("zoo") is None

    def test_stats_report_explicit_overrides_only(self):
        with Workspace() as workspace:
            workspace.attach("zoo", make_figure1_lake(), quota=4)
            workspace.attach("cars", make_cars_lake())
            assert workspace.stats()["quotas"] == {"zoo": 4}
