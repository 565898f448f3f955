"""JobStore: atomic persistence, sticky terminal states, change signal."""

import json
import threading

import pytest

from repro.explore.columnar import ResultTable
from repro.explore.engine import evaluate_table
from repro.explore.scenario import demo_scenario
from repro.jobs import JobNotFound, JobStore
from repro.jobs.store import MAX_EVENTS, STATES, TERMINAL_STATES


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "jobs")


def make_job(store, **kwargs):
    scenario = demo_scenario(frequency_points=2).to_dict()
    return store.create(scenario, **kwargs)


class TestLifecycle:
    def test_create_persists_a_queued_record(self, store):
        record = make_job(store, solver="auto", shards=4)
        assert record.state == "queued"
        assert record.shards == 4
        assert store.get(record.id) is record
        on_disk = json.loads(store.path_for(record.id).read_text())
        assert on_disk["id"] == record.id
        assert on_disk["state"] == "queued"
        assert on_disk["events"][0]["state"] == "queued"

    def test_transition_walks_the_lifecycle(self, store):
        record = make_job(store)
        store.transition(record.id, "running")
        assert store.get(record.id).state == "running"
        store.transition(record.id, "done", stats={"n_candidates": 3})
        final = store.get(record.id)
        assert final.state == "done"
        assert final.terminal
        assert final.stats == {"n_candidates": 3}
        states = [e["state"] for e in final.events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]

    def test_terminal_states_are_sticky(self, store):
        record = make_job(store)
        store.transition(record.id, "running")
        store.transition(record.id, "cancelled")
        # A racing finisher cannot resurrect or overwrite the outcome.
        after = store.transition(record.id, "done")
        assert after.state == "cancelled"
        assert store.get(record.id).state == "cancelled"

    def test_unknown_state_and_job_are_rejected(self, store):
        record = make_job(store)
        with pytest.raises(ValueError):
            store.transition(record.id, "paused")
        with pytest.raises(JobNotFound):
            store.get("no-such-job")
        with pytest.raises(JobNotFound):
            store.transition("no-such-job", "running")

    def test_list_is_newest_first(self, store):
        ids = [make_job(store).id for _ in range(3)]
        listed = [record.id for record in store.list()]
        assert set(listed) == set(ids)
        created = {r.id: r.created_at for r in store.list()}
        assert listed == sorted(
            listed, key=lambda i: (created[i], i), reverse=True
        )

    def test_state_tables_cover_each_other(self):
        assert set(TERMINAL_STATES) < set(STATES)
        assert "queued" in STATES and "running" in STATES


class TestEvents:
    def test_events_carry_monotonic_seq(self, store):
        record = make_job(store)
        for shard in range(3):
            store.add_event(record.id, "shard", shard=shard + 1, of=3)
        seqs = [e["seq"] for e in store.get(record.id).events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_event_window_trims_but_seq_keeps_counting(self, store):
        record = make_job(store)
        for i in range(MAX_EVENTS + 20):
            store.add_event(record.id, "tick", i=i)
        refreshed = store.get(record.id)
        assert len(refreshed.events) == MAX_EVENTS
        # +1 for the initial queued event.
        assert refreshed.events[-1]["seq"] == MAX_EVENTS + 21
        assert refreshed.event_seq == MAX_EVENTS + 21

    def test_update_progress_merges_counters(self, store):
        record = make_job(store, progress={"shards_total": 4, "shards_done": 0})
        store.update_progress(record.id, shards_done=2, points_done=100)
        progress = store.get(record.id).progress
        assert progress == {
            "shards_total": 4,
            "shards_done": 2,
            "points_done": 100,
        }


class TestPersistence:
    def test_restart_reloads_terminal_states_exactly(self, store, tmp_path):
        done = make_job(store)
        store.transition(done.id, "running")
        store.transition(done.id, "done", cache_key="abc123")
        failed = make_job(store)
        store.transition(failed.id, "failed", error="ValueError: boom")
        queued = make_job(store)

        reborn = JobStore(tmp_path / "jobs")
        assert reborn.get(done.id).state == "done"
        assert reborn.get(done.id).cache_key == "abc123"
        assert reborn.get(failed.id).state == "failed"
        assert reborn.get(failed.id).error == "ValueError: boom"
        assert reborn.get(queued.id).state == "queued"
        assert reborn.get(done.id).event_seq == store.get(done.id).event_seq

    def test_corrupt_files_are_skipped_not_fatal(self, store, tmp_path):
        good = make_job(store)
        (tmp_path / "jobs" / "garbage.json").write_text("{not json")
        (tmp_path / "jobs" / "short.json").write_text("[]")
        reborn = JobStore(tmp_path / "jobs")
        assert reborn.get(good.id).id == good.id
        assert len(reborn.list()) == 1

    def test_result_round_trip_and_absence(self, store):
        record = make_job(store)
        assert store.read_result(record.id) is None
        table = evaluate_table(demo_scenario(frequency_points=2))
        path = store.write_result(
            record.id, {"n_records": 7, "columns": table.to_payload_columns()}
        )
        assert path.name == f"{record.id}.result.npz"
        stored = store.read_result(record.id)
        assert stored["n_records"] == 7
        rebuilt = ResultTable.from_cache_payload(stored)
        assert rebuilt.rows() == table.rows()
        for name, column in table.columns.items():
            if column.dtype == object:
                assert rebuilt.columns[name].tolist() == column.tolist()
            else:
                assert rebuilt.columns[name].tobytes() == column.tobytes()
        # Result files must not be mistaken for job records on reload.
        reborn = JobStore(store.directory)
        assert len(reborn.list()) == 1


class TestChangeNotification:
    def test_every_save_bumps_the_version(self, store):
        before = store.version
        record = make_job(store)
        assert store.version > before
        mid = store.version
        store.transition(record.id, "running")
        assert store.version > mid

    def test_wait_for_change_wakes_on_mutation(self, store):
        record = make_job(store)
        version = store.version
        results = []

        def waiter():
            results.append(store.wait_for_change(version, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        store.transition(record.id, "running")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results and results[0] > version

    def test_wait_for_change_times_out_quietly(self, store):
        version = store.version
        assert store.wait_for_change(version, timeout=0.05) == version

    def test_stats_tallies_by_state(self, store):
        a = make_job(store)
        make_job(store)
        store.transition(a.id, "running")
        stats = store.stats()
        assert stats["jobs"] == 2
        assert stats["by_state"] == {"queued": 1, "running": 1}
        assert stats["directory"].endswith("jobs")
