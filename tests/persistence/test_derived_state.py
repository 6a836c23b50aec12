"""A base checkpoint holds only what restore cannot derive.

Under exact tracking the windowed pair events and the candidate counts
are a pure function of the tag window: each pair event is the
decomposition of the tag-window event at the same position, and the
candidate counts are their multiset.  A version-2 base therefore leaves
both out, and restore re-derives them — the single engine from its own
tag window, the sharded coordinator by routing its tag-window events
through the current partitioner, N → M included.  Tiered tracking keeps
its pair events: tier admission cannot be derived from the window.

``fixtures/base_v1`` holds version-1 bases (a single engine, a 2-shard
one and a tiered 2-shard one) written by the parent of the commit that introduced
version 2 (run :func:`write_base_v1_fixtures` with that commit's ``src``
on the path); they must keep restoring to the state a version-2 base of
the same stream restores to.
"""

import json
import runpy
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.core.engine import EnBlogue
from repro.persistence import load_engine
from repro.sharding import ShardedEnBlogue, reshard_worker_states

from differential import (
    HOSTILE, ROWS, check_invariants, config, live_pair_state, signature,
)
from test_delta_format import stream

FIXTURES = Path(__file__).parent / "fixtures" / "base_v1"

#: The fixtures' stream: a base after ``CUT`` of ``DOCS`` documents.
DOCS, CUT = 160, 100

#: name → engine factory over a config.
VARIANTS = {
    "single": EnBlogue,
    "serial-2": ROWS["serial-2"].build,
}


#: The version-1 fixtures: the exact variants, and a tiered 2-shard base,
#: whose shards' admitted pairs version 2 keeps as they were.
V1_VARIANTS = {
    **VARIANTS,
    "tiered-2": lambda cfg: ROWS["serial-2"].build(
        cfg.with_overrides(tracking="tiered", promote_support=3,
                           sketch_width=64, sketch_depth=2)),
}


def write_base_v1_fixtures():  # pragma: no cover - run once, at the parent commit
    docs = stream(DOCS)
    for variant, make in V1_VARIANTS.items():
        engine = make(config(**HOSTILE))
        engine.process_many(docs[:CUT])
        engine.save_checkpoint(FIXTURES / variant)
        if hasattr(engine, "close"):
            engine.close()


def closing(engine):
    return engine if hasattr(engine, "close") else nullcontext(engine)


def base_files(directory):
    """Every base state file a checkpoint directory holds, decoded."""
    return {path.name: json.loads(path.read_text())
            for path in sorted(Path(directory).glob("*.json"))
            if path.name != "MANIFEST.json"}


def derived_tables(state):
    """The derived tables a base file's tracker (if it has one) carries."""
    return sorted({"pair_events", "candidates"} & set(state.get("tracker", ())))


class TestBaseFiles:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_exact_bases_carry_no_derived_table(self, variant, tmp_path):
        with closing(VARIANTS[variant](config(**HOSTILE))) as engine:
            engine.process_many(stream(DOCS))
            engine.save_checkpoint(tmp_path)
        files = base_files(tmp_path)
        assert len(files) == (1 if variant == "single" else 3)
        for name, state in files.items():
            assert derived_tables(state) == [], name
            assert "pair_events" not in state  # the coordinator's, if any

    def test_tiered_bases_keep_their_pair_events(self, tmp_path):
        tiered = config(**HOSTILE, tracking="tiered", promote_support=3)
        docs = stream(DOCS)
        with closing(EnBlogue(tiered)) as engine:
            engine.process_many(docs)
            engine.save_checkpoint(tmp_path / "single")
        state = base_files(tmp_path / "single")["engine-00000001.json"]
        assert derived_tables(state) == ["pair_events"]
        assert "tier" in state["tracker"]
        with ShardedEnBlogue(tiered, num_shards=2) as engine:
            engine.process_many(docs)
            engine.save_checkpoint(tmp_path / "sharded")
        files = base_files(tmp_path / "sharded")
        # Admission ran at the coordinator, which routed the admitted
        # pairs to the shards: the shards keep them, the tier stays above.
        coordinator = files.pop("engine-00000001.json")
        assert "tier" in coordinator and "pair_events" not in coordinator
        assert [derived_tables(state) for state in files.values()] == [
            ["pair_events"], ["pair_events"]
        ]
        assert all(state["tracker"]["pair_events"] for state in files.values())


class TestReshardedWorkers:
    @pytest.mark.parametrize("tracking", ["exact", "tiered"])
    def test_n_to_m_resume_holds_a_from_scratch_run_s_workers(
        self, tracking, tmp_path
    ):
        cfg = config(**HOSTILE, tracking=tracking, promote_support=3)
        docs = stream(DOCS)
        with ShardedEnBlogue(cfg, num_shards=2,
                             chunk_size=7) as engine:
            engine.process_many(docs[:CUT])
            engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path, num_shards=4)
        with resumed, ShardedEnBlogue(cfg, num_shards=4,
                                      chunk_size=7) as scratch:
            check_invariants(resumed)
            resumed.process_many(docs[CUT:])
            scratch.process_many(docs)
            # One more boundary advances every shard, so no shard holds
            # an event its window has passed and not yet evicted.
            resumed.evaluate_now()
            scratch.evaluate_now()
            assert signature(resumed) == signature(scratch)
            assert live_pair_state(resumed) == live_pair_state(scratch)
            # Worker by worker: the pair events, histories, scores and
            # clocks.  Exact, the events are per document, as the live run
            # routed them; a tier's admitted pairs are re-routed per old
            # shard event, so there only the (timestamp, pair) occurrences
            # agree.  The event count is the one exception: what the old
            # stream routed to a new shard is nowhere recorded, so it
            # counts from the resume.
            for mine, theirs in zip(resumed.backend.collect_states(),
                                    scratch.backend.collect_states()):
                for state in (mine, theirs):
                    tracker = state["tracker"]
                    del tracker["documents_seen"]
                    if tracking == "tiered":
                        tracker["pair_events"] = [
                            (timestamp, pair)
                            for timestamp, pairs in tracker["pair_events"]
                            for pair in pairs
                        ]
                assert mine == theirs

    @pytest.mark.parametrize("tracking", ["exact", "tiered"])
    def test_a_resharded_worker_counts_the_events_it_is_handed(
        self, tracking, tmp_path
    ):
        cfg = config(**HOSTILE, tracking=tracking, promote_support=3)
        with ShardedEnBlogue(cfg, num_shards=2) as engine:
            engine.process_many(stream(DOCS))
            engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path, num_shards=4)
        with resumed:
            events = [len(state["tracker"]["pair_events"])
                      for state in resumed.backend.collect_states()]
            assert all(events)
            assert [stats["events"] for stats in resumed.shard_stats()] \
                == events

    def test_complete_worker_states_reshard_without_their_pair_events(self):
        with ShardedEnBlogue(config(**HOSTILE), num_shards=2) as engine:
            engine.process_many(stream(DOCS))
            complete = engine.backend.collect_states()
        assert all(state["tracker"]["pair_events"] for state in complete)
        for state in reshard_worker_states(complete, 3):
            assert "pair_events" not in state["tracker"]
            assert state["tracker"]["documents_seen"] == 0


class TestVersion1Bases:
    @pytest.mark.parametrize("variant,num_shards", [
        ("single", None), ("serial-2", 2), ("serial-2", 4),
        ("tiered-2", 2), ("tiered-2", 4),
    ])
    def test_restores_like_a_version_2_base_of_the_stream(
        self, variant, num_shards, tmp_path
    ):
        docs = stream(DOCS)
        trackers = [state["tracker"]
                    for state in base_files(FIXTURES / variant).values()
                    if "tracker" in state]
        assert trackers and all(
            tracker["version"] == 1 and derived_tables({"tracker": tracker})
            == ["candidates", "pair_events"] for tracker in trackers
        )
        with closing(V1_VARIANTS[variant](config(**HOSTILE))) as engine:
            engine.process_many(docs[:CUT])
            engine.save_checkpoint(tmp_path)
        options = {} if num_shards is None else {"num_shards": num_shards}
        old, _ = load_engine(FIXTURES / variant, **options)
        new, _ = load_engine(tmp_path, **options)
        with closing(old), closing(new):
            check_invariants(old)
            assert old.snapshot() == new.snapshot()
            assert live_pair_state(old) == live_pair_state(new)
            old.process_many(docs[CUT:])
            new.process_many(docs[CUT:])
            assert signature(old) == signature(new)
            assert live_pair_state(old) == live_pair_state(new)


class TestCheckResumeScript:
    """``scripts/check_resume.py --journal DIR`` pins the base format."""

    def check_bases(self):
        script = Path(__file__).parents[2] / "scripts" / "check_resume.py"
        return runpy.run_path(str(script))["check_bases"]

    def test_passes_version_2_and_tiered_bases(self, tmp_path):
        tiered = config(**HOSTILE, tracking="tiered", promote_support=3)
        for name, engine in (("exact", EnBlogue(config(**HOSTILE))),
                             ("tiered", EnBlogue(tiered))):
            engine.process_many(stream(DOCS))
            engine.save_checkpoint(tmp_path / name)
            self.check_bases()(tmp_path / name)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_fails_a_base_holding_a_derived_table(self, variant):
        with pytest.raises(SystemExit, match="candidates, pair_events"):
            self.check_bases()(FIXTURES / variant)
