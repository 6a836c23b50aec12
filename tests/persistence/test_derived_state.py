"""A base checkpoint holds only what restore cannot derive.

The windowed pair events and the candidate counts are a pure function
of the tag window: each pair event is the
decomposition of the tag-window event at the same position, and the
candidate counts are their multiset.  A base since version 2 therefore
leaves both out, and restore re-derives them — the single engine from
its own tag window, the sharded coordinator by routing its tag-window
events through the current partitioner, N → M included.

``fixtures/base_v1`` holds version-1 bases (a single engine and a 2-shard
one) written by the parent of the commit that introduced version 2 (run
:func:`write_base_v1_fixtures` with that commit's ``src`` on the path);
they must keep restoring to the state a current base of the same stream
restores to.  So must the version-2 bases of ``fixtures/base_v2``, which
spell every tag and sample timestamp in place (written the same way by
:func:`write_base_v2_fixtures`).  The version-1 configurations still
carry the fields of the sketch tier, since removed: a configuration that
describes exact tracking loses them on read, any other is refused.
"""

import json
import runpy
import shutil
import zlib
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.core.engine import EnBlogue
from repro.persistence import (
    SnapshotMismatchError, load_engine, read_checkpoint,
)
from repro.sharding import ShardedEnBlogue, reshard_worker_states

from differential import (
    HOSTILE, ROWS, check_invariants, config, json_copy, live_pair_state,
    signature,
)
from test_delta_format import stream

FIXTURES = Path(__file__).parent / "fixtures" / "base_v1"

#: Version-2 bases (tags and sample times spelled in place), written by
#: the parent of the commit that gave every component its tag and time
#: tables (run :func:`write_base_v2_fixtures` with that commit's ``src``).
FIXTURES_V2 = FIXTURES.parent / "base_v2"

#: The fixtures' stream: a base after ``CUT`` of ``DOCS`` documents.
DOCS, CUT = 160, 100

#: name → engine factory over a config.
VARIANTS = {
    "single": EnBlogue,
    "serial-2": ROWS["serial-2"].build,
}


def write_bases(directory):  # pragma: no cover - run once per fixture
    docs = stream(DOCS)
    for variant, make in VARIANTS.items():
        engine = make(config(**HOSTILE))
        engine.process_many(docs[:CUT])
        engine.save_checkpoint(directory / variant)
        if hasattr(engine, "close"):
            engine.close()


def write_base_v1_fixtures():  # pragma: no cover - run once, at the parent commit
    write_bases(FIXTURES)


def write_base_v2_fixtures():  # pragma: no cover - run once, at the parent commit
    write_bases(FIXTURES_V2)


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


#: ``(checkpointed, resumed)`` shard counts: split, merge, a count that
#: divides neither way, and into one.
RESHARDS = [(2, 4), (4, 2), (2, 3), (3, 1)]


class TestReshardedWorkers:
    @pytest.mark.parametrize("before,after", RESHARDS)
    def test_n_to_m_resume_holds_a_from_scratch_run_s_workers(
        self, before, after, tmp_path
    ):
        cfg = config(**HOSTILE)
        docs = stream(DOCS)
        with ShardedEnBlogue(cfg, num_shards=before,
                             chunk_size=7) as engine:
            engine.process_many(docs[:CUT])
            engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path, num_shards=after)
        with resumed, ShardedEnBlogue(cfg, num_shards=after,
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
            # Worker by worker: the pair events (per document, as the live
            # run routed them), histories, scores and clocks.  The event
            # count is the one exception: what the old stream routed to a
            # new shard is nowhere recorded, so it counts from the resume.
            for mine, theirs in zip(resumed.backend.collect_states(),
                                    scratch.backend.collect_states()):
                for state in (mine, theirs):
                    del state["tracker"]["documents_seen"]
                assert mine == theirs

    @pytest.mark.parametrize("before,after", RESHARDS)
    def test_a_resharded_worker_counts_the_events_it_is_handed(
        self, before, after, tmp_path
    ):
        with ShardedEnBlogue(config(**HOSTILE), num_shards=before) as engine:
            engine.process_many(stream(DOCS))
            engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path, num_shards=after)
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


def restores_like_a_current_base(directory, variant, num_shards, tmp_path):
    """The base in ``directory`` restores to the state a current base of
    the same stream restores to, and both continue bit-identically."""
    docs = stream(DOCS)
    with closing(VARIANTS[variant](config(**HOSTILE))) as engine:
        engine.process_many(docs[:CUT])
        engine.save_checkpoint(tmp_path)
    options = {} if num_shards is None else {"num_shards": num_shards}
    old, _ = load_engine(directory, **options)
    new, _ = load_engine(tmp_path, **options)
    with closing(old), closing(new):
        check_invariants(old)
        assert old.snapshot() == new.snapshot()
        assert live_pair_state(old) == live_pair_state(new)
        old.process_many(docs[CUT:])
        new.process_many(docs[CUT:])
        assert signature(old) == signature(new)
        assert live_pair_state(old) == live_pair_state(new)
        assert old.snapshot() == new.snapshot()


def fixture_trackers(directory):
    return [state["tracker"] for state in base_files(directory).values()
            if "tracker" in state]


class TestVersion1Bases:
    @pytest.mark.parametrize("variant,num_shards", [
        ("single", None), ("serial-2", 1), ("serial-2", 2), ("serial-2", 3),
        ("serial-2", 4),
    ])
    def test_restores_like_a_version_2_base_of_the_stream(
        self, variant, num_shards, tmp_path
    ):
        trackers = fixture_trackers(FIXTURES / variant)
        assert trackers and all(
            tracker["version"] == 1 and derived_tables({"tracker": tracker})
            == ["candidates", "pair_events"] for tracker in trackers
        )
        restores_like_a_current_base(
            FIXTURES / variant, variant, num_shards, tmp_path
        )


class TestVersion2Bases:
    """Bases that spell every tag and sample timestamp in place restore
    through ``upgrade_engine_state``, re-sharded too."""

    @pytest.mark.parametrize("variant,num_shards", [
        ("single", None), ("serial-2", 1), ("serial-2", 3),
    ])
    def test_restores_like_a_current_base_of_the_stream(
        self, variant, num_shards, tmp_path
    ):
        trackers = fixture_trackers(FIXTURES_V2 / variant)
        assert trackers and all(
            tracker["version"] == 2 and "tags" not in tracker
            and tracker["tag_window"]["version"] == 1
            for tracker in trackers
        )
        restores_like_a_current_base(
            FIXTURES_V2 / variant, variant, num_shards, tmp_path
        )


#: Checkpoints whose configuration may carry the sketch tier's fields: the
#: committed older bases, as written, and a base of each shape
#: written now (``version-2/``, the first base without derived tables) with
#: the fields put back (as written before the tier went).
TIER_FIELD_SOURCES = [
    "base_v1/single", "base_v1/serial-2", "base_v2/single", "base_v2/serial-2",
    "version-2/single", "version-2/serial-2",
]

#: ``(tracking, promote_support)`` → whether that configuration built a
#: tier: only ``"tiered"`` at a threshold of 2 or more did.
TIER_SETTINGS = [
    ("exact", 3, False), ("tiered", 0, False), ("tiered", 1, False),
    ("tiered", 2, True), ("tiered", 3, True),
]

TIER_FIELDS = {"tracking", "promote_support", "sketch_width", "sketch_depth"}


def write_config_fields(directory, **fields):
    """Set ``fields`` in the configuration of a checkpoint's manifest and
    engine base, keeping the manifest's checksum right."""
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    entry = manifest["files"]["engine"]
    state = json.loads((directory / entry["path"]).read_text())
    for config_dict in (state["config"], manifest["config"]):
        config_dict.update(fields)
    payload = json.dumps(state).encode("utf-8")
    (directory / entry["path"]).write_bytes(payload)
    entry["crc32"] = zlib.crc32(payload)
    (directory / "MANIFEST.json").write_text(json.dumps(manifest))


def tier_field_source(source, directory):
    """Write the checkpoint ``source`` names into ``directory``."""
    kind, variant = source.split("/")
    if kind != "version-2":
        shutil.copytree(FIXTURES.parent / source, directory)
        return
    with closing(VARIANTS[variant](config(**HOSTILE))) as engine:
        engine.process_many(stream(DOCS)[:CUT])
        engine.save_checkpoint(directory)
    write_config_fields(directory, tracking="exact", promote_support=0,
                        sketch_width=8192, sketch_depth=4)


class TestSketchTierFields:
    @pytest.mark.parametrize("tracking,promote_support,tiered", TIER_SETTINGS)
    @pytest.mark.parametrize("source", TIER_FIELD_SOURCES)
    def test_a_tiered_configuration_restores_only_without_a_tier(
        self, source, tracking, promote_support, tiered, tmp_path
    ):
        """A configuration that never built a tier loses the fields and
        restores as the checkpoint did; any other is refused, naming the
        tier."""
        original, changed = tmp_path / "original", tmp_path / "changed"
        tier_field_source(source, original)
        _, expected = read_checkpoint(original)
        assert TIER_FIELDS.isdisjoint(expected["config"])
        shutil.copytree(original, changed)
        write_config_fields(changed, tracking=tracking,
                            promote_support=promote_support)
        if tiered:
            for read in (read_checkpoint, load_engine):
                with pytest.raises(SnapshotMismatchError,
                                   match="sketch tier"):
                    read(changed)
            return
        _, state = read_checkpoint(changed)
        assert state == expected
        restored, _ = load_engine(changed)
        with closing(restored):
            check_invariants(restored)
            assert json_copy(restored.snapshot()) == expected


class TestCheckResumeScript:
    """``scripts/check_resume.py --journal DIR`` pins the base format and
    the journal's."""

    def check_bases(self):
        return self.script()["check_bases"]

    def script(self):
        path = Path(__file__).parents[2] / "scripts" / "check_resume.py"
        return runpy.run_path(str(path))

    def write_journal(self, directory):
        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(stream(DOCS)[:CUT])
        engine.save_checkpoint(directory, track_deltas=True)
        engine.process_many(stream(DOCS)[CUT:])
        engine.save_delta_checkpoint(directory)
        return directory / "engine-00000002.delta"

    def test_passes_a_command_log(self, tmp_path):
        self.write_journal(tmp_path)
        self.script()["check_segments"](tmp_path)

    def test_fails_a_segment_of_another_kind(self, tmp_path):
        segment = self.write_journal(tmp_path)
        header, body = segment.read_bytes().split(b"\n", 1)
        state = dict(json.loads(body), kind="enblogue-delta")
        segment.write_bytes(header + b"\n" + json.dumps(state).encode())
        with pytest.raises(SystemExit, match="'enblogue-delta' segment"):
            self.script()["check_segments"](tmp_path)

    def test_fails_a_shard_segment(self, tmp_path):
        segment = self.write_journal(tmp_path)
        shutil.copy(segment, tmp_path / "shard-0000-00000002.delta")
        with pytest.raises(SystemExit, match="shard's segment"):
            self.script()["check_segments"](tmp_path)

    def test_fails_a_directory_without_segments(self, tmp_path):
        with pytest.raises(SystemExit, match="no journal segments"):
            self.script()["check_segments"](tmp_path)

    def test_passes_version_2_bases(self, tmp_path):
        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(stream(DOCS))
        engine.save_checkpoint(tmp_path)
        self.check_bases()(tmp_path)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_fails_a_base_holding_a_derived_table(self, variant):
        with pytest.raises(SystemExit, match="candidates, pair_events"):
            self.check_bases()(FIXTURES / variant)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_fails_a_base_spelling_tags_in_place(self, variant):
        with pytest.raises(SystemExit,
                           match="spells tag names in place"):
            self.check_bases()(FIXTURES_V2 / variant)
