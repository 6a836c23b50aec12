"""The journal, pinned by one differential.

Every cell drives an engine variant through a delta
:class:`~repro.persistence.cadence.CheckpointCadence` and, after *every*
write, compares what the directory restores to
(``read_checkpoint(dir)[1]``: the base with the journal replayed onto it)
with the JSON round trip of the live ``engine.snapshot()``.  The
scenarios are the inputs a replay has to reproduce: many small ticks, few
large ones, rings shorter than a tick's evaluations, documents with
non-ASCII and with 1,000 tags, forced evaluations between ticks, runs
of equal timestamps cut by batches and ticks, silences longer than the
window — and every cell ends on a tick with no documents and no
evaluations.  A stream tagged by an entity tagger restores without one.

``fixtures/journal_v1`` holds two checkpoint directories whose segments
are in the per-component format older builds wrote (run
:func:`write_v1_fixtures` with such a build's ``src`` on the path): the
reader refuses them, naming the way out.
"""

import json
from pathlib import Path

import pytest

from repro.core.tracker import histories_from_state
from repro.datasets.documents import Document
from repro.entity.knowledge_base import KnowledgeBase
from repro.entity.tagger import EntityTagger
from repro.persistence import load_engine, read_checkpoint
from repro.persistence.cadence import CheckpointCadence
from repro.persistence.snapshot import SnapshotMismatchError

from differential import HOSTILE, ROWS, close, config, json_copy

FIXTURES = Path(__file__).parent / "fixtures" / "journal_v1"

TAGS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def stream(count, tags=TAGS):
    """A deterministic stream (no RNG: the fixtures must be reproducible):
    one document every 2.5 s, so one evaluation per ten documents; a
    slowly rotating tag mix plus a recurring burst of one pair, so the
    rankings are not empty."""
    docs = []
    for index in range(count):
        chosen = {
            tags[(index * step + index // 37) % len(tags)]
            for step in (1, 3, 5) if (index + step) % 4
        }
        if index % 90 >= 60:
            chosen |= {tags[0], tags[-1]}
        docs.append(Document(
            timestamp=index * 2.5, doc_id=f"doc-{index}",
            tags=frozenset(chosen),
        ))
    return docs


def unusual_stream():
    """Non-ASCII tags throughout, and one document carrying 1,000 tags
    (499,500 pairs, derived on replay) that the short window soon evicts."""
    tags = ["zürich", "東京", "são paulo", "москва", "naïve", "café", "ℵ", "😀"]
    docs = stream(60, tags)
    docs[24] = Document(
        timestamp=docs[24].timestamp, doc_id="wide",
        tags=frozenset(f"tag-{index:04d}" for index in range(1000)),
    )
    return docs


def retimed(docs, times):
    """``docs`` with their timestamps replaced, one per document."""
    return [Document(timestamp=timestamp, doc_id=doc.doc_id, tags=doc.tags)
            for doc, timestamp in zip(docs, times, strict=True)]


def tied_stream():
    """Five documents per timestamp, every fifth timestamp on the
    evaluation grid: batches of seven and the ticks cut runs of equal
    timestamps, which the replay reads as one run."""
    return retimed(stream(400), [(index // 5) * 5.0 for index in range(400)])


def gapped_stream():
    """Silences of 260 s (past the 100 s window, over ten evaluation
    boundaries) every 50 documents: a batch after one catches up on
    empty evaluations, and the window evicts everything before it."""
    times, now = [], 0.0
    for index in range(400):
        now += 260.0 if index and index % 50 == 0 else 2.5
        times.append(now)
    return retimed(stream(400), times)


#: name → (config overrides, documents, cadence ``every``, and every how
#: many batches an ``evaluate_now`` follows, or 0).
SCENARIOS = {
    "every-1": ({}, stream(400), 1, 0),
    "every-16": ({}, stream(700), 16, 0),
    # 64 evaluations between two writes, rings of 4: the replay appends
    # 64 samples to a pair's ring, which keeps exactly the last 4.
    "rings-shorter-than-a-tick": ({"history_length": 4}, stream(1300), 64, 0),
    "unusual-documents": ({"window_horizon": 30.0}, unusual_stream(), 1, 0),
    # Forced evaluations between two ticks, off the evaluation grid: the
    # segment records each one where it happened among the documents.
    "forced-evaluations": ({}, stream(400), 4, 3),
    "tied-timestamps": ({}, tied_stream(), 2, 5),
    "silent-gaps": ({}, gapped_stream(), 3, 0),
}

#: name → engine factory over a config.
VARIANTS = {
    "single-fused": ROWS["single-fused"].build,
    "single-scalar": ROWS["single-scalar"].build,
    "serial-2": ROWS["serial-2"].build,
    # A tick that routes no pair event to some of the four shards.
    "serial-4": ROWS["serial-4"].build,
    # Workers in the coordinator's address space, handed states by reference.
    "threads-2": ROWS["threads-2"].build,
    # The live profile's EWMA predictor and a ranking history bounded below
    # the evaluations of a stream.
    "single-live": lambda cfg, **kwargs: ROWS["single-fused"].build(
        cfg.with_overrides(predictor="ewma", max_ranking_history=12),
        **kwargs),
}


def restores_to_live_snapshot(directory, engine):
    _, restored = read_checkpoint(directory)
    assert restored == json_copy(engine.snapshot())
    return restored


#: The 1,000-tag document costs seconds per cell (half a million pairs to
#: derive, snapshot and compare), so it runs on one engine of each kind.
CELLS = [
    (scenario, variant)
    for scenario in sorted(SCENARIOS) for variant in sorted(VARIANTS)
    if scenario != "unusual-documents"
    or variant in ("single-fused", "serial-2")
]


@pytest.mark.parametrize("scenario,variant", CELLS)
def test_every_tick_restores_to_the_live_snapshot(scenario, variant, tmp_path):
    overrides, docs, every, force_every = SCENARIOS[scenario]
    engine = VARIANTS[variant](config(**dict(HOSTILE, **overrides)))
    cadence = CheckpointCadence(
        engine, directory=tmp_path, every=every, full_every=4
    )
    cadence.begin()
    restores_to_live_snapshot(tmp_path, engine)
    evaluations = forced = 0
    for batch, start in enumerate(range(0, len(docs), 7), 1):
        rankings = engine.process_batch(docs[start:start + 7])
        evaluations += len(rankings)
        if cadence.note_rankings(len(rankings)):
            restores_to_live_snapshot(tmp_path, engine)
        elif force_every and batch % force_every == 0:
            engine.evaluate_now()
            forced += 1
    assert cadence.checkpoints_written >= 3  # base, an append, ...
    assert forced >= 10 or not force_every
    # The closing tick journals the tail; the one after it has no
    # documents and no evaluations to journal.
    cadence.shutdown()
    restores_to_live_snapshot(tmp_path, engine)
    cadence.shutdown()
    restored = restores_to_live_snapshot(tmp_path, engine)
    if scenario == "rings-shorter-than-a-tick":
        trackers = (
            [shard["tracker"] for shard in restored["shards"]]
            if "shards" in restored else [restored["tracker"]]
        )
        rings = [
            timestamps for tracker in trackers
            for _, _, timestamps, _ in histories_from_state(tracker)
        ]
        newest = [25.0 * index for index in range(evaluations - 3,
                                                  evaluations + 1)]
        assert rings and newest in rings
        assert all(len(ring) <= 4 for ring in rings)
    close(engine)


def knowledge_base():
    kb = KnowledgeBase()
    kb.add_entity("Barack Obama", aliases=["obama"], types=["person"])
    kb.add_entity("New Orleans", types=["place"])
    kb.add_entity("Athens", types=["place"])
    return kb


def texted_stream():
    """The plain stream with text on most documents, naming an entity on
    half of them."""
    texts = ["obama spoke in New Orleans", "athens and new orleans",
             "nothing to find here", ""]
    docs = []
    for index, doc in enumerate(stream(300)):
        docs.append(Document(
            timestamp=doc.timestamp, doc_id=doc.doc_id, tags=doc.tags,
            text=texts[index % 4] if index % 90 < 60 else texts[index % 2],
        ))
    return docs


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_tagger_output_replays_without_a_tagger(variant, tmp_path):
    # The journal holds each document's tags as ingested, entities
    # included, and the reader's scratch engine has no tagger: the
    # restored state equals the live one only if the segment carried the
    # tagger's output.
    tagger = EntityTagger(knowledge_base=knowledge_base())
    calls = []
    tag = tagger.tag
    tagger.tag = lambda text: calls.append(text) or tag(text)
    engine = VARIANTS[variant](config(**HOSTILE), entity_tagger=tagger)
    cadence = CheckpointCadence(
        engine, directory=tmp_path, every=2, full_every=4
    )
    cadence.begin()
    docs = texted_stream()
    for start in range(0, len(docs), 7):
        rankings = engine.process_batch(docs[start:start + 7])
        if cadence.note_rankings(len(rankings)):
            live = len(calls)
            restores_to_live_snapshot(tmp_path, engine)
            assert len(calls) == live
    cadence.shutdown()
    live = len(calls)
    restored = restores_to_live_snapshot(tmp_path, engine)
    assert len(calls) == live > 0
    # Tags are normalised on ingestion, entity names too.
    state = json.dumps(restored, ensure_ascii=False)
    assert "barack obama" in state and "new orleans" in state
    close(engine)


# -- segments of the per-component format ------------------------------------

V1_CUTS = (80, 110, 140)


def write_v1_fixtures():  # pragma: no cover - run once, with an older build
    """Base at the first cut, one journal segment per further cut."""
    docs = stream(V1_CUTS[-1])
    for variant in ("single-fused", "serial-2"):
        engine = VARIANTS[variant](config(**HOSTILE))
        engine.process_many(docs[:V1_CUTS[0]])
        engine.save_checkpoint(FIXTURES / variant, track_deltas=True)
        for previous, cut in zip(V1_CUTS, V1_CUTS[1:]):
            engine.process_many(docs[previous:cut])
            engine.save_delta_checkpoint(FIXTURES / variant)


@pytest.mark.parametrize("variant", ["single-fused", "serial-2"])
def test_an_old_journal_is_refused_naming_a_fresh_base(variant):
    fixture = FIXTURES / variant
    segment = json.loads(
        (fixture / "engine-00000003.delta").read_bytes().split(b"\n", 1)[1]
    )
    assert segment["kind"] in ("enblogue-delta", "sharded-enblogue-delta")
    for read in (read_checkpoint, load_engine):
        with pytest.raises(SnapshotMismatchError, match="take a fresh base"):
            read(fixture)
