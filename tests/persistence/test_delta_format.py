"""The journal-segment encoding, pinned by one differential.

Every cell drives an engine variant through a delta
:class:`~repro.persistence.cadence.CheckpointCadence` and, after *every*
write, compares what the directory restores to
(``read_checkpoint(dir)[1]``: base + folded journal) with the JSON round
trip of the live ``engine.snapshot()``.  The scenarios are the inputs the
encoding has to survive: many small ticks, few large ones, rings shorter
than a tick's evaluations, documents with non-ASCII and with 1,000 tags —
and every cell ends on a tick with no documents and no evaluations.

``fixtures/journal_v1`` holds two checkpoint directories written by the
parent of the commit that introduced the version-2 segments (run
:func:`write_v1_fixtures` with that commit's ``src`` on the path): the
reader must keep folding them.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.datasets.documents import Document
from repro.persistence import read_checkpoint
from repro.persistence.cadence import CheckpointCadence
from repro.sharding import ShardedEnBlogue

FIXTURES = Path(__file__).parent / "fixtures" / "journal_v1"

TAGS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def config(**overrides):
    return EnBlogueConfig(
        window_horizon=100.0,
        evaluation_interval=25.0,
        num_seeds=6,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
        history_length=6,
    ).with_overrides(**overrides)


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
    (499,500 pairs, derived on apply) that the short window soon evicts."""
    tags = ["zürich", "東京", "são paulo", "москва", "naïve", "café", "ℵ", "😀"]
    docs = stream(60, tags)
    docs[24] = Document(
        timestamp=docs[24].timestamp, doc_id="wide",
        tags=frozenset(f"tag-{index:04d}" for index in range(1000)),
    )
    return docs


#: name → (config overrides, documents, cadence ``every``).
SCENARIOS = {
    "every-1": ({}, stream(400), 1),
    "every-16": ({}, stream(700), 16),
    # 64 evaluations between two writes, rings of 4: the segment carries
    # all 64 samples of a pair and the fold keeps exactly the last 4.
    "rings-shorter-than-a-tick": ({"history_length": 4}, stream(1300), 64),
    "unusual-documents": ({"window_horizon": 30.0}, unusual_stream(), 1),
}

#: name → engine factory over a config.
VARIANTS = {
    "single-fused": EnBlogue,
    "single-scalar": lambda cfg: EnBlogue(cfg, vectorize=False),
    "serial-2": lambda cfg: ShardedEnBlogue(
        cfg, num_shards=2, backend="serial", chunk_size=7
    ),
    # K <= 1 runs without sketches (the exact engine by construction);
    # K = 3 journals raw documents and re-runs admission on apply.
    "tiered-k1": lambda cfg: EnBlogue(
        cfg.with_overrides(tracking="tiered", promote_support=1)
    ),
    "tiered-k3": lambda cfg: EnBlogue(
        cfg.with_overrides(tracking="tiered", promote_support=3)
    ),
}


def restores_to_live_snapshot(directory, engine):
    _, restored = read_checkpoint(directory)
    live = json.loads(json.dumps(engine.snapshot()))
    assert restored == live
    return restored


#: The 1,000-tag document costs seconds per cell (half a million pairs to
#: derive, snapshot and compare), so it runs where its encodings differ:
#: as a document event (single) and as pair events (sharded).
CELLS = [
    (scenario, variant)
    for scenario in sorted(SCENARIOS) for variant in sorted(VARIANTS)
    if scenario != "unusual-documents"
    or variant in ("single-fused", "serial-2")
]


@pytest.mark.parametrize("scenario,variant", CELLS)
def test_every_tick_restores_to_the_live_snapshot(scenario, variant, tmp_path):
    overrides, docs, every = SCENARIOS[scenario]
    engine = VARIANTS[variant](config(**overrides))
    cadence = CheckpointCadence(
        engine, directory=tmp_path, every=every, mode="delta", full_every=4
    )
    cadence.begin()
    restores_to_live_snapshot(tmp_path, engine)
    evaluations = 0
    for start in range(0, len(docs), 7):
        rankings = engine.process_batch(docs[start:start + 7])
        evaluations += len(rankings)
        if cadence.note_rankings(len(rankings)):
            restores_to_live_snapshot(tmp_path, engine)
    assert cadence.checkpoints_written >= 3  # base, an append, ...
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
            series["timestamps"]
            for tracker in trackers for _, _, series in tracker["histories"]
        ]
        newest = [25.0 * index for index in range(evaluations - 3,
                                                  evaluations + 1)]
        assert rings and newest in rings
        assert all(len(ring) <= 4 for ring in rings)
    if hasattr(engine, "close"):
        engine.close()


# -- version-1 segments ------------------------------------------------------

V1_CUTS = (80, 110, 140)


def drive_v1_chain(engine, directory):
    """Base at the first cut, one journal segment per further cut."""
    docs = stream(V1_CUTS[-1])
    engine.process_many(docs[:V1_CUTS[0]])
    engine.save_checkpoint(directory, track_deltas=True)
    for previous, cut in zip(V1_CUTS, V1_CUTS[1:]):
        engine.process_many(docs[previous:cut])
        engine.save_delta_checkpoint(directory)


def write_v1_fixtures():  # pragma: no cover - run once, at the parent commit
    for variant in ("single-fused", "serial-2"):
        drive_v1_chain(VARIANTS[variant](config()), FIXTURES / variant)


@pytest.mark.parametrize("variant", ["single-fused", "serial-2"])
def test_version_1_segments_still_fold(variant, tmp_path):
    fixture = FIXTURES / variant
    segment = json.loads(
        (fixture / "engine-00000003.delta").read_bytes().split(b"\n", 1)[1]
    )
    if variant == "single-fused":
        assert segment["tracker"]["version"] == 1
        assert segment["detector"]["version"] == 1
    else:
        assert segment["version"] == 2
    engine = VARIANTS[variant](config())
    drive_v1_chain(engine, tmp_path)
    restores_to_live_snapshot(fixture, engine)
