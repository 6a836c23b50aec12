"""A base spells each tag and each sample timestamp once per component.

Every component of a snapshot writes its tags into a ``tags`` table and
its sample timestamps into a ``times`` table and refers to both by
position.  The property is checked on the encoded snapshot itself, not
on a byte budget: outside a tag table a tag name may appear only as a
count-history key or in the engine's short seed list, and no table
holds an entry twice.
"""

import json

import pytest

from repro.core.engine import EnBlogue
from repro.persistence import read_checkpoint
from repro.sharding import ShardedEnBlogue

from differential import config, signature, tweet_stream

#: The fixed stream: 30 hours of the synthetic hashtag stream, whose
#: first ``CUT`` documents are snapshot.
STREAM = tweet_stream(hours=30, per_hour=60, seed=7)
CUT = 1400
DOCS = STREAM[:CUT]
VOCABULARY = {tag for document in STREAM for tag in document.tags}

#: name → engine factory.  Volatility seeds keep a count history and the
#: ``kl`` measure the co-tag usage the tracker derives on restore.
ENGINES = {
    "single": lambda: EnBlogue(config()),
    "single-volatility-kl": lambda: EnBlogue(config(
        seed_criterion="volatility", correlation_measure="kl")),
    "serial-2": lambda: ShardedEnBlogue(config(), num_shards=2),
    "serial-2-volatility": lambda: ShardedEnBlogue(
        config(seed_criterion="volatility"), num_shards=2),
}


def walk(node, path=()):
    """Every ``(path, value)`` of a decoded JSON document."""
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from walk(value, path + (index,))


def spelling_violations(state):
    """Where ``state`` spells a tag outside a table, or a table repeats
    an entry."""
    found = []
    for path, node in walk(state):
        if isinstance(node, str) and node in VOCABULARY \
                and path[-2] not in ("tags", "current_seeds"):
            found.append(f"{node!r} spelled in place at {path}")
        if path and path[-1] in ("tags", "times") \
                and len(set(node)) != len(node):
            found.append(f"{path} holds an entry twice")
    return found


def close(engine):
    if hasattr(engine, "close"):
        engine.close()


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_each_tag_and_sample_time_is_spelled_once_per_table(name):
    engine = ENGINES[name]()
    try:
        engine.process_many(DOCS)
        state = json.loads(json.dumps(engine.snapshot()))
    finally:
        close(engine)
    assert spelling_violations(state) == []
    for table in ("tags", "times"):
        assert any(node for path, node in walk(state)
                   if path and path[-1] == table)


def test_a_layout_that_spells_tags_in_place_is_caught():
    engine = EnBlogue(config())
    engine.process_many(DOCS)
    state = json.loads(json.dumps(engine.snapshot()))
    assert spelling_violations(state) == []
    window = state["tracker"]["tag_window"]
    window["events"] = [[window["tags"][position] for position in event]
                        for event in window["events"]]
    assert spelling_violations(state)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_a_restored_or_folded_state_encodes_to_the_same_bytes(name, tmp_path):
    engine, resumed, uninterrupted = (ENGINES[name]() for _ in range(3))
    try:
        engine.process_many(DOCS[:CUT // 2])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.process_many(DOCS[CUT // 2:])
        engine.save_delta_checkpoint(tmp_path)
        live = json.dumps(engine.snapshot())
        _, replayed = read_checkpoint(tmp_path)
        assert json.dumps(replayed) == live
        resumed.restore(json.loads(live))
        assert json.dumps(resumed.snapshot()) == live
        if hasattr(resumed, "tracker"):
            resumed.tracker.check_invariants()
        resumed.process_many(STREAM[CUT:])
        uninterrupted.process_many(STREAM)
        assert signature(resumed) == signature(uninterrupted)
        assert json.dumps(resumed.snapshot()) \
            == json.dumps(uninterrupted.snapshot())
    finally:
        for each in (engine, resumed, uninterrupted):
            close(each)
