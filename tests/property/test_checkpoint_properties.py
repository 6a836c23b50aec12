"""Property: checkpoint → restore → continue is bit-identical, always.

For random document streams and a random interruption point, an engine
checkpointed through the on-disk store and resumed — into shard counts 1,
2 or 4, on the serial or the process backend, including the 2→4 re-shard
path — must publish exactly the ranking sequence of an uninterrupted run.
The reference is the single ``EnBlogue`` engine, whose equivalence with
the sharded engine is pinned by the sharding suites; here the checkpoint
round trip (JSON + CRC + manifest) is part of the loop on every example.

The process-backend examples run under the "fork" start method to keep
pool churn affordable; the pinned "spawn" default is covered end to end by
``tests/persistence/test_engine_checkpoint.py``.
"""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.datasets.documents import Document
from repro.persistence import load_engine
from repro.sharding import ProcessBackend, ShardedEnBlogue

from invariants import check_invariants

tag_names = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
)

#: Random streams as (positive time delta, tag set) steps; cumulative sums
#: give the non-decreasing timestamps every ingestion path requires.
document_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        st.sets(tag_names, min_size=0, max_size=4),
    ),
    min_size=2,
    max_size=50,
)


def build_docs(steps):
    docs = []
    timestamp = 0.0
    for index, (delta, tags) in enumerate(steps):
        timestamp += delta
        docs.append(Document(
            timestamp=timestamp, doc_id=f"doc-{index}", tags=frozenset(tags),
        ))
    return docs


def config():
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
    )


def signature(engine):
    return [
        (ranking.timestamp, ranking.label, ranking.topics)
        for ranking in engine.ranking_history()
    ]


def interrupted_run(docs, cut, checkpoint_shards, resume_shards, backend):
    """Checkpoint at ``cut`` through the real store, resume, continue."""
    with tempfile.TemporaryDirectory() as directory:
        with ShardedEnBlogue(config(), num_shards=checkpoint_shards,
                             backend=backend(), chunk_size=7) as engine:
            engine.process_many(docs[:cut])
            engine.save_checkpoint(directory)
        resumed, _ = load_engine(
            directory, num_shards=resume_shards, backend=backend(),
        )
        with resumed:
            # Restored (and for N != M re-sharded): a state a live engine
            # can be in, checked where it was made.
            check_invariants(resumed)
            resumed.process_many(docs[cut:])
            return signature(resumed)


def serial_backend():
    return "serial"


def forked_process_backend():
    return ProcessBackend(start_method="fork")


@settings(max_examples=25, deadline=None)
@given(steps=document_steps, data=st.data())
def test_serial_checkpoint_restore_continue_bit_identical(steps, data):
    docs = build_docs(steps)
    reference = EnBlogue(config())
    reference.process_many(docs)
    expected = signature(reference)

    cut = data.draw(st.integers(min_value=0, max_value=len(docs)), label="cut")
    shards = data.draw(st.sampled_from([1, 2, 4]), label="shards")
    assert interrupted_run(docs, cut, shards, shards,
                           serial_backend) == expected


@settings(max_examples=25, deadline=None)
@given(steps=document_steps, data=st.data())
def test_reshard_on_restore_bit_identical(steps, data):
    docs = build_docs(steps)
    reference = EnBlogue(config())
    reference.process_many(docs)
    expected = signature(reference)

    cut = data.draw(st.integers(min_value=0, max_value=len(docs)), label="cut")
    checkpoint_shards = data.draw(st.sampled_from([1, 2, 4]),
                                  label="checkpoint_shards")
    resume_shards = data.draw(st.sampled_from([1, 2, 4]),
                              label="resume_shards")
    assert interrupted_run(docs, cut, checkpoint_shards, resume_shards,
                           serial_backend) == expected


@pytest.mark.parametrize(
    "checkpoint_shards,resume_shards", [(2, 2), (2, 4), (4, 1)],
)
@settings(max_examples=5, deadline=None)
@given(steps=document_steps, data=st.data())
def test_process_backend_checkpoint_restore_bit_identical(
    checkpoint_shards, resume_shards, steps, data
):
    docs = build_docs(steps)
    reference = EnBlogue(config())
    reference.process_many(docs)
    expected = signature(reference)

    cut = data.draw(st.integers(min_value=0, max_value=len(docs)), label="cut")
    assert interrupted_run(docs, cut, checkpoint_shards, resume_shards,
                           forked_process_backend) == expected
