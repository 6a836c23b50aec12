"""Inputs come from the seed and nothing else."""

from . import workloads
from .workloads import WORKLOADS, digest, replay_documents, serve_documents


def test_digests_are_stable_per_seed_and_differ_across_seeds():
    for name in ("replay_tweets", "replay_zipf"):
        workload = WORKLOADS[name]
        first = digest(replay_documents(workload, 43, smoke=True))
        again = digest(replay_documents(workload, 43, smoke=True))
        other = digest(replay_documents(workload, 7, smoke=True))
        assert first == again
        assert first != other


def test_sharded_replays_the_tweet_documents():
    tweets = replay_documents(WORKLOADS["replay_tweets"], 43, smoke=True)
    sharded = replay_documents(WORKLOADS["replay_sharded"], 43, smoke=True)
    assert digest(tweets) == digest(sharded)


def test_zipf_stream_is_time_ordered_with_two_to_four_draws():
    documents = workloads.zipf_documents(5, steps=3, per_step=50,
                                         vocabulary=1000)
    assert len(documents) == 150
    stamps = [document.timestamp for document in documents]
    assert stamps == sorted(stamps)
    assert all(1 <= len(document.tags) <= 4 for document in documents)
    # Zipf(1.0): the head of the vocabulary dominates.
    head = sum("t0" in document.tags for document in documents)
    assert head > 5


def test_serve_stream_has_exactly_the_planned_documents():
    steady, burst = workloads.serve_plan(0.5)
    documents = serve_documents(43, 0.5)
    assert len(documents) == (steady + burst) * workloads.SERVE_BATCH
    assert digest(documents) == digest(serve_documents(43, 0.5))
    assert digest(documents) != digest(serve_documents(7, 0.5))
