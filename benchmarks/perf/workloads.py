"""The benchmark's workloads: what runs, why, and how inputs come from a seed.

Every input is a function of ``(workload, seed, size)`` only; the program
under test receives nothing but the generated documents.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import EnBlogueConfig
from repro.datasets.documents import Document
from repro.datasets.twitter import TweetStreamGenerator

HOUR = 3600.0
DAY = 86400.0

#: Seed used when none is given, and the second seed correctness is checked on.
DEFAULT_SEED = 43
OTHER_SEED = 7

#: Documents per ``process_batch`` call in the replay workloads.
REPLAY_CHUNK = 256

#: ``serve_steady``: documents per POST, open-loop rate, stream density.
SERVE_BATCH = 50
SERVE_RATE_DOCS_PER_S = 4000
SERVE_DOCS_PER_HOUR = 100
#: Share of the run spent in the open-loop phase; the closed-loop burst that
#: follows carries this many documents per second of total run length.
SERVE_STEADY_SHARE = 0.6
SERVE_BURST_DOCS_PER_RUN_SECOND = 3000


@dataclass(frozen=True)
class Workload:
    """One set of inputs plus the way the system is driven with them.

    Why each one exists is recorded in ``BENCHMARK.json`` and the README.
    """

    name: str
    kind: str        # "replay" or "serve"
    stream: str      # "tweets" or "zipf"
    sharded: bool


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("replay_tweets", "replay", "tweets", False),
        Workload("replay_zipf", "replay", "zipf", False),
        Workload("replay_sharded", "replay", "tweets", True),
        Workload("serve_steady", "serve", "tweets", False),
    )
}


def replay_config() -> EnBlogueConfig:
    """The hourly live configuration the replay workloads run under."""
    return EnBlogueConfig(
        window_horizon=24 * HOUR, evaluation_interval=HOUR,
        num_seeds=15, min_seed_count=1, min_pair_support=5, min_history=2,
        predictor="ewma", decay_half_life=2 * DAY, top_k=10, name="live",
    )


def tweet_documents(seed: int, hours: int, per_hour: int) -> List[Document]:
    """The synthetic hashtag stream of ``repro.datasets`` (36-tag vocabulary)."""
    corpus, _ = TweetStreamGenerator(
        hours=hours, tweets_per_hour=per_hour, seed=seed
    ).generate()
    return list(corpus)


def zipf_documents(seed: int, steps: int, per_step: int,
                   vocabulary: int) -> List[Document]:
    """A Zipf(1.0) stream over ``vocabulary`` tags, 2-4 tags per document.

    Generated here with cumulative weights and bisection: the
    ``repro.datasets`` sampler needs tens of seconds at this cardinality.
    """
    rng = random.Random(seed)
    cumulative = list(itertools.accumulate(
        1.0 / rank for rank in range(1, vocabulary + 1)
    ))
    total = cumulative[-1]
    names = [f"t{rank}" for rank in range(vocabulary)]
    documents = []
    for step in range(steps):
        for index in range(per_step):
            tags = frozenset(
                names[bisect.bisect_left(cumulative, rng.random() * total)]
                for _ in range(rng.randint(2, 4))
            )
            documents.append(Document(
                timestamp=step * HOUR + index * HOUR / per_step,
                doc_id=f"zipf-{step}-{index}",
                tags=tags,
            ))
    return documents


def replay_documents(workload: Workload, seed: int,
                     smoke: bool = False) -> List[Document]:
    """The document stream of a replay workload."""
    if workload.stream == "zipf":
        if smoke:
            return zipf_documents(seed, steps=30, per_step=20, vocabulary=5000)
        return zipf_documents(seed, steps=48, per_step=100, vocabulary=120000)
    if smoke:
        return tweet_documents(seed, hours=30, per_hour=60)
    return tweet_documents(seed, hours=72, per_hour=1000)


def serve_plan(seconds: float) -> tuple:
    """``(steady_batches, burst_batches)`` for a run of ``seconds``."""
    steady = int(seconds * SERVE_STEADY_SHARE * SERVE_RATE_DOCS_PER_S
                 / SERVE_BATCH)
    burst = int(seconds * SERVE_BURST_DOCS_PER_RUN_SECOND / SERVE_BATCH)
    return max(steady, 8), max(burst, 8)


def serve_documents(seed: int, seconds: float) -> List[Document]:
    """Exactly the documents a ``serve_steady`` run of ``seconds`` sends."""
    needed = sum(serve_plan(seconds)) * SERVE_BATCH
    hours = needed // SERVE_DOCS_PER_HOUR + 2
    documents = tweet_documents(seed, hours=hours,
                                per_hour=SERVE_DOCS_PER_HOUR)
    if len(documents) < needed:
        raise RuntimeError(
            f"generator produced {len(documents)} documents, need {needed}"
        )
    return documents[:needed]


def chunked(documents: Sequence, size: int) -> List[list]:
    """``documents`` as consecutive chunks of ``size`` (last may be short)."""
    return [list(documents[start:start + size])
            for start in range(0, len(documents), size)]


def digest(documents: Sequence[Document]) -> str:
    """A stable fingerprint of a document stream (timestamps and tags)."""
    sha = hashlib.sha256()
    for document in documents:
        sha.update(repr((document.timestamp, sorted(document.tags))).encode())
    return sha.hexdigest()
