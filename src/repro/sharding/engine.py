"""The scatter-gather coordinator: a sharded, drop-in ``EnBlogue``.

``ShardedEnBlogue`` horizontally partitions the *pair space* of the
detection pipeline while keeping the *tag space* global:

* every distinct tag set is decomposed *and routed* exactly once (the
  same normalise/dedupe/sort rule as the single engine, via the shared
  :class:`~repro.core.tracker.DocumentDecomposer`): a pair's shard is a
  pure function of the pair, so the decomposition memo holds the
  :class:`~repro.sharding.partitioner.PairPartitioner`'s per-shard split
  of a tag set's pairs next to its ordered tags, and a recurring tag set
  costs one lookup for both;
* the ordered tag set feeds one global
  :class:`~repro.windows.aggregates.TagFrequencyWindow` — seed selection
  and the correlation denominators are whole-stream statistics.  It is the
  plain, unlocked window on every backend: the coordinator thread is its
  only writer, and shard threads read its counts only inside an
  evaluation, while the coordinator is blocked in the gather;
* a boundary-free run reaches the per-shard buffers column-wise (one
  C-level pass per shard), and the buffers are dispatched to the backend
  when ``chunk_size`` documents have accumulated or an evaluation
  boundary forces a flush;
* at each boundary the coordinator selects seeds from the global window,
  broadcasts ``(timestamp, seeds, tag counts, total documents)``, gathers
  every shard's local top-k and k-way-merges them into the published
  ranking.

Because pairs are partitioned (each one lives in exactly one shard) and the
per-pair computations are identical to the single engine's, the merged
ranking sequence is **bit-identical** to :class:`~repro.core.engine.EnBlogue`
on the same stream — the property the test-suite pins for shard counts 1, 2
and 4 on all three backends.  The shared ingestion loop itself (boundary
catch-up, document preparation, ranking bookkeeping) lives in the common
:class:`~repro.core.engine.DetectionEngineBase`, so there is no second copy
of it to drift.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.config import EnBlogueConfig
from repro.core.correlation import available_measures
from repro.core.engine import DetectionEngineBase
from repro.core.tracker import DocumentDecomposer
from repro.core.types import Ranking
from repro.core.vectorized import config_vectorizes
from repro.entity.tagger import EntityTagger
from repro.persistence.codec import optional_float
from repro.persistence.snapshot import require_state
from repro.sharding.backends import ShardBackend, make_backend
from repro.sharding.partitioner import PairPartitioner
from repro.sharding.reshard import reshard_worker_states
from repro.sharding.worker import ShardEvent, ShardWorker
from repro.windows.aggregates import TagFrequencyWindow, record_count_history


class ShardedEnBlogue(DetectionEngineBase):
    """Emergent topic detection scattered over hash-partitioned shards.

    ``backend`` is either a backend name (``"serial"``, ``"threads"`` or
    ``"process"``) or an already constructed, *unstarted*
    :class:`ShardBackend`.  The engine mirrors the public surface of
    :class:`~repro.core.engine.EnBlogue` (``process``, ``process_batch``,
    ``evaluate_now``, rankings, listeners, personalization, ``as_sink``);
    call :meth:`close` — or use the engine as a context manager — to shut
    worker threads or processes down.
    """

    def __init__(
        self,
        config: Optional[EnBlogueConfig] = None,
        num_shards: int = 4,
        backend: Union[str, ShardBackend] = "serial",
        chunk_size: int = 256,
        entity_tagger: Optional[EntityTagger] = None,
        vectorize: bool = True,
        observability=None,
    ):
        super().__init__(config, entity_tagger, observability=observability)
        if self.config.correlation_measure == "kl":
            supported = [m for m in available_measures() if m != "kl"]
            raise ValueError(
                "ShardedEnBlogue does not support correlation_measure='kl': "
                "the KL measure needs global co-tag usage distributions, "
                "which pair-partitioned shards cannot maintain. Set the "
                "config key 'correlation_measure' to one of "
                f"{supported}, or use the single-process EnBlogue "
                "engine for 'kl'."
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        self.partitioner = PairPartitioner(num_shards)
        self.num_shards = self.partitioner.num_shards
        self.chunk_size = int(chunk_size)

        if isinstance(backend, str):
            backend = make_backend(backend)
        self.backend = backend
        self._vectorize = vectorize
        self.backend.start(
            [ShardWorker(shard_id, self.config, vectorize=vectorize)
             for shard_id in range(self.num_shards)]
        )
        # Bound after start so the per-shard metric children exist; the
        # evaluation-path label mirrors runtime_info's config-derived
        # answer (asking a live shard here would add a sync point).
        self.backend.bind_observability(self.observability)
        self._bind_evaluation_metric(
            "vectorized"
            if vectorize and config_vectorizes(self.config)
            else "scalar"
        )

        # A pair's shard is a pure function of the pair, so the memoised
        # decomposition of a tag set carries its per-shard split:
        # decompose() hands back (ordered, routed).
        self._decomposer = DocumentDecomposer(
            use_entities=self.config.use_entities,
            route=self.partitioner.route,
        )
        # The window and the count history are plain, unlocked structures
        # on every backend.  This thread is their only writer; a shard
        # thread reads the window's counts only inside an evaluation, while
        # this thread is blocked in the gather (as on serial and process),
        # and a supervised backend copies the counts it logs.
        self._tag_window = TagFrequencyWindow(self.config.window_horizon)
        # The count history exists only for a seed criterion that reads
        # it (as in the single engine's tracker).
        self._track_count_history = self.seed_selector.reads_history
        self._count_history: Dict[str, deque] = {}
        self._buffers: List[List[ShardEvent]] = [
            [] for _ in range(self.num_shards)
        ]
        self._buffered_documents = 0
        self._latest: Optional[float] = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Shut the backend down (idempotent)."""
        if not self._closed:
            self._closed = True
            self.backend.close()

    def _ensure_open(self) -> None:
        # Ingesting into a closed engine would buffer documents that can
        # never reach a shard; fail at the door instead.
        if self._closed:
            raise RuntimeError("engine is closed")

    def __enter__(self) -> "ShardedEnBlogue":
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self.close()

    # -- hooks ----------------------------------------------------------------

    def _ingest_observations(self, observations: List[tuple]) -> int:
        """Decompose and route once, update the global window, fill the
        shard buffers.

        The run is order-checked and decomposed in full before any state
        is touched, so a malformed document leaves the engine unchanged.
        It is then committed in slices that end exactly where
        ``chunk_size`` buffered documents are reached — one window update
        (and one eviction) per slice — so the backend receives the same
        chunks as one call per document would have produced, and a failed
        dispatch leaves the window holding what was buffered, no more.
        A slice reaches the buffers column-wise: its routed rows are
        transposed into one column per shard, and each shard's buffer
        takes the ``(timestamp, pairs)`` events of the documents that gave
        it a pair in one C-level pass.
        """
        self._ensure_open()
        latest = self._latest
        decompose = self._decomposer.decompose
        timestamps: List[float] = []
        tag_sets: List[Tuple[str, ...]] = []
        # Per document: its pairs as one tuple per shard (see __init__).
        pair_rows: List[tuple] = []
        for timestamp, tags, entities in observations:
            if latest is not None and not timestamp >= latest:
                raise ValueError(
                    f"out-of-order document: {timestamp} < {latest}"
                )
            latest = timestamp
            ordered, pairs = decompose(tags, entities)
            timestamps.append(timestamp)
            tag_sets.append(ordered)
            pair_rows.append(pairs)
        # Commit phase: nothing below can fail on malformed input.
        total = len(timestamps)
        start = 0
        while start < total:
            # At least one document, so a chunk left full by a failed
            # dispatch is retried by the next document, as it always was.
            stop = min(total, start + max(
                1, self.chunk_size - self._buffered_documents
            ))
            times, tags = timestamps[start:stop], tag_sets[start:stop]
            self._tag_window.add_ordered_run(times, tags)  # checked above
            self._latest = times[-1]
            rows = pair_rows[start:stop]
            for buffer, column in zip(self._buffers, zip(*rows)):
                buffer.extend(compress(zip(times, column), column))
            self._buffered_documents += stop - start
            if self._buffered_documents >= self.chunk_size:
                try:
                    self._flush()
                except BaseException:
                    # The window and the buffers hold the run up to here:
                    # it is ingested, so it is counted and journaled.
                    self._note_ingested(observations[:stop], stop)
                    raise
            start = stop
        return total

    def _latest_timestamp(self) -> Optional[float]:
        return self._latest

    # -- results --------------------------------------------------------------

    def shard_stats(self) -> List[dict]:
        """Per-shard summary counters (events, live pairs, scored pairs)."""
        self._flush()
        return self.backend.stats()

    def runtime_info(self) -> dict:
        """Engine topology plus the evaluation path the shards actually run.

        Prefers asking a live shard (authoritative after restores or env
        overrides inside worker processes); falls back to deriving the
        answer from the config when the backend is closed or unreachable.
        """
        path: Optional[str] = None
        if not self._closed:
            try:
                stats = self.backend.stats()
                path = stats[0].get("evaluation_path") if stats else None
            except Exception:
                path = None
        if path is None:
            vectorized = self._vectorize and config_vectorizes(self.config)
            path = "vectorized" if vectorized else "scalar"
        return {
            "engine": "sharded",
            "backend": self.backend.name,
            "shards": self.num_shards,
            "evaluation_path": path,
        }

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless a live coordinator could hold this.

        Every buffered event is non-empty and sits in the buffer of the
        shard that owns each of its pairs; each buffer is time-ordered and
        ends at or before the coordinator's clock; fewer than
        ``chunk_size`` documents are buffered; no shard tracker's clock is
        ahead of the tag window's; then the decomposition memo's own
        invariants.  For tests, between calls — never on the stream (it
        asks every shard for its stats, a sync point).
        """
        shard_of = self.partitioner.shard_of
        for shard_id, buffer in enumerate(self._buffers):
            previous = None
            for timestamp, pairs in buffer:
                if not pairs:
                    raise AssertionError(
                        f"shard {shard_id} buffers an empty event at "
                        f"{timestamp}"
                    )
                for pair in pairs:
                    if shard_of(pair) != shard_id:
                        raise AssertionError(
                            f"{pair!r} is buffered for shard {shard_id} but "
                            f"owned by shard {shard_of(pair)}"
                        )
                if previous is not None and not timestamp >= previous:
                    raise AssertionError(
                        f"shard {shard_id}'s buffer goes back in time: "
                        f"{timestamp} after {previous}"
                    )
                previous = timestamp
            if previous is not None and not previous <= self._latest:
                raise AssertionError(
                    f"shard {shard_id}'s buffer ends at {previous}, past "
                    f"the coordinator's clock {self._latest}"
                )
        if not self._buffered_documents < self.chunk_size:
            raise AssertionError(
                f"{self._buffered_documents} documents buffered with "
                f"chunk_size {self.chunk_size}"
            )
        window_latest = self._tag_window.latest_timestamp
        for stats in self.backend.stats():
            clock = stats["latest"]
            if clock is not None and not (
                    window_latest is not None and clock <= window_latest):
                raise AssertionError(
                    f"shard {stats['shard_id']}'s tracker is at {clock}, "
                    f"ahead of the tag window's {window_latest}"
                )
        self._decomposer.check_invariants()

    def supervision_info(self) -> Optional[dict]:
        """Supervisor state when the backend is supervised, else None."""
        info = getattr(self.backend, "supervision_info", None)
        return info() if info is not None else None

    # -- persistence ----------------------------------------------------------

    #: Snapshot envelope of the sharded engine (see ``repro.persistence``).
    SNAPSHOT_KIND = "sharded-enblogue"

    def snapshot(self) -> dict:
        """Coordinator + every shard's state as a versioned, JSON-safe dict.

        Buffered chunks are flushed first, so the collected shard states
        observe every routed pair event and the snapshot is consistent as
        of the last processed document.  The per-shard states land under
        ``"shards"``; the checkpoint store writes them to one file each.
        They go without the pair events :meth:`restore` derives.
        """
        self._ensure_open()
        self._flush()
        state = {
            "kind": self.SNAPSHOT_KIND,
            "version": 2,
            **self._base_snapshot(),
            "num_shards": self.num_shards,
            "chunk_size": self.chunk_size,
            "latest": self._latest,
            "tag_window": self._tag_window.state_dict(),
            "count_history": {
                tag: list(values)
                for tag, values in self._count_history.items()
            },
            "builder": self.ranking_builder.snapshot(),
            # New dicts: a supervised backend keeps the collected states
            # as its rebuild base.
            "shards": [
                {**shard, "tracker": {
                    key: value for key, value in shard["tracker"].items()
                    if key != "pair_events"
                }}
                for shard in self.backend.collect_states()
            ],
        }
        return state

    def restore(self, state: Mapping) -> None:
        """Adopt a :meth:`snapshot`'s state; continuation is bit-identical.

        The snapshot may come from a deployment with a *different* shard
        count: the per-pair state is then re-routed through the stable
        CRC-32 partitioner (:mod:`repro.sharding.reshard`) before it is
        handed to this engine's workers, so a 2-shard checkpoint restores
        into 4 shards (or 1) without replaying the stream.  Each worker's
        pair events are derived here, as ingestion routes them.  A
        re-sharded worker counts the events it is handed.  ``chunk_size`` and the
        backend are runtime choices, free to differ from the checkpointed
        run's.
        """
        require_state(state, self.SNAPSHOT_KIND, 2)
        self._ensure_open()
        self._restore_base(state)
        self._tag_window.restore_state(state["tag_window"])
        # An engine that keeps no count history drops a restored one (a
        # checkpoint written when every engine recorded it), so its next
        # snapshot is the one an uninterrupted run would take.
        count_history = (
            state["count_history"] if self._track_count_history else {}
        )
        self._count_history = {
            str(tag): deque(
                (int(value) for value in values),
                maxlen=self.config.history_length,
            )
            for tag, values in count_history.items()
        }
        self._latest = optional_float(state["latest"])
        self.ranking_builder.restore(state["builder"])
        shard_states = state["shards"]
        resharded = len(shard_states) != self.num_shards
        if resharded:
            shard_states = reshard_worker_states(shard_states, self.num_shards)
        shard_states = [
            {**shard, "tracker": {
                **shard["tracker"], "pair_events": events,
                **({"documents_seen": len(events)} if resharded else {}),
            }}
            for shard, events in zip(shard_states, self._shard_pair_events())
        ]
        self.backend.restore_states(shard_states)
        self._buffers = [[] for _ in range(self.num_shards)]
        self._buffered_documents = 0

    # -- internals ------------------------------------------------------------

    def _sink_name(self) -> str:
        return f"sharded-enblogue[{self.config.name}]"

    def _flush(self) -> None:
        """Dispatch the buffered per-shard chunks to the backend."""
        if any(self._buffers):
            with self.observability.tracer.span("dispatch") as span:
                span.set(
                    events=sum(len(chunk) for chunk in self._buffers)
                )
                self.backend.ingest(self._buffers)
            self._buffers = [[] for _ in range(self.num_shards)]
        self._buffered_documents = 0

    def shard_health(self) -> List[dict]:
        """Per-shard health from the backend, without a sync point."""
        return self.backend.health()

    def _shard_pair_events(self) -> List[List[ShardEvent]]:
        """Each shard's pair events, derived through the current partitioner:
        the windowed documents' pairs, one event per document and shard it
        gives a pair."""
        routed = self._decomposer.rederive(self._tag_window.events)
        return [[(timestamp, columns[shard]) for timestamp, columns in routed
                 if columns[shard]] for shard in range(self.num_shards)]

    def _record_count_row(self) -> None:
        """Fold the window's current per-tag counts into the count history."""
        record_count_history(
            self._count_history, self._tag_window.snapshot(),
            self.config.history_length,
        )

    def _evaluate(self, timestamp: float) -> Ranking:
        # Mirrors EnBlogue._evaluate step for step.  Seeds are selected from
        # the window *before* it advances to the boundary (the single
        # tracker advances inside evaluate(), after selection), against the
        # count history recorded at previous boundaries.
        self._ensure_open()
        self._flush()
        tracer = self.observability.tracer
        with tracer.span("seed_select") as span:
            self._current_seeds = self.seed_selector.select(
                self._tag_window, history=self._count_history
            )
            span.set(seeds=len(self._current_seeds))
        self._tag_window.advance_to(timestamp)
        self._latest = timestamp
        if self._track_count_history:
            self._record_count_row()
        with tracer.span("shard_evaluate") as span:
            topic_lists = self.backend.evaluate(
                timestamp,
                self._current_seeds,
                self._tag_window.counts,
                self._tag_window.document_count,
            )
            span.set(shards=len(topic_lists))
        with tracer.span("merge"):
            ranking = self.ranking_builder.merge(
                timestamp, topic_lists, label=self.config.name
            )
        return self._publish(ranking)
