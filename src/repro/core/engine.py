"""The EnBlogue façade: stages (i)-(iii) wired into a streaming engine.

Documents enter in time-ordered chunks: ``EnBlogue.process_batch`` is the
one ingestion path, splitting a chunk internally at evaluation boundaries.
``process(document)`` is a chunk of one and ``process_many`` feeds a whole
corpus through it in chunks of :data:`CORPUS_CHUNK`.  A document is either
a :class:`~repro.streams.item.StreamItem` or anything exposing
``timestamp``, ``tags`` and optionally ``entities``/``text``.  Whenever
stream time crosses an evaluation boundary the engine re-selects seed
tags, samples the correlations of all candidate pairs, scores their
shifts and publishes a new top-k ranking; registered ranking listeners
and user profiles see the update immediately, without polling.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.config import EnBlogueConfig
from repro.core.correlation import make_measure
from repro.core.personalization import PersonalizationEngine, UserProfile
from repro.core.ranking import RankingBuilder
from repro.core.seeds import make_seed_selector
from repro.core.shift import ShiftDetector, ShiftScore
from repro.core.tracker import CorrelationTracker
from repro.core.types import Ranking, canonical_pair, normalize_tag
from repro.core.vectorized import make_fused_evaluator
from repro.entity.tagger import EntityTagger
from repro.observability import NOOP, Observability
from repro.persistence.codec import (
    optional_float,
    ranking_from_state,
    ranking_to_state,
)
from repro.persistence.snapshot import SnapshotMismatchError, require_state
from repro.persistence.store import append_delta, write_checkpoint
from repro.streams.operators import FunctionSink
from repro.timeseries.predictors import make_predictor
from repro.windows.decay import ExponentialDecay
from repro.windows.timeseries import TimeSeries

RankingListener = Callable[[Ranking], None]

#: Documents per ``process_batch`` call when a whole corpus is replayed.
CORPUS_CHUNK = 256


@dataclass
class _DeltaChain:
    """Where an engine's journal chain lives and how far it has grown."""

    directory: str
    base_generation: int
    newest_generation: int


def require_stream_time(timestamp: float, interval: float) -> None:
    """Reject a stream time the evaluation schedule cannot handle.

    ``inf`` can never be caught up to and ``nan`` never ordered; and where
    the float spacing reaches ``interval`` (|t| ≥ 2**64 for the hourly
    default) ``boundary + interval`` stops advancing, so the catch-up loop
    would spin forever.  Raises ``ValueError`` for all three; callers check
    before any state is touched.
    """
    if not math.isfinite(timestamp):
        raise ValueError(f"non-finite timestamp: {timestamp}")
    if not math.ulp(timestamp) < interval:
        raise ValueError(
            f"timestamp {timestamp} is out of range: the float spacing "
            f"there ({math.ulp(timestamp)}) reaches the evaluation interval "
            f"({interval}), so the evaluation schedule could not advance"
        )


def make_tracker(
    config: EnBlogueConfig,
    track_usage: Optional[bool] = None,
    track_count_history: bool = True,
) -> CorrelationTracker:
    """The correlation tracker a configuration prescribes.

    Shared by the :class:`EnBlogue` façade and the sharded engine's workers
    (which pass ``track_usage=False``: co-tag usage is a global statistic
    that cannot be maintained per shard), so both build identical stage (ii)
    state.

    ``track_count_history`` comes from the seed selector the caller built
    (``seed_selector.reads_history``): the per-tag count history exists for
    the criteria that read it and for nothing else.
    """
    if track_usage is None:
        track_usage = config.correlation_measure == "kl"
    return CorrelationTracker(
        window_horizon=config.window_horizon,
        measure=make_measure(config.correlation_measure),
        min_pair_support=config.min_pair_support,
        history_length=config.history_length,
        use_entities=config.use_entities,
        track_usage=track_usage,
        track_count_history=track_count_history,
    )


def make_shift_detector(config: EnBlogueConfig) -> ShiftDetector:
    """The stage (iii) detector a configuration prescribes (shared as above)."""
    predictor_kwargs = {}
    if config.predictor == "moving_average":
        predictor_kwargs["window"] = config.predictor_window
    return ShiftDetector(
        predictor=make_predictor(config.predictor, **predictor_kwargs),
        decay=ExponentialDecay(config.decay_half_life),
        min_history=config.min_history,
    )


class DetectionEngineBase:
    """Shared surface of the single and the sharded detection engine.

    Owns the boundary bookkeeping — the evaluation schedule, the published
    rankings with their ``max_ranking_history`` bound, listeners,
    personalization and the document-preparation rule — so both engines
    run literally the same ingestion loop; they differ only in the hooks:
    ``_ingest_observations`` (where a boundary-free run of prepared
    documents' statistics go), ``_latest_timestamp`` and ``_evaluate``.
    Keeping this in one place is part of the sharded engine's
    bit-identical guarantee: there is one catch-up loop, in
    :meth:`process_batch`, and every entry point goes through it.
    """

    def __init__(
        self,
        config: Optional[EnBlogueConfig] = None,
        entity_tagger: Optional[EntityTagger] = None,
        observability: Optional[Observability] = None,
    ):
        self.config = config or EnBlogueConfig()
        self.seed_selector = make_seed_selector(
            self.config.seed_criterion,
            num_seeds=self.config.num_seeds,
            min_count=self.config.min_seed_count,
        )
        self.ranking_builder = RankingBuilder(top_k=self.config.top_k)
        self.personalization = PersonalizationEngine()
        self.entity_tagger = entity_tagger
        # Observability is runtime wiring, never stream state: the NOOP
        # default costs one no-op call per instrumented site and zero
        # allocations per event, metrics never enter snapshot()/restore()
        # (the serving CLI persists them through manifest extras instead),
        # and rankings are bit-identical with instrumentation on or off.
        self.observability = observability or NOOP
        registry = self.observability.registry
        self._metric_documents = registry.counter(
            "repro_core_documents_total")
        self._metric_batches = registry.counter("repro_core_batches_total")
        self._metric_rankings = registry.counter("repro_core_rankings_total")
        self._metric_evaluation_seconds = None

        self._rankings: List[Ranking] = []
        self._listeners: List[RankingListener] = []
        self._current_seeds: List[str] = []
        self._next_evaluation: Optional[float] = None
        self._documents_processed = 0
        # Delta-checkpoint chain: rankings published since the last drain
        # (None = not recording) and the chain the next
        # save_delta_checkpoint appends to.
        self._delta_rankings: Optional[List[Ranking]] = None
        self._delta_chain: Optional[_DeltaChain] = None

    # -- hooks ----------------------------------------------------------------

    def _ingest_observations(self, observations: List[tuple]) -> int:
        """Feed one boundary-free run of prepared documents; returns count."""
        raise NotImplementedError

    def _latest_timestamp(self) -> Optional[float]:
        """The most recent stream time seen (None before any document)."""
        raise NotImplementedError

    def _evaluate(self, timestamp: float) -> Ranking:
        """Re-select seeds, score candidates and publish a new ranking."""
        raise NotImplementedError

    # -- observability ---------------------------------------------------------

    def _bind_evaluation_metric(self, path: str) -> None:
        """Bind the evaluation histogram child for this engine's live path.

        Called by subclasses once they know whether the scalar or the
        vectorized evaluator is active — the label is how a silent
        fallback shows up on ``GET /metrics``.
        """
        self._metric_evaluation_seconds = self.observability.registry \
            .histogram("repro_core_evaluation_seconds").labels(path=path)

    def _timed_evaluate(self, timestamp: float) -> Ranking:
        """:meth:`_evaluate` with its wall time fed to the histogram."""
        if not self.observability.enabled:
            return self._evaluate(timestamp)
        clock = self.observability.clock
        start = clock()
        ranking = self._evaluate(timestamp)
        if self._metric_evaluation_seconds is not None:
            self._metric_evaluation_seconds.observe(clock() - start)
        return ranking

    def shard_health(self) -> List[dict]:
        """Per-shard health records; empty for unsharded engines."""
        return []

    # -- ingestion ------------------------------------------------------------

    @property
    def documents_processed(self) -> int:
        return self._documents_processed

    @property
    def current_seeds(self) -> List[str]:
        """Seed tags chosen at the most recent evaluation."""
        return list(self._current_seeds)

    def process(self, document) -> Optional[Ranking]:
        """Ingest one document: :meth:`process_batch` on a chunk of one.

        Returns the newest ranking the document's arrival produced, if any.
        """
        return (self.process_batch((document,)) or [None])[-1]

    def process_many(self, documents: Iterable) -> List[Ranking]:
        """Ingest a whole corpus or stream in chunks of :data:`CORPUS_CHUNK`;
        returns every ranking produced.

        A rejected document fails its own chunk only: the chunks before it
        stay ingested, and the engine is otherwise unchanged.
        """
        produced: List[Ranking] = []
        iterator = iter(documents)
        while chunk := list(islice(iterator, CORPUS_CHUNK)):
            produced.extend(self.process_batch(chunk))
        return produced

    def process_batch(self, documents: Iterable) -> List[Ranking]:
        """Ingest a time-ordered chunk of documents in one call.

        The chunk is split internally at evaluation boundaries: documents up
        to each boundary are handed to :meth:`_ingest_observations` as one
        batch, the evaluation runs, and ingestion resumes — so the rankings
        produced do not depend on how the stream is cut into chunks, and
        listeners fired by a boundary observe the same
        ``documents_processed`` count however it was cut.

        The whole chunk is prepared and validated *before* any state is
        touched, so a rejected (out-of-order) document leaves the engine
        unchanged — no ranking is published, nothing is ingested.  Returns
        every ranking produced (one per crossed boundary).
        """
        interval = self.config.evaluation_interval
        observations, timestamps = self._prepare_batch(documents)
        produced: List[Ranking] = []
        total = len(observations)
        if total and self._next_evaluation is None:
            self._next_evaluation = timestamps[0] + interval
        # The trace id derives from documents_processed at batch start —
        # checkpointed state, so a resumed run reproduces the same ids.
        with self.observability.tracer.trace(
                self._documents_processed) as root:
            root.set(documents=total)
            start = 0
            while start < total:
                while timestamps[start] >= self._next_evaluation:
                    produced.append(
                        self._timed_evaluate(self._next_evaluation)
                    )
                    self._next_evaluation += interval
                # The run ends at the first document on or past the boundary.
                stop = bisect_left(timestamps, self._next_evaluation, start)
                self._ingest_pending(observations[start:stop])
                start = stop
            self._metric_batches.inc()
            if produced:
                root.set(rankings=len(produced))
            # Inside the root span, so the record carries the batch's
            # deterministic trace id — the /logs ↔ /trace join key.
            self.observability.log.emit(
                "batch",
                documents=total,
                rankings=len(produced),
                documents_processed=self._documents_processed,
            )
        return produced

    def _ingest_pending(self, pending: List[tuple]) -> None:
        """Feed one boundary-free run, under an ``ingest`` span."""
        with self.observability.tracer.span("ingest") as span:
            ingested = self._ingest_observations(pending)
            span.set(documents=ingested)
        self._documents_processed += ingested
        self._metric_documents.inc(ingested)

    def _prepare_batch(self, documents: Iterable) -> Tuple[list, list]:
        """Prepare a chunk (``timestamp``, ``tags``, ``entities``, the latter
        from the entity tagger when a document has text but none) and
        validate its time order against the stream; returns the observations
        and the column of their timestamps, which ``process_batch`` bisects."""
        prepared: List[tuple] = []
        timestamps: List[float] = []
        latest = self._latest_timestamp()
        tagger = self.entity_tagger
        for document in documents:
            timestamp = float(document.timestamp)
            tags = getattr(document, "tags", ()) or ()
            entities = getattr(document, "entities", ()) or ()
            if tagger is not None and not entities:
                text = str(getattr(document, "text", "") or "")
                if text:
                    entities = tagger.tag(text)
            # Negated >=, so a NaN timestamp fails the check instead of
            # passing it and then switching it off for what follows.
            if latest is not None and not timestamp >= latest:
                raise ValueError(
                    f"out-of-order document: {timestamp} < {latest}"
                )
            latest = timestamp
            timestamps.append(timestamp)
            prepared.append((timestamp, tags, entities))
        if timestamps:
            # A time-ordered chunk is a valid stream time iff both its ends
            # are: the float spacing peaks at the larger magnitude.
            interval = self.config.evaluation_interval
            require_stream_time(timestamps[0], interval)
            require_stream_time(timestamps[-1], interval)
        return prepared, timestamps

    def evaluate_now(self, timestamp: Optional[float] = None) -> Ranking:
        """Force an evaluation at ``timestamp`` (default: latest stream time)."""
        if timestamp is None:
            timestamp = self._latest_timestamp()
        if timestamp is None:
            raise ValueError("no documents processed yet")
        require_stream_time(timestamp, self.config.evaluation_interval)
        return self._timed_evaluate(timestamp)

    # -- results --------------------------------------------------------------

    def runtime_info(self) -> Dict[str, object]:
        """How this engine actually evaluates: engine kind, backend,
        shard count and whether the scalar or the vectorized path is live.

        The guard against *silent* fallback: surfaced by ``GET /status``
        and ``replay --verbose`` so a missing numpy or an unsupported
        measure is visible instead of quietly costing throughput.
        """
        raise NotImplementedError

    def current_ranking(self) -> Optional[Ranking]:
        """The most recently published ranking (None before the first one)."""
        if not self._rankings:
            return None
        return self._rankings[-1]

    def ranking_history(self) -> List[Ranking]:
        return list(self._rankings)

    def ranking_for_user(self, user_id: str,
                         top_k: Optional[int] = None) -> Optional[Ranking]:
        """The current ranking personalized for ``user_id``."""
        current = self.current_ranking()
        if current is None:
            return None
        return self.personalization.personalize(current, user_id, top_k=top_k)

    # -- integration ----------------------------------------------------------

    def register_user(self, profile: UserProfile) -> UserProfile:
        """Register a personalization profile (show case 3)."""
        return self.personalization.register(profile)

    def add_ranking_listener(self, listener: RankingListener) -> None:
        """Call ``listener`` with every new ranking (push-based updates)."""
        self._listeners.append(listener)

    def as_sink(self, name: Optional[str] = None) -> FunctionSink:
        """A stream sink feeding this engine, for use in operator DAGs: every
        chunk the DAG pushes lands in :meth:`process_batch`."""
        return FunctionSink(self.process_batch, name=name or self._sink_name())

    def _sink_name(self) -> str:
        return f"enblogue[{self.config.name}]"

    # -- persistence ----------------------------------------------------------

    def snapshot(self) -> dict:
        """The engine's complete state as a versioned, JSON-safe dict."""
        raise NotImplementedError

    def restore(self, state: Mapping) -> None:
        """Replace this engine's state with a :meth:`snapshot`'s."""
        raise NotImplementedError

    def save_checkpoint(
        self, directory, extras: Optional[Mapping] = None,
        track_deltas: bool = False,
    ) -> Path:
        """Persist :meth:`snapshot` into ``directory`` (see the store docs).

        Safe to call between any two ``process``/``process_batch`` calls —
        the snapshot then captures a boundary-consistent state that a
        restored engine continues from bit-identically.  ``extras`` lands
        in the checkpoint manifest (the CLI stores its dataset parameters
        there so ``--resume`` can rebuild the stream).

        With ``track_deltas`` the checkpoint becomes the *base* of a delta
        chain: the engine starts recording what changes, and subsequent
        :meth:`save_delta_checkpoint` calls append journal segments that
        cost kilobytes proportional to the new documents instead of
        re-serialising the whole window.  Without it, any active recording
        is stopped (the chain is re-based elsewhere or abandoned).
        """
        generation = write_checkpoint(
            directory, self.snapshot(), extras,
            observer=self.observability.store_observer("full"),
        )
        if track_deltas:
            self._begin_delta_tracking()
            self._delta_chain = _DeltaChain(
                directory=str(Path(directory).resolve()),
                base_generation=generation,
                newest_generation=generation,
            )
        else:
            self._stop_delta_tracking()
        return Path(directory)

    def save_delta_checkpoint(
        self, directory, extras: Optional[Mapping] = None,
    ) -> Path:
        """Append a journal segment of everything since the last save.

        Requires an active delta chain — a prior
        ``save_checkpoint(directory, track_deltas=True)`` into the *same*
        directory — and appends one CRC-framed segment per component at
        the chain's next generation (one durability barrier, kilobytes
        proportional to the new documents).  Restoring the directory
        replays base + journal into exactly this engine's current state;
        a crash mid-append costs at most this tick.  ``extras`` ride in
        the segment and supersede the manifest's of the same keys when
        the chain is read back.
        """
        if self._delta_chain is None:
            raise SnapshotMismatchError(
                "no delta baseline: call save_checkpoint(directory, "
                "track_deltas=True) before save_delta_checkpoint"
            )
        chain = self._delta_chain
        resolved = str(Path(directory).resolve())
        if resolved != chain.directory:
            raise SnapshotMismatchError(
                f"delta checkpoints must extend their base chain: the "
                f"baseline lives in {chain.directory}, not {resolved}"
            )
        try:
            delta = self.delta_since(chain.newest_generation + 1)
            generation = append_delta(
                directory, delta,
                expected_base=chain.base_generation,
                expected_generation=chain.newest_generation,
                observer=self.observability.store_observer("delta"),
                extras=extras,
            )
        except BaseException:
            # The drain already emptied the component buffers, so this
            # tick can never be re-journaled: a retried append would
            # commit a segment with a silent hole.  Disarm the chain —
            # the next save must re-base with a full checkpoint.
            self._stop_delta_tracking()
            raise
        chain.newest_generation = generation
        return Path(directory)

    @property
    def delta_chain_armed(self) -> bool:
        """Whether :meth:`save_delta_checkpoint` has a chain to extend."""
        return self._delta_chain is not None

    def _begin_delta_tracking(self) -> None:
        """Arm delta recording in every stateful component (hook)."""
        self._delta_rankings = []

    def _stop_delta_tracking(self) -> None:
        """Disarm delta recording and drop any buffered chain state (hook)."""
        self._delta_rankings = None
        self._delta_chain = None

    def delta_since(self, generation: int) -> dict:
        """Everything that changed since the last base/drain (hook)."""
        raise NotImplementedError

    def _base_delta(self, generation: int) -> dict:
        """The boundary-bookkeeping delta shared by both engines.

        Counters and seeds are absolute (they are tiny); rankings are the
        ones published since the last drain, appended on apply under the
        same ``max_ranking_history`` bound as :meth:`_publish`.
        """
        rankings = self._delta_rankings
        if rankings is None:
            raise SnapshotMismatchError(
                "no delta baseline: call save_checkpoint(directory, "
                "track_deltas=True) before delta_since"
            )
        self._delta_rankings = []
        return {
            "since": int(generation),
            "documents_processed": self._documents_processed,
            "current_seeds": list(self._current_seeds),
            "next_evaluation": self._next_evaluation,
            "rankings": [ranking_to_state(r) for r in rankings],
        }

    def _base_snapshot(self) -> dict:
        """The boundary bookkeeping shared by both engines."""
        return {
            "config": asdict(self.config),
            "documents_processed": self._documents_processed,
            "current_seeds": list(self._current_seeds),
            "next_evaluation": self._next_evaluation,
            "rankings": [ranking_to_state(r) for r in self._rankings],
        }

    def _restore_base(self, state: Mapping) -> None:
        """Restore the shared bookkeeping; rejects foreign configurations.

        Restoring under a different configuration would silently change
        measure/predictor semantics mid-stream, so every differing config
        field is named in the error instead.
        """
        expected = asdict(self.config)
        found = dict(state["config"])
        if found != expected:
            differing = sorted(
                key
                for key in set(expected) | set(found)
                if expected.get(key) != found.get(key)
            )
            raise SnapshotMismatchError(
                "checkpoint was taken under a different configuration; "
                f"differing fields: {', '.join(differing)}"
            )
        self._documents_processed = int(state["documents_processed"])
        self._current_seeds = [str(seed) for seed in state["current_seeds"]]
        self._next_evaluation = optional_float(state["next_evaluation"])
        self._rankings = [ranking_from_state(r) for r in state["rankings"]]
        # A restore invalidates any recorded-but-undrained delta chain.
        self._stop_delta_tracking()

    # -- shared internals ------------------------------------------------------

    def _publish(self, ranking: Ranking) -> Ranking:
        """Record a new ranking (bounded history) and notify listeners."""
        self._rankings.append(ranking)
        if self._delta_rankings is not None:
            self._delta_rankings.append(ranking)
        limit = self.config.max_ranking_history
        if limit is not None and len(self._rankings) > limit:
            del self._rankings[: len(self._rankings) - limit]
        self._metric_rankings.inc()
        if self._listeners:
            with self.observability.tracer.span("publish") as span:
                span.set(topics=len(ranking.topics))
                for listener in self._listeners:
                    listener(ranking)
        return ranking


class EnBlogue(DetectionEngineBase):
    """Emergent topic detection over a Web 2.0 document stream."""

    def __init__(
        self,
        config: Optional[EnBlogueConfig] = None,
        entity_tagger: Optional[EntityTagger] = None,
        vectorize: bool = True,
        observability: Optional[Observability] = None,
    ):
        super().__init__(config, entity_tagger, observability=observability)
        self.tracker = make_tracker(
            self.config, track_count_history=self.seed_selector.reads_history,
        )
        self.detector = make_shift_detector(self.config)
        # Fused batched evaluation (None → scalar path): built once; while
        # attached, its columns are where histories and scores are written,
        # and the tracker's/detector's dicts are materialised on read.
        self._fused = make_fused_evaluator(
            self.tracker, self.detector, self.ranking_builder,
            enabled=vectorize,
        )
        self._bind_evaluation_metric(self.evaluation_path)

    @property
    def evaluation_path(self) -> str:
        """``"vectorized"`` when the fused batched path is live."""
        return "vectorized" if self._fused is not None else "scalar"

    def runtime_info(self) -> Dict[str, object]:
        return {
            "engine": "single",
            "backend": "inline",
            "shards": 1,
            "evaluation_path": self.evaluation_path,
        }

    # -- hooks ----------------------------------------------------------------

    def _latest_timestamp(self) -> Optional[float]:
        return self.tracker.latest_timestamp

    def _ingest_observations(self, observations: List[tuple]) -> int:
        # One eviction pass and C-speed counter updates for the whole
        # boundary-free run — the engine's batch-path speedup.
        return self.tracker.observe_many(observations)

    # -- results -----------------------------------------------------------------

    def correlation_history(self, tag_a: str, tag_b: str) -> TimeSeries:
        """Correlation history of a pair (for plots such as Figure 1)."""
        return self.tracker.history(
            canonical_pair(normalize_tag(tag_a), normalize_tag(tag_b))
        )

    def topic_score(self, tag_a: str, tag_b: str,
                    timestamp: Optional[float] = None) -> float:
        """Current decayed score of a pair."""
        if timestamp is None:
            timestamp = self.tracker.latest_timestamp or 0.0
        return self.detector.score_at(
            canonical_pair(normalize_tag(tag_a), normalize_tag(tag_b)),
            timestamp,
        )

    # -- persistence ---------------------------------------------------------------

    #: Snapshot envelope of the single engine (see ``repro.persistence``).
    SNAPSHOT_KIND = "enblogue"

    def snapshot(self) -> dict:
        """The engine's complete state as a versioned, JSON-safe dict.

        Listeners and user profiles are runtime wiring, not stream state —
        a restored engine starts with none and callers re-register them.
        """
        return {
            "kind": self.SNAPSHOT_KIND,
            "version": 1,
            **self._base_snapshot(),
            "tracker": self.tracker.snapshot(),
            "detector": self.detector.snapshot(),
            "builder": self.ranking_builder.snapshot(),
        }

    def restore(self, state: Mapping) -> None:
        """Adopt a :meth:`snapshot`'s state; continuation is bit-identical.

        The engine must be constructed with the configuration the snapshot
        was taken under (:func:`~repro.persistence.resume.load_engine`
        rebuilds it from the checkpoint manifest automatically).
        """
        require_state(state, self.SNAPSHOT_KIND, 1)
        self._restore_base(state)
        self.tracker.restore(state["tracker"])
        self.detector.restore(state["detector"])
        self.ranking_builder.restore(state["builder"])

    def _begin_delta_tracking(self) -> None:
        super()._begin_delta_tracking()
        self.tracker.begin_delta_tracking()
        self.detector.begin_delta_tracking()
        self.ranking_builder.begin_delta_tracking()

    def _stop_delta_tracking(self) -> None:
        super()._stop_delta_tracking()
        self.tracker.end_delta_tracking()
        self.detector.end_delta_tracking()
        self.ranking_builder.end_delta_tracking()

    def delta_since(self, generation: int) -> dict:
        """Everything that changed since the last base snapshot/drain.

        The journal-segment companion of :meth:`snapshot`:
        :func:`repro.persistence.delta.apply_engine_delta` folds the
        result onto the base snapshot dict and reproduces the current
        :meth:`snapshot` exactly, which is what keeps a base + journal
        restore bit-identical to an uninterrupted run.
        """
        return {
            "kind": "enblogue-delta",
            "version": 1,
            **self._base_delta(generation),
            "tracker": self.tracker.delta_since(generation),
            "detector": self.detector.delta_since(generation),
            "builder": self.ranking_builder.delta_since(generation),
        }

    # -- internals -----------------------------------------------------------------------

    def _evaluate(self, timestamp: float) -> Ranking:
        tracer = self.observability.tracer
        window = self.tracker.tag_window
        with tracer.span("seed_select") as span:
            self._current_seeds = self.seed_selector.select(
                window, history=self.tracker.count_history_map
            )
            span.set(seeds=len(self._current_seeds))
        if self._fused is not None:
            # Same boundary protocol as tracker.evaluate (advance + count
            # row), then one batched pass replaces the whole per-pair
            # sample/predict/score/rank loop — bit-identically.
            with tracer.span("evaluate_vectorized") as span:
                self.tracker.advance_to(timestamp)
                self.tracker.record_count_history_row()
                topics = self._fused.evaluate(
                    timestamp, self._current_seeds,
                    window.counts, window.document_count,
                )
                span.set(topics=len(topics))
            ranking = Ranking(
                timestamp=timestamp, topics=topics, label=self.config.name
            )
            return self._publish(ranking)
        with tracer.span("candidates") as span:
            observations = self.tracker.evaluate(
                timestamp, self._current_seeds
            )
            span.set(pairs=len(observations))
        with tracer.span("score"):
            shift_scores: List[ShiftScore] = []
            for observation in observations:
                # The tracker already appended the current value; the
                # predictor must only see the values that precede it.
                previous = self.tracker.history(
                    observation.pair).previous_values()
                shift_scores.append(
                    self.detector.update(observation, previous)
                )
        with tracer.span("rank"):
            ranking = self.ranking_builder.build(
                timestamp, shift_scores, detector=self.detector,
                label=self.config.name,
            )
        return self._publish(ranking)
