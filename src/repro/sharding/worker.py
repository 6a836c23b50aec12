"""The per-shard unit of the scatter-gather detection engine.

A :class:`ShardWorker` owns the pair-restricted state of one shard: a
:class:`~repro.core.tracker.CorrelationTracker` fed through its pair-event
path (so it maintains the shard's slice of the windowed pair counts, the
:class:`~repro.core.candidates.CandidateIndex` supported set and the per-pair
correlation histories), a :class:`~repro.core.shift.ShiftDetector` holding
the decayed shift scores of the shard's pairs, and a
:class:`~repro.core.ranking.RankingBuilder` that turns one evaluation's
scores into the shard's local top-k.

Because every pair lives in exactly one shard
(:class:`~repro.sharding.partitioner.PairPartitioner` is a pure function of
the canonical pair), the worker's computations are exactly the ones the
single engine would have performed for those pairs — same inputs, same
floating-point operations — which is what makes the gathered ranking
bit-identical.  Workers hold only plain-Python state (dicts, deques,
dataclasses), so they pickle cleanly into worker processes.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.core.config import EnBlogueConfig
from repro.core.engine import make_shift_detector, make_tracker
from repro.core.ranking import RankingBuilder
from repro.core.shift import ShiftScore
from repro.core.types import EmergentTopic, Pair
from repro.core.vectorized import make_fused_evaluator
from repro.persistence.snapshot import require_compatible, require_state

#: One pair-restricted document event: ``(timestamp, pairs-of-this-shard)``.
ShardEvent = Tuple[float, Tuple[Pair, ...]]


class ShardWorker:
    """Pair-restricted tracker + shift detector + local top-k for one shard."""

    def __init__(
        self,
        shard_id: int,
        config: EnBlogueConfig,
        vectorize: bool = True,
    ):
        if shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        self.shard_id = int(shard_id)
        self.config = config
        # Usage tracking is off: co-tag usage distributions are computed over
        # whole documents, which shards never see — the coordinator rejects
        # the one measure ("kl") that needs them.  The count history is a
        # tag-level statistic too, kept (when at all) by the coordinator.
        self.tracker = make_tracker(
            config, track_usage=False, track_count_history=False,
        )
        self.tracker.keep_pair_events()
        self.detector = make_shift_detector(config)
        self.builder = RankingBuilder(top_k=config.top_k)
        # Fused batched evaluation over this shard's pair slice (None →
        # scalar path); its columns — the shard's histories and scores,
        # pending rows included — pickle with the worker and reload
        # lazily after a restore.
        self._fused = make_fused_evaluator(
            self.tracker, self.detector, self.builder, enabled=vectorize
        )
        # Worker-side telemetry: stage timings and structured log
        # records accumulate here (bounded) and ride back on every reply
        # of the shard protocol, so the coordinator's /metrics and /logs
        # cover the inside of every shard, not just dispatch totals.
        self._stage_timings: List[Tuple[str, float]] = []
        self._pending_logs: List[dict] = []
        self._clock = time.perf_counter

    # -- telemetry ------------------------------------------------------------

    #: Bound on buffered telemetry between drains; drains happen at
    #: every sync point, so hitting the cap means nobody is listening
    #: (a NOOP coordinator) and old entries are dropped oldest-first.
    TELEMETRY_CAPACITY = 512

    def _record_stage(self, stage: str, seconds: float) -> None:
        timings = self._stage_timings
        timings.append((stage, seconds))
        if len(timings) > self.TELEMETRY_CAPACITY:
            del timings[: len(timings) - self.TELEMETRY_CAPACITY]

    def log_event(self, event: str, level: str = "info", **fields) -> None:
        """Queue one structured record for the coordinator's event log."""
        logs = self._pending_logs
        record = {"event": event, "level": level}
        record.update(fields)
        logs.append(record)
        if len(logs) > self.TELEMETRY_CAPACITY:
            del logs[: len(logs) - self.TELEMETRY_CAPACITY]

    def drain_telemetry(self) -> Optional[dict]:
        """Pending stage timings + log records, cleared; None when empty."""
        if not self._stage_timings and not self._pending_logs:
            return None
        telemetry = {}
        if self._stage_timings:
            telemetry["stages"] = self._stage_timings
            self._stage_timings = []
        if self._pending_logs:
            telemetry["logs"] = self._pending_logs
            self._pending_logs = []
        return telemetry

    @property
    def evaluation_path(self) -> str:
        """``"vectorized"`` when the fused batched path is live."""
        return "vectorized" if self._fused is not None else "scalar"

    # -- ingestion ------------------------------------------------------------

    def ingest(self, events: Iterable[ShardEvent]) -> int:
        """Ingest a time-ordered chunk of this shard's pair events."""
        started = self._clock()
        count = self.tracker.observe_pair_events(events)
        self._record_stage("ingest", self._clock() - started)
        return count

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        timestamp: float,
        seeds: Iterable[str],
        tag_counts: Mapping[str, int],
        total_documents: int,
    ) -> List[EmergentTopic]:
        """Score this shard's candidates and return its local top-k topics.

        ``seeds``, ``tag_counts`` and ``total_documents`` are the global
        statistics broadcast by the coordinator.  Mirrors the scoring loop
        of :meth:`repro.core.engine.EnBlogue._evaluate` exactly: sample each
        candidate's correlation, hand the predictor the values *preceding*
        the one just appended, fold the prediction error into the decayed
        maximum, then let the builder admit decayed past pairs absent from
        the current observations.  The returned list is sorted by
        :func:`~repro.core.ranking.topic_sort_key`, ready for the
        coordinator's k-way merge.
        """
        started = self._clock()
        try:
            if self._fused is not None:
                # Same boundary protocol as sample_candidates (advance +
                # evict), then one batched pass over the candidate slice.
                self.tracker.advance_to(timestamp)
                return self._fused.evaluate(
                    timestamp, seeds, tag_counts, total_documents
                )
            observations = self.tracker.sample_candidates(
                timestamp, seeds, tag_counts, total_documents
            )
            shift_scores: List[ShiftScore] = []
            for observation in observations:
                previous = \
                    self.tracker.history(observation.pair).previous_values()
                shift_scores.append(
                    self.detector.update(observation, previous)
                )
            return self.builder.top_topics(
                timestamp, shift_scores, detector=self.detector
            )
        finally:
            self._record_stage("evaluate", self._clock() - started)

    # -- persistence ----------------------------------------------------------

    #: Snapshot envelope of one shard's state (see ``repro.persistence``).
    SNAPSHOT_KIND = "shard-worker"

    def snapshot(self) -> dict:
        """This shard's complete state as a versioned, JSON-safe dict.

        Pair events included: a backend transfers it and a supervisor
        rebuilds from it (a sharded checkpoint drops them; the coordinator
        derives them).  Every entry is keyed (directly or
        transitively) by a canonical pair, which is what lets
        :func:`~repro.sharding.reshard.reshard_worker_states` re-route a
        checkpoint into a different shard count through the partitioner.
        """
        return {
            "kind": self.SNAPSHOT_KIND,
            "version": 1,
            "shard_id": self.shard_id,
            "tracker": self.tracker.snapshot(),
            "detector": self.detector.snapshot(),
            "builder": self.builder.snapshot(),
        }

    def restore(self, state: Mapping) -> None:
        """Replace this shard's state with a :meth:`snapshot`'s.

        The state must be addressed to this shard id — a re-partitioned
        checkpoint carries freshly assigned ids, so a mismatch means the
        caller wired states to the wrong workers.
        """
        require_state(state, self.SNAPSHOT_KIND, 1)
        require_compatible(
            self.SNAPSHOT_KIND, {"shard_id": self.shard_id}, state
        )
        self.tracker.restore(state["tracker"])
        self.detector.restore(state["detector"])
        self.builder.restore(state["builder"])
        # Restores happen at resume and during supervised recovery; the
        # queued record surfaces in the coordinator's /logs trail either
        # way (during a recovery it lands inside the recovery trace).
        self.log_event(
            "shard_restore", live_pairs=self.live_pairs(),
        )

    # -- introspection --------------------------------------------------------

    def live_pairs(self) -> int:
        """Distinct pairs currently inside this shard's window."""
        return len(self.tracker.candidate_index)

    def stats(self) -> dict:
        """Summary counters (for logs, benchmarks and smoke checks).

        ``latest`` is the shard tracker's clock: the coordinator's
        ``check_invariants`` compares it with the tag window's without
        taking a snapshot (which flushes, and re-bases a supervised log).
        """
        return {
            "shard_id": self.shard_id,
            "events": self.tracker.documents_seen,
            "latest": self.tracker.latest_timestamp,
            "live_pairs": self.live_pairs(),
            "scored_pairs": len(self.detector.scored_pairs()),
            "evaluation_path": self.evaluation_path,
        }
