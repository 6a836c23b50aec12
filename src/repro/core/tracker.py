"""Stage (ii): correlation tracking over candidate tag pairs.

The tracker ingests the tagged document stream and maintains, within the
configured sliding window,

* per-tag document counts (feeding seed selection and the measures),
* per-pair co-occurrence counts and the set of the supported pairs
  (:class:`~repro.core.candidates.CandidateIndex`), so candidate
  generation is a seed test over that set rather than a full scan,
* per-tag co-tag usage distributions (for the information-theoretic
  measure), and
* per-pair correlation histories sampled at every evaluation.

Candidate topics are the pairs that co-occurred inside the window and
contain at least one seed tag; only their correlations are computed, which
is the pruning argument of stage (i).

Tags and entities are normalised (stripped, lower-cased) here, at the
single choke point every ingestion path goes through, so direct tracker
callers and the :class:`~repro.core.engine.EnBlogue` façade agree on tag
identity.  ``observe_many`` ingests a chunk of documents with one eviction
pass and C-speed counter updates; it is the backbone of the engine's batch
path.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, zip_longest
from operator import ge, itemgetter
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, Iterable, List, Mapping, Optional,
    Tuple,
)

from repro.core.candidates import CandidateIndex
from repro.core.correlation import CorrelationMeasure, JaccardCorrelation, PairCounts
from repro.core.types import Pair, canonical_pair, normalize_tags
from repro.persistence.codec import index_table, intern_rows
from repro.persistence.snapshot import require_compatible, require_state
from repro.windows.aggregates import TagFrequencyWindow, record_count_history
from repro.windows.timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core import vectorized as _vectorized

#: One prepared document: ``(timestamp, tags, entities)``.
Observation = Tuple[float, Iterable[str], Iterable[str]]

#: Bound on the tag-set decomposition memo; real streams draw from a small
#: vocabulary so the memo stays tiny, but an adversarial stream must not be
#: able to grow it without limit.
_DECOMPOSE_CACHE_LIMIT = 65536

#: How many of the oldest memo entries a full cache evicts at once, and
#: the bound of the probation dict a tag set waits in between its first
#: and its second sighting (cleared whole when full).  An eighth keeps
#: the amortized eviction cost per insert negligible while retaining 7/8
#: of the memo, so a vocabulary churn spike does not cold-start
#: decomposition for the whole stream; evicted-but-hot tag sets re-enter
#: on their next two occurrences at the cost of one recomputation.
_DECOMPOSE_EVICT_BATCH = _DECOMPOSE_CACHE_LIMIT // 8

#: Widest tag set the memo admits.  An entry holds O(width²) pairs, so
#: the entry bound alone is no byte bound: 16 tags are 120 pairs, a
#: 1,000-tag document is 499,500.  Wider sets are decomposed afresh each
#: time.  The bound is for memory safety; its value is headroom, not a
#: measured optimum: no dataset in the repo has a document wider than 6
#: effective tags, so whether wide sets recur is unverified.
_DECOMPOSE_CACHE_WIDTH = 16


@dataclass(frozen=True)
class PairObservation:
    """The correlation of one candidate pair (a plain canonical pair) at
    one evaluation time."""

    pair: Pair
    timestamp: float
    correlation: float
    counts: PairCounts
    seed_tag: str

    def __post_init__(self) -> None:
        if self.correlation < 0:
            raise ValueError("correlations are non-negative")


class DocumentDecomposer:
    """Normalise a document's tag/entity sets into (ordered tags, pairs).

    The one decomposition rule of the system, shared by the tracker and by
    the sharded coordinator (which must decompose each document exactly once
    before routing its pairs to shard workers).  The pairs are the plain
    canonical tuples ``combinations`` yields over the sorted tags.

    Results are memoised when the tags are a frozenset and the entities
    empty or a frozenset (the shape every dataset and stream item
    produces), since the same tag combinations recur constantly within a
    stream.  The key is the tag set itself when there are no entities, and
    ``(tags, entities)`` otherwise.  A set is admitted on its second
    sighting: the first parks its result in a probation dict of at most
    ``_DECOMPOSE_EVICT_BATCH`` entries (cleared whole when full), and a
    probation hit promotes the entry into the memo, so the one-off sets of
    a long stream never pile up in it.  The memo is bounded in entries
    (``_DECOMPOSE_CACHE_LIMIT``, oldest batch evicted first) and in the
    width of a tag set it admits (``_DECOMPOSE_CACHE_WIDTH``).

    ``route``, when given, is applied to the pair tuple once per
    decomposition — on a miss of both dicts, never on a hit — and its
    result is what :meth:`decompose` hands back in the pairs' place.  The
    sharded coordinator passes its partitioner's ``route``, so a recurring
    tag set costs one lookup for its decomposition *and* its per-shard
    split.
    """

    def __init__(
        self,
        use_entities: bool = True,
        route: Optional[Callable[[Tuple[Pair, ...]], tuple]] = None,
    ):
        self.use_entities = bool(use_entities)
        self._route = route
        # Keyed by the tag frozenset, or by (tags, entities) when a
        # document has entities.
        self._cache: Dict[object, Tuple[Tuple[str, ...], tuple]] = {}
        self._probation: Dict[object, Tuple[Tuple[str, ...], tuple]] = {}

    def decompose(
        self, tags: Iterable[str], entities: Iterable[str] = ()
    ) -> Tuple[Tuple[str, ...], tuple]:
        key: object = None
        if type(tags) is frozenset:
            if not entities:
                key = tags
            elif type(entities) is frozenset:
                key = (tags, entities)
            if key is not None:
                cached = self._cache.get(key)
                if cached is not None:
                    return cached
                cached = self._probation.pop(key, None)
                if cached is not None:
                    cache = self._cache
                    if len(cache) >= _DECOMPOSE_CACHE_LIMIT:
                        # FIFO partial eviction: drop the oldest batch
                        # instead of clearing the memo wholesale.  dict
                        # iteration order is insertion order, so the
                        # victims are the stalest entries.
                        for stale in list(islice(cache, _DECOMPOSE_EVICT_BATCH)):
                            del cache[stale]
                    cache[key] = cached
                    return cached
        effective = normalize_tags(tags)
        if entities and self.use_entities:
            effective |= normalize_tags(entities)
        effective.discard("")
        ordered = tuple(sorted(effective))
        pairs = tuple(combinations(ordered, 2))
        if self._route is not None:
            pairs = self._route(pairs)
        result = (ordered, pairs)
        if key is not None and len(ordered) <= _DECOMPOSE_CACHE_WIDTH:
            probation = self._probation
            if len(probation) >= _DECOMPOSE_EVICT_BATCH:
                probation.clear()
            probation[key] = result
        return result

    def rederive(
        self, events: Iterable[Tuple[float, Iterable[str]]]
    ) -> List[Tuple[float, tuple]]:
        """``(timestamp, pairs)`` for each ``(timestamp, ordered tags)``
        tag-window event: what ingesting its document produced, through
        the memo (which this warms for the stream that follows)."""
        decompose = self.decompose
        return [(timestamp, decompose(frozenset(tags))[1])
                for timestamp, tags in events]

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless the memo and probation are
        within their bounds, share no key, and every entry of either is
        what a fresh decomposition would produce: the pairs of its ordered
        tags, or — routed — tuples that concatenate to a permutation of
        them.  For tests, never on the stream.
        """
        for name, entries, limit in (
                ("memo", self._cache, _DECOMPOSE_CACHE_LIMIT),
                ("probation", self._probation, _DECOMPOSE_EVICT_BATCH)):
            if len(entries) > limit:
                raise AssertionError(
                    f"{name} holds {len(entries)} entries, limit {limit}"
                )
        shared = self._cache.keys() & self._probation.keys()
        if shared:
            raise AssertionError(
                f"memo and probation share the keys {sorted(shared, key=repr)!r}"
            )
        for key, (ordered, pairs) in chain(self._cache.items(),
                                           self._probation.items()):
            if len(ordered) > _DECOMPOSE_CACHE_WIDTH:
                raise AssertionError(
                    f"memo holds a {len(ordered)}-tag set, width limit "
                    f"{_DECOMPOSE_CACHE_WIDTH}"
                )
            tags, entities = (key, ()) if type(key) is frozenset else key
            effective = normalize_tags(tags)
            if self.use_entities:
                effective |= normalize_tags(entities)
            effective.discard("")
            if ordered != tuple(sorted(effective)):
                raise AssertionError(
                    f"memo entry for {key!r} holds the tags {ordered!r}"
                )
            if self._route is not None:
                pairs = sorted(chain.from_iterable(pairs))
            if list(pairs) != list(combinations(ordered, 2)):
                raise AssertionError(
                    f"memo entry for {ordered!r} holds {pairs!r}, not the "
                    "pairs of its tags"
                )


#: Journal event kind of a document's ordered tag set (its pair list and
#: its tag-window entry are *derived* on apply — pairs are a pure function
#: of the sorted tags, so shipping them would double the payload and the
#: encode time of the hot cadence tick).  A shard's pair events are not
#: journaled: the sharded fold routes them from the coordinator's
#: documents (older journals carry them as kind 1, which it skips).
_DELTA_DOC = 0


@dataclass
class _TrackerDelta:
    """Everything a tracker appended since its last base snapshot/drain.

    The event buffer holds ``(timestamp, ordered tags)`` per document,
    aliasing the tuples the tag window holds, so recording costs one list
    append per document; ``samples`` holds one ``(timestamp, pairs, values)``
    record per evaluation — the sampled pairs and their correlations as
    two parallel lists — so recording an evaluation costs one list append
    and two live containers however many pairs it sampled.  The drain
    writes both logs out as they stand.
    """

    events: List[Tuple[float, Tuple[str, ...]]] = field(default_factory=list)
    usage_events: List[Tuple[float, Tuple[Tuple[str, Tuple[str, ...]], ...]]] = \
        field(default_factory=list)
    samples: List[Tuple[float, List[Pair], List[float]]] = \
        field(default_factory=list)
    count_rows: List[Dict[str, int]] = field(default_factory=list)


class CorrelationTracker:
    """Windowed tag/pair statistics plus per-pair correlation histories."""

    def __init__(
        self,
        window_horizon: float,
        measure: Optional[CorrelationMeasure] = None,
        min_pair_support: int = 2,
        history_length: int = 24,
        use_entities: bool = True,
        track_usage: bool = False,
        track_count_history: bool = True,
    ):
        if window_horizon <= 0:
            raise ValueError("window_horizon must be positive")
        if min_pair_support < 1:
            raise ValueError("min_pair_support must be at least 1")
        if history_length < 2:
            raise ValueError("history_length must be at least 2")
        self.window_horizon = float(window_horizon)
        self.measure = measure or JaccardCorrelation()
        self.history_length = int(history_length)
        self.use_entities = bool(use_entities)
        self.track_usage = bool(track_usage)
        # Whether an evaluation records the per-tag count row.  Only the
        # volatility/hybrid seed criteria read that history, so the engines
        # switch it off under popularity; a bare tracker keeps recording.
        # Like track_usage it decides what is kept, but it is not part of
        # the snapshot contract: restoring a state that carries a history
        # into a tracker that keeps none simply drops it.
        self.track_count_history = bool(track_count_history)

        self._tag_window = TagFrequencyWindow(window_horizon)
        # Windowed pair co-occurrences: a deque of (timestamp, pairs-of-doc)
        # plus the candidate index, evicted in lockstep with the tag window.
        self._pair_events: Deque[Tuple[float, Tuple[Pair, ...]]] = deque()
        self._candidates = CandidateIndex(min_support=min_pair_support)
        # Fed documents, the pair events are the decomposition of the tag
        # window, which an exact snapshot leaves out; fed pair events (a
        # shard worker), they are the tracker's own, and it keeps them.
        self._pair_fed = False
        # Windowed co-tag usage per tag (only when the measure needs it).
        self._usage_events: Deque[Tuple[float, Tuple[Tuple[str, Tuple[str, ...]], ...]]] = deque()
        self._usage: Dict[str, Counter] = {}
        # Correlation histories per pair, appended at each evaluation;
        # bounded ring buffers so long runs cannot grow them without limit.
        # With a fused evaluator attached its columns are where evaluations
        # write; this dict then lags behind until _synced_histories() folds
        # the evaluated rows in, so read it through that method only.
        self._histories: Dict[Pair, TimeSeries] = {}
        self._evaluator: Optional["_vectorized.FusedEvaluator"] = None
        # Windowed tag-count history per tag (for the volatility seed
        # criterion); bounded deques, appended by record_count_history.
        # Stays empty when track_count_history is off.
        self._count_history: Dict[str, Deque[int]] = {}
        # Delta recording (for journaled checkpoints); None when inactive.
        self._delta: Optional[_TrackerDelta] = None
        # Memoising decomposer: tag sets recur constantly in real streams,
        # and building the O(k²) pair tuple dominates ingestion when computed
        # from scratch per document.
        self._decomposer = DocumentDecomposer(use_entities=self.use_entities)
        self._documents_seen = 0
        self._latest: Optional[float] = None

    # -- ingestion ------------------------------------------------------------

    @property
    def documents_seen(self) -> int:
        return self._documents_seen

    @property
    def latest_timestamp(self) -> Optional[float]:
        return self._latest

    @property
    def tag_window(self) -> TagFrequencyWindow:
        return self._tag_window

    @property
    def candidate_index(self) -> CandidateIndex:
        """The candidate index (a restore replaces it: read it afresh)."""
        return self._candidates

    def attach_evaluator(self, evaluator: "_vectorized.FusedEvaluator") -> None:
        """Make ``evaluator``'s history columns the place evaluations write.

        Called by :class:`~repro.core.vectorized.FusedEvaluator` on
        construction; a tracker feeds at most one evaluator.
        """
        self._evaluator = evaluator

    def _synced_histories(
        self, mutating: bool = False
    ) -> Dict[Pair, TimeSeries]:
        """The per-pair histories with every evaluated row folded in.

        Rows the attached evaluator wrote since the last call are
        materialised here, on read.  ``mutating`` tells the evaluator that
        the caller is about to change the dict behind its back, so it
        reloads its columns before its next evaluation.
        """
        evaluator = self._evaluator
        if evaluator is not None:
            histories = self._histories
            maxlen = self.history_length
            for pair, timestamps, values in evaluator.drain_histories():
                histories[pair] = TimeSeries.from_points(
                    timestamps, values, maxlen=maxlen
                )
            if mutating:
                evaluator.invalidate()
        return self._histories

    @property
    def history_map(self) -> Dict[Pair, TimeSeries]:
        """The live per-pair correlation histories, keyed by plain canonical
        pairs (read-only; do not mutate)."""
        return self._synced_histories()

    @property
    def min_pair_support(self) -> int:
        """Support threshold for candidate pairs (mutable between evaluations)."""
        return self._candidates.min_support

    @min_pair_support.setter
    def min_pair_support(self, value: int) -> None:
        value = int(value)
        if value < 1:
            raise ValueError("min_pair_support must be at least 1")
        self._candidates.min_support = value

    def observe(self, timestamp: float, tags: Iterable[str],
                entities: Iterable[str] = ()) -> None:
        """Ingest one document's tag (and entity) set: a chunk of one."""
        self.observe_many(((timestamp, tags, entities),))

    def observe_many(self, observations: Iterable[Observation]) -> int:
        """Ingest a chunk of ``(timestamp, tags, entities)`` documents.

        Tags and entities are normalised (stripped, lower-cased) before any
        statistic is updated.  The documents must be time-ordered; counter
        updates are batched and the window is evicted once at the end, which
        leaves the tracker in exactly the state that one call per document
        would have produced.  The whole chunk is validated *and*
        decomposed before any state is touched, so a rejected or malformed
        document leaves the tracker unchanged.  Returns the number of
        documents ingested.
        """
        timestamps: List[float] = []
        tag_sets: List[Tuple[str, ...]] = []
        pair_lists: List[Tuple[Pair, ...]] = []
        latest = self._latest
        decompose = self._decomposer.decompose
        for timestamp, tags, entities in observations:
            timestamp = float(timestamp)
            if latest is not None and not timestamp >= latest:
                raise ValueError(
                    f"out-of-order document: {timestamp} < {latest}"
                )
            latest = timestamp
            ordered, pairs = decompose(tags, entities)
            timestamps.append(timestamp)
            tag_sets.append(ordered)
            pair_lists.append(pairs)
        if not timestamps:
            return 0
        # Commit phase: nothing below can fail on malformed input.  Usage
        # tracking loops per document, only when configured.
        self._commit_pairs(timestamps, pair_lists, tag_sets)
        if self.track_usage:
            for timestamp, ordered in zip(timestamps, tag_sets):
                self._record_usage(timestamp, ordered)
        self._tag_window.add_ordered_run(timestamps, tag_sets)
        self._evict(latest)
        return len(timestamps)

    def observe_pair_events(
        self, events: Iterable[Tuple[float, Tuple[Pair, ...]]]
    ) -> int:
        """Ingest pre-decomposed ``(timestamp, pairs)`` events.

        This is the pair-restricted ingestion path of the sharded engine: a
        coordinator decomposes each document once, routes every pair to the
        shard that owns it, and the shard's tracker ingests only its slice of
        the pair stream.  Tag-level statistics (the frequency window, usage
        distributions, count history) are *not* updated — in a sharded
        deployment those are global concerns answered by the coordinator and
        broadcast back at evaluation time via :meth:`sample_candidates`.

        Events must be time-ordered; the whole chunk is validated before any
        state is touched (see :meth:`keep_pair_events`).  Returns the
        number of events ingested.
        """
        columns = tuple(zip(*events, strict=True))
        if not columns:
            return 0
        stamps, pair_lists = columns
        timestamps = list(map(float, stamps))
        # Each timestamp against the one before it, the first against the
        # tracker's clock (itself, on a fresh tracker), in one C-level pass;
        # the interpreted loop runs only to name the offender.
        latest = self._latest
        floor = timestamps[0] if latest is None else latest
        if not all(map(ge, timestamps, chain((floor,), timestamps))):
            for timestamp in timestamps:
                if latest is not None and not timestamp >= latest:
                    raise ValueError(
                        f"out-of-order pair event: {timestamp} < {latest}"
                    )
                latest = timestamp
        self.keep_pair_events()
        latest = timestamps[-1]
        self._commit_pairs(timestamps, pair_lists)
        self._tag_window.advance_to(latest)
        self._evict(latest)
        return len(timestamps)

    def keep_pair_events(self) -> None:
        """Declare this tracker fed pair events, as a shard worker does at
        birth: its snapshots carry them, empty ones too.  A tracker fed
        documents refuses: its pair events are its tag window's."""
        if self._documents_seen and not self._pair_fed:
            raise ValueError(
                "a tracker fed documents cannot ingest pair events: its pair "
                "events are derived from its tag window"
            )
        self._pair_fed = True

    def _commit_pairs(self, timestamps, pair_lists, tag_sets=None) -> None:
        """A validated run's pair side, column by column in C-level passes;
        a run of documents (``tag_sets``) is journaled, pair events not."""
        self._pair_events.extend(zip(timestamps, pair_lists))
        if self._delta is not None and tag_sets is not None:
            self._delta.events.extend(zip(timestamps, tag_sets))
        self._documents_seen += len(timestamps)
        self._latest = timestamps[-1]
        self._candidates.add_many(chain.from_iterable(pair_lists))

    def advance_to(self, timestamp: float) -> None:
        """Move stream time forward without ingesting a document."""
        if self._latest is not None and not timestamp >= self._latest:
            raise ValueError(
                f"cannot advance backwards: {timestamp} < {self._latest}"
            )
        self._tag_window.advance_to(timestamp)
        self._latest = timestamp
        self._evict(timestamp)

    # -- windowed statistics ---------------------------------------------------

    def tag_count(self, tag: str) -> int:
        return self._tag_window.count(tag)

    def pair_count(self, pair: Pair) -> int:
        return self._candidates.count(pair)

    def document_count(self) -> int:
        return self._tag_window.document_count

    def candidate_pairs(self, seeds: Iterable[str]) -> List[Tuple[Pair, str]]:
        """Pairs with enough windowed support that contain at least one seed.

        Returns ``(pair, seed_tag)`` tuples, each pair a plain canonical
        tuple; when both tags are seeds the lexicographically smaller one
        is reported as the trigger.  Answered from the index's supported
        set in time proportional to it, not to the total number of live
        pairs.
        """
        return self._candidates.candidates(seeds)

    def pair_counts_for(self, pair: Pair) -> PairCounts:
        """The windowed counts driving the correlation of ``pair``."""
        count_a = self.tag_count(pair[0])
        count_b = self.tag_count(pair[1])
        return PairCounts(
            count_a=count_a,
            count_b=count_b,
            count_both=self.pair_count(pair),
            total_documents=self.document_count(),
            pair=pair,
        )

    def correlation(self, pair: Pair) -> float:
        """Current correlation of ``pair`` under the configured measure."""
        counts = self.pair_counts_for(pair)
        usage_a = self._usage.get(pair[0]) if self.track_usage else None
        usage_b = self._usage.get(pair[1]) if self.track_usage else None
        return max(0.0, self.measure.value(counts, usage_a, usage_b))

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, timestamp: float, seeds: Iterable[str]) -> List[PairObservation]:
        """Sample the correlations of all candidate pairs at ``timestamp``.

        The observations are appended to the per-pair histories (bounded to
        ``history_length`` points) and returned for the shift detector.
        """
        self.advance_to(timestamp)
        self._record_count_history()
        return self._sample(
            timestamp, seeds, self._tag_window.counts,
            self._tag_window.document_count,
        )

    def sample_candidates(
        self,
        timestamp: float,
        seeds: Iterable[str],
        tag_counts: Mapping[str, int],
        total_documents: int,
    ) -> List[PairObservation]:
        """Sample candidate correlations against *externally supplied* counts.

        The scatter-gather entry point: a shard's tracker holds only its
        slice of the pair space, so the per-tag document counts and the total
        document count — global statistics — are broadcast by the
        coordinator alongside the seeds.  Advances (and evicts) this
        tracker's pair window to ``timestamp`` first; the tag-count history
        is *not* recorded (a global concern the coordinator owns).
        """
        self.advance_to(timestamp)
        return self._sample(timestamp, seeds, tag_counts, total_documents)

    def _sample(
        self,
        timestamp: float,
        seeds: Iterable[str],
        tag_counts: Mapping[str, int],
        total_documents: int,
    ) -> List[PairObservation]:
        observations: List[PairObservation] = []
        # Local bindings for the per-pair loop: evaluation samples hundreds
        # of pairs per boundary, so attribute and method-call overhead shows.
        measure_value = self.measure.value
        track_usage = self.track_usage
        histories = self._synced_histories(mutating=True)
        # Unsorted iteration: per-pair sampling is order-independent and the
        # ranking builder applies its own total order downstream.  The
        # triples carry the pair counts, so no lookups are needed here.
        candidates = self._candidates.iter_candidates(seeds)
        for pair, seed_tag, pair_count in candidates:
            first, second = pair
            count_a = tag_counts.get(first, 0)
            count_b = tag_counts.get(second, 0)
            counts = PairCounts(
                count_a=count_a,
                count_b=count_b,
                count_both=pair_count,
                total_documents=total_documents,
                pair=pair,
            )
            usage_a = self._usage.get(first) if track_usage else None
            usage_b = self._usage.get(second) if track_usage else None
            value = max(0.0, measure_value(counts, usage_a, usage_b))
            history = histories.get(pair)
            if history is None:
                history = TimeSeries(maxlen=self.history_length)
                histories[pair] = history
            history.append(timestamp, value)
            observations.append(PairObservation(
                pair=pair, timestamp=timestamp, correlation=value,
                counts=counts, seed_tag=seed_tag,
            ))
        if self._delta is not None:
            self.journal_samples(
                timestamp,
                [observation.pair for observation in observations],
                [float(observation.correlation)
                 for observation in observations],
            )
        return observations

    @property
    def journaling(self) -> bool:
        """Whether delta recording is armed (journal_samples keeps data)."""
        return self._delta is not None

    def journal_samples(
        self, timestamp: float, pairs: List[Pair], values: List[float]
    ) -> None:
        """Note one evaluation's sampled correlations in the armed journal.

        ``values[i]`` is the correlation appended to the history of
        ``pairs[i]`` at ``timestamp``; both lists are kept by reference
        until the next :meth:`delta_since`.  A no-op while delta recording
        is inactive, and for an evaluation that sampled nothing.
        """
        if self._delta is not None and pairs:
            self._delta.samples.append((float(timestamp), pairs, values))

    def history(self, pair: Pair) -> TimeSeries:
        """Correlation history of ``pair`` (empty series when never observed)."""
        return self._synced_histories().get(pair, TimeSeries())

    def tracked_pairs(self) -> List[Pair]:
        """Every pair with a correlation history, as sorted plain tuples."""
        return sorted(self._synced_histories())

    @property
    def count_history_map(self) -> Mapping[str, Deque[int]]:
        """The live per-tag count history (read-only; do not mutate).

        What the seed selector reads at every evaluation: one series per
        tag ever seen, so handing it over must not copy it.  Empty when
        the tracker keeps no count history.
        """
        return self._count_history

    def count_history(self) -> Dict[str, List[int]]:
        """A copy of the windowed count history per tag (tests and tools)."""
        return {tag: list(values) for tag, values in self._count_history.items()}

    def record_count_history_row(self) -> None:
        """Record the current per-tag counts into the count history.

        Public wrapper over the row-recording half of :meth:`evaluate`, for
        callers (the fused evaluator's engine path) that sample correlations
        outside the tracker but must keep the volatility history identical.
        Returns at once when the tracker keeps no count history.
        """
        self._record_count_history()

    # -- persistence ----------------------------------------------------------

    def snapshot(self) -> dict:
        """What restore cannot derive, as a versioned, JSON-safe dict.

        The tag window, the co-tag usage events, the per-pair correlation
        histories, the count history and ``min_support``, so a restored
        tracker continues bit-identically.  The pair events go in only
        where they are not the tag window's decomposition: fed pair events
        (a shard worker).  The candidate counts and the decomposition memo
        are always rebuilt.
        """
        state = {
            "kind": "correlation-tracker",
            "version": 2,
            "window_horizon": self.window_horizon,
            "history_length": self.history_length,
            "use_entities": self.use_entities,
            "track_usage": self.track_usage,
            "documents_seen": self._documents_seen,
            "latest": self._latest,
            "tag_window": self._tag_window.state_dict(),
            "min_support": self._candidates.min_support,
            "usage_events": [
                [timestamp, [[tag, list(cotags)] for tag, cotags in update]]
                for timestamp, update in self._usage_events
            ],
            "histories": [
                [first, second, series.snapshot()]
                for (first, second), series
                in sorted(self._synced_histories().items())
            ],
            "count_history": {
                tag: list(values) for tag, values in self._count_history.items()
            },
        }
        if self._pair_fed:
            state["pair_events"] = [
                [timestamp, list(map(list, pairs))]
                for timestamp, pairs in self._pair_events
            ]
        return state

    def restore(self, state: Mapping) -> None:
        """Replace this tracker's state with a :meth:`snapshot`'s.

        The tracker must be constructed with the same structural parameters
        (window horizon, history length, entity/usage switches) as the one
        that took the snapshot; mismatches raise
        :class:`~repro.persistence.snapshot.SnapshotMismatchError` before
        any state is touched.  Pair events the snapshot leaves out are
        derived from the restored tag window; the candidate counts are
        rebuilt from the pair events and the usage counters from the usage
        events, so restored eviction arithmetic is exact.  (A version-1
        snapshot is brought to version 2 by
        :func:`repro.persistence.delta.upgrade_engine_state` first.)
        """
        require_state(state, "correlation-tracker", 2)
        require_compatible(
            "correlation-tracker",
            {
                "window_horizon": self.window_horizon,
                "history_length": self.history_length,
                "use_entities": self.use_entities,
                "track_usage": self.track_usage,
            },
            state,
        )
        self._tag_window.restore_state(state["tag_window"])
        pair_events = state.get("pair_events")
        self._pair_fed = pair_events is not None
        self._pair_events = deque(
            self._decomposer.rederive(self._tag_window.events)
            if pair_events is None else
            ((float(timestamp),
              tuple(canonical_pair(str(a), str(b)) for a, b in pairs))
             for timestamp, pairs in pair_events)
        )
        self._candidates = CandidateIndex(
            int(state["min_support"]),
            Counter(chain.from_iterable(map(itemgetter(1), self._pair_events))),
        )
        self._usage_events = deque(
            (float(timestamp), tuple(
                (str(tag), tuple(map(str, cotags))) for tag, cotags in update
            ))
            for timestamp, update in state["usage_events"]
        )
        self._usage = {}
        for _, update in self._usage_events:
            for tag, cotags in update:
                self._usage.setdefault(tag, Counter()).update(cotags)
        if self._evaluator is not None:
            # Rows not yet folded into the dict describe the pre-restore
            # state: dropped, not flushed.
            self._evaluator.discard_histories()
        self._histories = {
            canonical_pair(str(a), str(b)): TimeSeries.from_snapshot(series)
            for a, b, series in state["histories"]
        }
        # A tracker that keeps no count history drops a restored one (a
        # checkpoint written when every engine recorded it), so its next
        # snapshot is the one an uninterrupted run would take.
        count_history = (
            state["count_history"] if self.track_count_history else {}
        )
        self._count_history = {
            str(tag): deque(
                (int(value) for value in values), maxlen=self.history_length
            )
            for tag, values in count_history.items()
        }
        self._documents_seen = int(state["documents_seen"])
        latest = state["latest"]
        self._latest = None if latest is None else float(latest)
        # Any buffered delta described the pre-restore state; drop it.
        self._delta = None

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless a live tracker could hold this state.

        The index's counts are the pair multiset of the windowed pair
        events; no pair or usage event sits at or before ``latest −
        window_horizon`` (every ingest and advance evicts those); fed
        documents, each pair event is the decomposition of the tag-window
        event at the same position — the identity a snapshot that leaves
        them out stands on; then the index's and the decomposition memo's
        own invariants.  For tests, after whatever *makes* a state — a
        restore, a journal fold, a re-shard — never on the stream.
        """
        expected = Counter(chain.from_iterable(
            pairs for _, pairs in self._pair_events
        ))
        counts = dict(self._candidates.items())
        for pair in expected.keys() | counts.keys():
            if expected[pair] != counts.get(pair, 0):
                raise AssertionError(
                    f"{pair!r} occurs {expected[pair]} time(s) in the pair "
                    f"events but has count {counts.get(pair, 0)}"
                )
        if self._latest is not None:
            cutoff = self._latest - self.window_horizon
            for name, events in (("pair", self._pair_events),
                                 ("usage", self._usage_events)):
                for timestamp, payload in events:
                    if timestamp <= cutoff:
                        raise AssertionError(
                            f"{name} event {payload!r} at {timestamp} is at "
                            f"or before the window's cutoff {cutoff} "
                            f"(latest {self._latest})"
                        )
        if not self._pair_fed:
            for (timestamp, pairs), (stamp, tags) in zip_longest(
                    self._pair_events, self._tag_window.events,
                    fillvalue=(None, ())):
                if timestamp != stamp or pairs != tuple(combinations(tags, 2)):
                    raise AssertionError(
                        f"pair event {pairs!r} at {timestamp} is not the "
                        f"decomposition of the tag-window event {tags!r} at "
                        f"{stamp}"
                    )
        self._candidates.check_invariants()
        self._decomposer.check_invariants()

    # -- incremental persistence ----------------------------------------------

    def begin_delta_tracking(self) -> None:
        """Start (or re-arm, emptying the buffers) delta recording.

        Call right after taking the base :meth:`snapshot`; everything the
        tracker appends afterwards is buffered until :meth:`delta_since`
        drains it.  Recording costs one list append per ingested document
        and one per evaluation — negligible next to the statistics updates
        themselves.
        """
        self._delta = _TrackerDelta()

    def end_delta_tracking(self) -> None:
        """Stop recording and discard any buffered delta."""
        self._delta = None

    def delta_since(self, generation: int) -> dict:
        """Drain the recorded changes since the last base/drain as a dict.

        The companion of :meth:`snapshot` for journaled checkpoints, and a
        transcript of the buffers rather than a walk over the state.  The
        distinct ordered tag sets of the documents (``tag_sets``) and the
        distinct pairs of the samples (``pairs``) are written once, as
        positions into one string table (``tags``); a document event is
        ``[kind, timestamp, tag_set_position]`` and ``samples`` holds one
        ``[timestamp, pair_positions, values]`` record per evaluation as
        :meth:`journal_samples` buffered it — every pass runs in C.
        What is left out (a document's pair list and window entry, a
        shard's pair events, the rings' trim to ``maxlen``) is derived by
        :func:`repro.persistence.delta.apply_tracker_delta`, whose fold
        onto the base reproduces :meth:`snapshot` exactly.  Requires
        :meth:`begin_delta_tracking`; recording stays armed afterwards.
        """
        buffer = self._delta
        if buffer is None:
            raise RuntimeError(
                "delta tracking is not active: take a base snapshot and "
                "call begin_delta_tracking() first"
            )
        events, samples = buffer.events, buffer.samples
        tag_set_at, tag_sets = index_table(map(itemgetter(1), events))
        pair_at, pairs = index_table(
            chain.from_iterable(map(itemgetter(1), samples))
        )
        pair_position = pair_at.__getitem__
        tags, tag_sets, pairs = intern_rows(tag_sets, pairs)
        delta = {
            "kind": "correlation-tracker-delta",
            "version": 2,
            "since": int(generation),
            "documents_seen": self._documents_seen,
            "latest": self._latest,
            "min_support": self._candidates.min_support,
            "tag_window_latest": self._tag_window.latest_timestamp,
            "tags": tags,
            "tag_sets": tag_sets,
            "pairs": pairs,
            "events": [
                [_DELTA_DOC, timestamp, tag_set_at[ordered]]
                for timestamp, ordered in events
            ],
            "usage_events": [
                [timestamp, [[tag, list(cotags)] for tag, cotags in update]]
                for timestamp, update in buffer.usage_events
            ],
            "samples": [
                [timestamp, list(map(pair_position, sampled)), values]
                for timestamp, sampled, values in samples
            ],
            "count_rows": buffer.count_rows,
        }
        self._delta = _TrackerDelta()
        return delta

    # -- internals ----------------------------------------------------------------

    def _record_usage(self, timestamp: float, ordered: Tuple[str, ...]) -> None:
        """Update the windowed co-tag usage distributions for one document."""
        usage_update = tuple(
            (tag, tuple(t for t in ordered if t != tag)) for tag in ordered
        )
        self._usage_events.append((timestamp, usage_update))
        if self._delta is not None:
            self._delta.usage_events.append((timestamp, usage_update))
        usage = self._usage
        for tag, cotags in usage_update:
            counter = usage.get(tag)
            if counter is None:
                counter = usage[tag] = Counter()
            counter.update(cotags)

    def _record_count_history(self) -> None:
        if not self.track_count_history:
            return
        snapshot = self._tag_window.snapshot()
        if self._delta is not None:
            # The row is a fresh dict from the window; recording the
            # reference is safe (record_count_history only reads it).
            self._delta.count_rows.append(snapshot)
        record_count_history(
            self._count_history, snapshot, self.history_length
        )

    def _evict(self, now: float) -> None:
        cutoff = now - self.window_horizon
        pair_events = self._pair_events
        expired_pairs: List[Pair] = []
        while pair_events and pair_events[0][0] <= cutoff:
            expired_pairs.extend(pair_events.popleft()[1])
        if expired_pairs:
            self._candidates.remove_many(expired_pairs)
        while self._usage_events and self._usage_events[0][0] <= cutoff:
            _, usage_update = self._usage_events.popleft()
            for tag, cotags in usage_update:
                counter = self._usage.get(tag)
                if counter is None:
                    continue
                for cotag in cotags:
                    counter[cotag] -= 1
                    if counter[cotag] <= 0:
                        del counter[cotag]
                if not counter:
                    del self._usage[tag]
