"""The one differential harness: every engine variant against one oracle.

The oracle is the single, scalar, uninterrupted engine.  Every variant —
sharded over any transport, fused, tiered, journaled, resumed into another
shard count, supervised through a worker kill, served with every
instrument live — must publish exactly its ranking sequence (timestamp,
label and every field of every topic) and hold a state a live engine can
be in.  This module is the one home of that claim:

* the engine table (:data:`ENGINES`), one row per variant — adding or
  deleting a variant is a one-row change, and the shard transports are
  named here and nowhere else (:data:`TRANSPORTS`);
* the base configuration (:func:`config`), documents (:func:`doc`) and
  streams (:func:`tweet_stream`, :func:`build_docs`, the hypothesis
  strategy :func:`hostile_streams`);
* the drivers: no checkpoint, a journal tick at every cut, a mid-stream
  N → M resume — replayed, or served through ``DetectionService``;
* the comparison (:func:`assert_equivalent`): the full ranking
  :func:`signature`, ``check_invariants()`` of every component, the live
  pair tables a base leaves out, the count history, and between two
  single engines the whole snapshot.

``tests/property/test_differential.py`` runs the matrix; every other test
takes its variants, configuration, documents and comparison from here.
"""

import asyncio
import itertools
import json
import math
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence

import pytest
from hypothesis import strategies as st

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue, make_shift_detector
from repro.core.tracker import CorrelationTracker
from repro.core.vectorized import NUMPY_AVAILABLE
from repro.datasets.documents import Document
from repro.datasets.twitter import TweetStreamGenerator
from repro.faults import FaultPlan
from repro.observability import Observability
from repro.persistence import CheckpointCadence, load_engine, read_checkpoint
from repro.serving import DetectionService
from repro.sharding import (
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    ShardedEnBlogue,
    SupervisedBackend,
    ThreadBackend,
)
from repro.sketches.tier import SketchTier

HOUR = 3600.0


def config(**overrides) -> EnBlogueConfig:
    """The base configuration every test starts from: a six-hour window
    evaluated hourly, permissive seed and support thresholds, and a
    three-point moving average."""
    defaults = dict(
        window_horizon=6 * HOUR,
        evaluation_interval=HOUR,
        num_seeds=10,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


def doc(t, tags, doc_id=None, text="") -> Document:
    return Document(timestamp=float(t), doc_id=doc_id or f"doc-{t}",
                    tags=frozenset(tags), text=text)


def signature(source) -> list:
    """Every published ranking as ``(timestamp, label, topics)`` — topics
    compare on every field, every float exactly.  ``source`` is an engine
    or a sequence of rankings."""
    rankings = source.ranking_history() \
        if hasattr(source, "ranking_history") else source
    return [(ranking.timestamp, ranking.label, ranking.topics)
            for ranking in rankings]


def close(engine) -> None:
    if isinstance(engine, ShardedEnBlogue):
        engine.close()


# -- the engine table ----------------------------------------------------------


def _instant_policy() -> RetryPolicy:
    """Retries that never wait: recovery time is not what is under test."""
    return RetryPolicy(max_retries=3, backoff_base=0.05,
                       clock=lambda: 0.0, sleep=lambda seconds: None)


@dataclass(frozen=True)
class Variant:
    """One engine variant: the single engine (``shards == 0``) with its
    evaluation pinned, or a sharded engine over a transport class."""

    name: str
    shards: int = 0
    backend: Optional[type] = None
    vectorize: Optional[bool] = None
    start_method: Optional[str] = None
    supervised: bool = False

    @property
    def fixed_only(self) -> bool:
        """A worker pool per hypothesis example costs too much: rows with
        child processes run on the fixed streams only."""
        return self.start_method is not None

    @property
    def in_process(self) -> bool:
        """Workers share the coordinator's address space (and objects)."""
        return self.shards > 0 and self.start_method is None

    @property
    def evaluations(self):
        if self.shards == 0:
            return ("fused",) if self.vectorize else ("scalar",)
        return ("fused", "scalar")

    def transport(self):
        """A fresh backend; a supervised row's loses worker 1 after its
        second ingest batch."""
        backend = self.backend() if self.start_method is None \
            else self.backend(start_method=self.start_method)
        if self.supervised:
            backend = SupervisedBackend(backend, policy=_instant_policy())
            backend.bind_fault_plan(FaultPlan().kill_worker(1, after_batches=2))
        return backend

    def build(self, cfg, evaluation=None, observability=None, chunk_size=7):
        if self.shards == 0:
            return EnBlogue(cfg, vectorize=bool(self.vectorize),
                            observability=observability)
        return ShardedEnBlogue(
            cfg, num_shards=self.shards, backend=self.transport(),
            chunk_size=chunk_size, vectorize=evaluation != "scalar",
            observability=observability,
        )


ENGINES = (
    Variant("single-fused", vectorize=True),
    Variant("single-scalar", vectorize=False),
    Variant("serial-1", 1, SerialBackend),
    Variant("serial-2", 2, SerialBackend),
    Variant("serial-4", 4, SerialBackend),
    Variant("threads-2", 2, ThreadBackend),
    Variant("process-2", 2, ProcessBackend, start_method="fork"),
    Variant("process-4", 4, ProcessBackend, start_method="fork"),
    Variant("supervised-process-2", 2, ProcessBackend, start_method="fork",
            supervised=True),
)

ROWS = {row.name: row for row in ENGINES}

#: Transport name → a fresh backend, from the table's plain sharded rows.
TRANSPORTS = {
    row.backend.name: row.transport
    for row in ENGINES if row.shards and not row.supervised
}

#: The sharded rows whose workers live in the coordinator's process.
IN_PROCESS = [row for row in ENGINES if row.in_process]

#: The transports that deliver by reference (one address space).
BY_REFERENCE = sorted({row.backend.name for row in IN_PROCESS})


def in_process_variants(shards=2):
    """``(row, evaluation)`` params: the single engine fused and scalar,
    and every in-process sharded row of ``shards`` on both evaluators —
    for targeted tests that replay each variant without a worker pool.
    Fused params skip without numpy."""
    rows = [row for row in ENGINES if row.shards == 0] + [
        row for row in IN_PROCESS if row.shards == shards]
    return [
        pytest.param(row, evaluation, id=f"{row.name}-{evaluation}"
                     if row.shards else row.name,
                     marks=pytest.mark.skipif(
                         needs_numpy(evaluation),
                         reason="needs the fused evaluator (numpy)"))
        for row in rows for evaluation in row.evaluations
    ]


def make_engine(name, cfg=None, evaluation=None, **kwargs):
    """Build the table's row ``name`` over ``cfg`` (default :func:`config`)."""
    return ROWS[name].build(cfg or config(), evaluation, **kwargs)


def reference_engine(cfg) -> EnBlogue:
    return EnBlogue(cfg, vectorize=False)


# -- streams -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tweets(hours, per_hour, seed):
    corpus, _ = TweetStreamGenerator(
        hours=hours, tweets_per_hour=per_hour, seed=seed).generate()
    return tuple(corpus)


def tweet_stream(hours=12, per_hour=40, seed=11) -> List[Document]:
    return list(_tweets(hours, per_hour, seed))


def build_docs(steps) -> List[Document]:
    """``(time delta, tag set)`` steps as time-ordered documents."""
    docs, timestamp = [], 0.0
    for index, (delta, tags) in enumerate(steps):
        timestamp += delta
        docs.append(Document(timestamp=timestamp, doc_id=f"doc-{index}",
                             tags=frozenset(tags)))
    return docs


#: The small configuration hostile streams run under: a window of four
#: evaluations and rings of six, so eviction and ring wrap happen early.
HOSTILE = dict(window_horizon=100.0, evaluation_interval=25.0, num_seeds=6,
               history_length=6)

HOSTILE_TAGS = ("alpha", "beta", "gamma", "delta", "epsilon",
                "zürich", "東京", "😀")


@st.composite
def hostile_streams(draw, min_size=4, max_size=40):
    """Time-ordered streams that stand on every edge the engine owns:
    timestamps exactly on an evaluation boundary and exactly ``horizon``
    after an earlier document (which then sits on the eviction cutoff),
    equal timestamps, duplicated documents, empty documents, non-ASCII
    tags.  The first document sits at 0 or on the interval, so the
    boundaries (anchored one interval after it) are its multiples."""
    interval = HOSTILE["evaluation_interval"]
    horizon = HOSTILE["window_horizon"]
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(["gap", "gap", "same", "boundary", "horizon",
                             "duplicate"]),
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
            st.sets(st.sampled_from(HOSTILE_TAGS), max_size=4),
        ),
        min_size=min_size, max_size=max_size,
    ), label="steps")
    docs, now = [], 0.0
    for index, (kind, gap, tags) in enumerate(steps):
        if kind == "duplicate" and docs:
            docs.append(docs[-1])
            continue
        if kind == "gap" and docs:
            now += gap
        elif kind == "boundary":
            now = (math.floor(now / interval) + 1) * interval
        elif kind == "horizon" and docs:
            earlier = docs[int(gap) % len(docs)].timestamp + horizon
            now = max(now, earlier)
        docs.append(Document(timestamp=now, doc_id=f"doc-{index}",
                             tags=frozenset(tags)))
    return docs


# -- invariants ----------------------------------------------------------------


def latest_evaluation(engine) -> Optional[float]:
    ranking = engine.current_ranking()
    return None if ranking is None else ranking.timestamp


def _live_workers(engine):
    """The shard workers of an in-process backend, read in place; None
    for a backend whose workers live elsewhere."""
    backend = getattr(engine.backend, "_inner", engine.backend)
    transports = backend._transports
    if all(hasattr(transport, "_server") for transport in transports):
        return [transport._server.worker for transport in transports]
    return None


def check_invariants(engine_or_state) -> None:
    """``check_invariants()`` on whatever a run, restore, journal fold or
    re-shard made.

    A single engine checks its tracker, detector and fused evaluator in
    place.  A sharded engine checks its coordinator in place and every
    worker through the complete state its backend hands over (workers in
    the coordinator's process in place too).  A folded journal is only a
    dict: a single engine's tracker state is restored into a fresh tracker
    (``restore`` adopts a state as it stands and derives what it leaves
    out); a sharded state is restored into a serial coordinator and
    checked as a live one.  An unreachable state fails where it was made.
    """
    if isinstance(engine_or_state, dict):
        state = engine_or_state
        if state["kind"] == ShardedEnBlogue.SNAPSHOT_KIND:
            with ShardedEnBlogue(EnBlogueConfig(**state["config"]),
                                 num_shards=state["num_shards"],
                                 backend="serial") as engine:
                engine.restore(state)
                _check_sharded(engine)
            return
        restored_tracker(state["tracker"]).check_invariants()
        return
    if hasattr(engine_or_state, "tracker"):
        engine_or_state.tracker.check_invariants()
        engine_or_state.detector.check_invariants(
            latest_evaluation(engine_or_state))
        return
    _check_sharded(engine_or_state)


def _check_sharded(engine) -> None:
    """The coordinator's own invariants, every worker's tracker and
    detector, and under exact tracking the identity a sharded base stands
    on: each worker's pair events inside the coordinator's window are its
    routing of the windowed documents (older ones are a shard's not yet
    evicted, gone at its next advance).  A tier's admitted pairs are not
    derivable."""
    engine.check_invariants()
    engine._flush()  # the buffered chunks reach the shards
    latest = latest_evaluation(engine)
    worker_states = engine.backend.collect_states()
    for worker_state in worker_states:
        restored_tracker(worker_state["tracker"]).check_invariants()
        detector = make_shift_detector(engine.config)
        detector.restore(worker_state["detector"])
        detector.check_invariants(latest)
    for worker in _live_workers(engine) or ():
        worker.tracker.check_invariants()
        worker.detector.check_invariants(latest)
    if engine._tier is not None:
        return
    window = engine._tag_window
    cutoff = window.latest_timestamp - window.horizon \
        if window.latest_timestamp is not None else float("-inf")
    derived = engine._shard_pair_events()
    for worker_state, events in zip(worker_states, derived):
        live = [
            (timestamp, tuple(map(tuple, pairs)))
            for timestamp, pairs in worker_state["tracker"].get(
                "pair_events", ())
            if timestamp > cutoff
        ]
        assert live == [(timestamp, tuple(map(tuple, pairs)))
                        for timestamp, pairs in events], (
            f"shard {worker_state['shard_id']}'s pair events are not the "
            "routing of the coordinator's window"
        )


def restored_tracker(tracker_state) -> CorrelationTracker:
    tier = tracker_state.get("tier")
    tracker = CorrelationTracker(
        window_horizon=tracker_state["window_horizon"],
        history_length=tracker_state["history_length"],
        use_entities=tracker_state["use_entities"],
        track_usage=tracker_state["track_usage"],
        tier=None if tier is None else SketchTier.from_snapshot(tier),
    )
    tracker.restore(tracker_state)
    return tracker


def live_pair_state(engine):
    """The pair events and candidate counts an engine holds live — what a
    base no longer stores — as ``(sorted (timestamp, pair) occurrences,
    {pair: count})``, independent of the shard count.

    Seen at the coordinator's clock: a shard evicts what the window has
    passed only at its next advance, so its older events and their counts
    are left out.  In-process workers are read in place, any others
    through the worker states their backend collects.
    """
    if hasattr(engine, "tracker"):
        trackers, window = [engine.tracker], engine.tracker.tag_window
    else:
        engine._flush()  # the buffered chunks reach the shards
        window = engine._tag_window
        workers = _live_workers(engine)
        if workers is not None:
            trackers = [worker.tracker for worker in workers]
        else:
            trackers = [restored_tracker(worker_state["tracker"])
                        for worker_state in engine.backend.collect_states()]
    cutoff = window.latest_timestamp - window.horizon \
        if window.latest_timestamp is not None else float("-inf")
    occurrences, counts = [], Counter()
    for tracker in trackers:
        counts.update(dict(tracker.candidate_index.items()))
        for timestamp, pairs in tracker._pair_events:
            if timestamp > cutoff:
                occurrences.extend((timestamp, tuple(pair)) for pair in pairs)
            else:
                counts.subtract(pairs)
    return sorted(occurrences), {
        tuple(pair): count for pair, count in counts.items() if count
    }


def count_history_of(state) -> dict:
    """The count history inside an engine snapshot, wherever it lives."""
    if state["kind"] == EnBlogue.SNAPSHOT_KIND:
        return state["tracker"]["count_history"]
    return state["count_history"]


def json_copy(state):
    return json.loads(json.dumps(state))


# -- the comparison ------------------------------------------------------------


def assert_equivalent(engine, reference) -> None:
    """``engine`` is, in everything observable, the ``reference`` engine.

    The full ranking signature; ``check_invariants()`` of both; the live
    pair events and candidate counts; the count history, key order
    included; and, when both are single engines, the whole snapshot.
    """
    assert signature(engine) == signature(reference)
    check_invariants(engine)
    check_invariants(reference)
    assert live_pair_state(engine) == live_pair_state(reference)
    state, expected = engine.snapshot(), reference.snapshot()
    history = count_history_of(state)
    assert list(history.items()) == list(count_history_of(expected).items())
    if not reference.seed_selector.reads_history:
        assert history == {}
    if state["kind"] == expected["kind"] == EnBlogue.SNAPSHOT_KIND:
        assert json_copy(state) == json_copy(expected)


# -- the matrix ----------------------------------------------------------------

TRACKINGS = ("exact", "tiered")
EVALUATIONS = ("fused", "scalar")
CRITERIA = ("popularity", "volatility", "hybrid")
CHECKPOINTINGS = ("none", "journal", "resume")
OBSERVABILITIES = ("off", "on")
#: ``min_pair_support``: 1 makes every live pair supported; at 3 live pairs
#: cross the threshold both ways, the event candidate selection rests on.
SUPPORTS = (1, 3)

#: Tiered tracking's promotion threshold in the matrix.
TIER_K = 3

#: A mid-stream resume re-shards: checkpointed shard count → resumed one.
RESHARD = {1: 2, 2: 4, 4: 1}


class Cell(NamedTuple):
    engine: Variant
    tracking: str
    evaluation: str
    criterion: str
    checkpointing: str
    observability: str
    support: int = 1

    @property
    def id(self) -> str:
        return "-".join([self.engine.name, *self[1:-1],
                         f"support{self.support}"])

    def config(self, base: EnBlogueConfig) -> EnBlogueConfig:
        """``base`` under this cell's criterion, tracking and support."""
        if self.tracking == "tiered":
            base = base.with_overrides(tracking="tiered",
                                       promote_support=TIER_K)
        return base.with_overrides(seed_criterion=self.criterion,
                                   min_pair_support=self.support)


def axis_pairs(cell):
    values = list(enumerate(cell))
    return {(a, x, b, y)
            for (a, x), (b, y) in itertools.combinations(values, 2)}


def admissible(cell) -> bool:
    return cell.evaluation in cell.engine.evaluations


#: Cells pinned before the pairwise fill.  New ones: a process pool
#: journaled under tiered tracking, a supervised pool resumed from a
#: journal, the scalar evaluator on shards under the history-reading
#: criteria, and a served (observability on) N → M resume.  Kept ones: a
#: resume while serving on the single engine and on a process pool, and a
#: tiered resume on the single engine and from 2 shards into 4.
REQUIRED = (
    Cell(ROWS["process-2"], "tiered", "fused", "popularity", "journal", "off"),
    Cell(ROWS["supervised-process-2"], "exact", "fused", "volatility",
         "resume", "off"),
    Cell(ROWS["serial-2"], "exact", "scalar", "volatility", "none", "off"),
    Cell(ROWS["process-4"], "exact", "scalar", "hybrid", "none", "off"),
    Cell(ROWS["serial-2"], "exact", "fused", "popularity", "resume", "on"),
    Cell(ROWS["single-fused"], "exact", "fused", "hybrid", "resume", "on"),
    Cell(ROWS["process-2"], "exact", "fused", "volatility", "resume", "on"),
    Cell(ROWS["single-fused"], "tiered", "fused", "popularity", "resume",
         "off"),
    Cell(ROWS["serial-2"], "tiered", "fused", "popularity", "resume", "off"),
)


def covering_cells():
    """The pinned cells plus a greedy fill until every admissible pair of
    axis values occurs in some cell (deterministic: ties go to the first
    candidate in table order)."""
    candidates = [
        Cell(*values) for values in itertools.product(
            ENGINES, TRACKINGS, EVALUATIONS, CRITERIA, CHECKPOINTINGS,
            OBSERVABILITIES, SUPPORTS)
    ]
    pairs = {cell: axis_pairs(cell) for cell in candidates
             if admissible(cell)}
    uncovered = set().union(*pairs.values())
    cells = list(REQUIRED)
    for cell in cells:
        uncovered -= pairs[cell]
    while uncovered:
        best = max(pairs, key=lambda cell: len(pairs[cell] & uncovered))
        cells.append(best)
        uncovered -= pairs[best]
    return cells


CELLS = covering_cells()


# -- drivers -------------------------------------------------------------------


def feed(engine, docs) -> None:
    """One document through ``process``, more through ``process_batch``."""
    if len(docs) == 1:
        engine.process(docs[0])
    elif docs:
        engine.process_batch(docs)


def live_count_history(engine) -> dict:
    """The count history an engine holds, read without a snapshot."""
    if hasattr(engine, "tracker"):
        return engine.tracker.count_history()
    return {tag: list(series)
            for tag, series in engine._count_history.items()}


def _assert_in_step(engine, reference) -> None:
    assert signature(engine) == signature(reference)
    assert list(live_count_history(engine).items()) \
        == list(live_count_history(reference).items())


def assert_folds_to_live(directory, engine, invariants=True) -> dict:
    """The chain in ``directory`` folds to ``engine``'s live snapshot (and,
    with ``invariants``, to a state a live engine can be in)."""
    _, folded = read_checkpoint(directory)
    if invariants:
        check_invariants(folded)
    assert folded == engine.snapshot()
    return folded


class Run:
    """One cell over one stream: the drivers and what they leave behind.

    ``cuts`` are the stream positions where the engine and the reference
    are compared in step, a journal ticks, and (the last one) a resume
    hands over.  A ``fixed`` stream also ends on a forced evaluation and
    must leave journal segments behind.
    """

    def __init__(self, cell, docs, cuts, base, directory, resume_shards=None,
                 chunk_size=7, fixed=False):
        self.cell = cell
        self.docs = docs
        self.cuts = sorted(cuts)
        self.cfg = cell.config(base)
        self.directory = Path(directory)
        self.resume_shards = resume_shards or RESHARD.get(cell.engine.shards)
        self.chunk_size = chunk_size
        self.fixed = fixed
        self.recoveries = 0

    def _build(self, observability=None):
        return self.cell.engine.build(
            self.cfg, self.cell.evaluation, observability=observability,
            chunk_size=self.chunk_size)

    def _resume(self, observability=None):
        row = self.cell.engine
        if row.shards == 0:
            resumed, _ = load_engine(self.directory,
                                     observability=observability)
        else:
            resumed, _ = load_engine(
                self.directory, num_shards=self.resume_shards,
                backend=row.transport(), observability=observability)
        check_invariants(resumed)
        return resumed

    def _retire(self, engine):
        info = getattr(engine, "supervision_info", lambda: None)()
        if info is not None:
            self.recoveries += info["recoveries"]
        close(engine)

    def execute(self):
        """Run the cell and its reference; returns both, still open."""
        if self.cell.observability == "on":
            return self._served()
        return self._replayed()

    def _replayed(self):
        checkpointing = self.cell.checkpointing
        engine, reference = self._build(), reference_engine(self.cfg)
        previous = 0
        try:
            for index, cut in enumerate(self.cuts):
                feed(engine, self.docs[previous:cut])
                reference.process_many(self.docs[previous:cut])
                previous = cut
                _assert_in_step(engine, reference)
                if checkpointing == "none":
                    continue
                if index == 0:
                    engine.save_checkpoint(self.directory, track_deltas=True)
                else:
                    engine.save_delta_checkpoint(self.directory)
                # The last tick's fold is checked for invariants below: as
                # the journal's end state, or as the restored engine.
                assert_folds_to_live(self.directory, engine, invariants=False)
            if checkpointing == "resume":
                live = live_pair_state(engine)
                resumed = self._resume()
                assert live_pair_state(resumed) == live
                if resumed.__class__ is engine.__class__ and \
                        self.cell.engine.shards in (0, self.resume_shards):
                    assert json_copy(resumed.snapshot()) \
                        == json_copy(engine.snapshot())
                self._retire(engine)
                engine = resumed
            feed(engine, self.docs[previous:])
            reference.process_many(self.docs[previous:])
            if checkpointing == "journal":
                engine.save_delta_checkpoint(self.directory)
                assert_folds_to_live(self.directory, engine)
            if self.fixed and self.docs:
                engine.evaluate_now()
                reference.evaluate_now()
        except BaseException:
            self._retire(engine)
            raise
        return engine, reference

    def _served(self):
        checkpointing = self.cell.checkpointing
        handoff = self.cuts[-1] if checkpointing == "resume" \
            else len(self.docs)
        observabilities = [_live_observability()]
        engine = self._build(observabilities[0])
        cadence = None
        if checkpointing != "none":
            cadence = CheckpointCadence(engine, directory=self.directory,
                                        every=1, full_every=16)
        try:
            frames = serve(engine, self._batches(0, handoff), cadence)
            _assert_observed(observabilities[0], handoff)
            if checkpointing != "none":
                assert_folds_to_live(self.directory, engine)
                if self.fixed:
                    assert list(self.directory.glob("*.delta"))
            if checkpointing == "resume":
                live = live_pair_state(engine)
                self._retire(engine)
                observabilities.append(_live_observability())
                engine = self._resume(observabilities[-1])
                assert engine.documents_processed == handoff
                assert live_pair_state(engine) == live
                frames += serve(engine,
                                self._batches(handoff, len(self.docs)))
            reference = reference_engine(self.cfg)
            reference.process_many(self.docs)
            assert signature(frames) == signature(reference)
            if self.fixed and self.docs:
                engine.evaluate_now()
                reference.evaluate_now()
        except BaseException:
            self._retire(engine)
            raise
        finally:
            for observability in observabilities:
                observability.close()
        return engine, reference

    def _batches(self, start, stop):
        """The stream between two positions, cut at the run's cuts."""
        edges = sorted({start, stop} | {cut for cut in self.cuts
                                         if start < cut < stop})
        return [self.docs[a:b] for a, b in zip(edges, edges[1:])]

    def check(self, engine, reference) -> None:
        try:
            assert_equivalent(engine, reference)
        finally:
            self._retire(engine)


def _live_observability() -> Observability:
    """Every instrument on: registry, event log, SLO ticks, and the
    sampling profiler at 100 Hz."""
    observability = Observability()
    observability.profiler.start(interval=0.01)
    return observability


def _assert_observed(observability, documents) -> None:
    """The instruments really were live while the stream ran."""
    if documents:
        assert any(record["event"] == "batch"
                   for record in observability.log.records())
        assert observability.registry.counter(
            "repro_slo_ticks_total").value > 0


def serve(engine, batches, cadence=None) -> list:
    """Serve ``batches`` through a service; returns the subscriber's frames."""

    async def scenario():
        service = DetectionService(engine, cadence=cadence)
        await service.start()
        subscription = service.subscribe()
        for batch in batches:
            if batch:
                await service.submit(batch)
        await service.stop()
        frames = []
        while (message := await subscription.next_message()) is not None:
            frames.append(message.payload)
        return frames

    return asyncio.run(scenario())


def run_cell(cell, docs, cuts, base, resume_shards=None, chunk_size=7,
             fixed=False) -> "Run":
    """Run ``cell`` over ``docs`` against the reference and compare."""
    with tempfile.TemporaryDirectory() as directory:
        run = Run(cell, docs, cuts, base, directory, resume_shards,
                  chunk_size, fixed)
        engine, reference = run.execute()
        run.check(engine, reference)
    return run


def needs_numpy(evaluation) -> bool:
    return evaluation == "fused" and not NUMPY_AVAILABLE


def checkpoint_cuts(count: int, parts: int = 5) -> Sequence[int]:
    """Even cut points for a fixed stream of ``count`` documents."""
    return [count * index // parts for index in range(1, parts)]
