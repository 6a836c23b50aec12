"""Command-line interface for the enBlogue reproduction.

A small CLI that makes the library's main entry points reachable without
writing a script: replaying the synthetic datasets through the detection
engine, comparing detectors against the injected ground truth, and exporting
the produced rankings as JSON for external consumers.

Examples::

    python -m repro.cli replay --dataset tweets --hours 48 --top-k 5
    python -m repro.cli replay --dataset tweets --shards 4 --backend process
    python -m repro.cli replay --dataset tweets --metrics
    python -m repro.cli replay --dataset nyt --export /tmp/rankings.json
    python -m repro.cli replay --dataset tweets --shards 2 \
        --checkpoint-every 8 --checkpoint-dir /tmp/ckpt --full-every 16
    python -m repro.cli replay --resume /tmp/ckpt --shards 4
    python -m repro.cli serve --port 8000 --shards 2 --backend process \
        --checkpoint-dir /tmp/serve-ckpt --checkpoint-every 4
    python -m repro.cli serve --resume /tmp/serve-ckpt --port 8000
    python -m repro.cli compare --dataset shifts
    python -m repro.cli explore --dataset nyt --start-day 50 --end-day 80
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence, Tuple

from repro.baselines.popularity import PopularityBaseline
from repro.baselines.twitter_monitor import TwitterMonitorBaseline
from repro.core.config import EnBlogueConfig, live_stream_config, news_archive_config
from repro.core.engine import EnBlogue
from repro.core.explorer import ArchiveExplorer
from repro.datasets.documents import Corpus
from repro.datasets.events import EventSchedule
from repro.datasets.nyt import DAY, NytArchiveGenerator
from repro.datasets.synthetic import correlation_shift_stream
from repro.datasets.twitter import TweetStreamGenerator
from repro.evaluation.harness import run_detector, run_experiment
from repro.evaluation.reporting import format_table
from repro.observability import Observability, format_stage_table
from repro.persistence.cadence import CheckpointCadence
from repro.persistence.resume import load_engine
from repro.faults import FaultPlan
from repro.portal.serialization import rankings_to_json
from repro.sharding import (
    RetryPolicy,
    ShardedEnBlogue,
    SupervisedBackend,
    available_backends,
    make_backend,
)

HOUR = 3600.0

#: Parser defaults of the dataset parameters, shared with the resume
#: conflict check (a flag equal to its default was not explicitly asked
#: for, so it silently defers to the checkpoint manifest).
_RESUME_FALLBACK_DEFAULTS = {
    "dataset": "tweets", "hours": 72, "years": 0.5, "seed": 19,
}


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {value!r}")
    return parsed


def _load_dataset(name: str, hours: int, years: float,
                  seed: int) -> Tuple[Corpus, EventSchedule, EnBlogueConfig]:
    """Build the requested dataset and a configuration suited to it."""
    if name == "tweets":
        corpus, schedule = TweetStreamGenerator(
            hours=hours, tweets_per_hour=40, seed=seed).generate()
        return corpus, schedule, live_stream_config()
    if name == "nyt":
        corpus, schedule = NytArchiveGenerator(
            years=years, articles_per_day=16, seed=seed).generate()
        return corpus, schedule, news_archive_config()
    if name == "shifts":
        corpus, schedule = correlation_shift_stream(
            num_events=4, num_steps=max(hours, 48), shift_start=max(hours, 48) // 2,
            seed=seed)
        # A one-day window keeps the (gradual) correlation shifts sharp; the
        # two-day default of the live preset dilutes them below the noise.
        config = live_stream_config().with_overrides(
            window_horizon=24 * HOUR, min_seed_count=1,
            min_pair_support=2, min_history=3,
            predictor="moving_average", predictor_window=5)
        return corpus, schedule, config
    raise ValueError(f"unknown dataset {name!r}; expected tweets, nyt or shifts")


def _apply_overrides(config: EnBlogueConfig, args: argparse.Namespace) -> EnBlogueConfig:
    overrides = {}
    if args.top_k is not None:
        overrides["top_k"] = args.top_k
    if args.measure is not None:
        overrides["correlation_measure"] = args.measure
    if args.predictor is not None:
        overrides["predictor"] = args.predictor
    if args.seeds is not None:
        overrides["num_seeds"] = args.seeds
    return config.with_overrides(**overrides) if overrides else config


def _resolve_backend(args: argparse.Namespace):
    """The --backend string, possibly wrapped for supervision and faults.

    Plain runs keep the string (``make_backend`` resolves it downstream,
    exactly as before).  ``--supervise`` builds the backend object and
    wraps it in a :class:`SupervisedBackend` carrying the retry policy.
    A ``REPRO_FAULT_PLAN`` environment plan — the chaos harness — is
    bound to whichever backend results.
    """
    plan = FaultPlan.from_env()
    if not args.supervise and plan is None:
        return args.backend
    backend = make_backend(args.backend)
    if args.supervise:
        backend = SupervisedBackend(
            backend,
            policy=RetryPolicy(
                max_retries=args.max_retries,
                backoff_base=args.retry_backoff,
            ),
        )
    if plan is not None:
        backend.bind_fault_plan(plan)
    return backend


def _make_engine(config: EnBlogueConfig, args: argparse.Namespace,
                 observability: Optional[Observability] = None):
    """The single engine, or the sharded one when --shards/--backend ask for it."""
    shards = args.shards or 1
    backend = _resolve_backend(args)
    if shards <= 1 and backend == "serial":
        return EnBlogue(config, observability=observability)
    return ShardedEnBlogue(config, num_shards=shards, backend=backend,
                           observability=observability)


def _print_runtime(engine) -> None:
    """One line naming the engine shape and the live evaluation path."""
    info = engine.runtime_info()
    print(
        f"runtime: engine={info['engine']} backend={info['backend']} "
        f"shards={info['shards']} evaluation_path={info['evaluation_path']}"
    )


def _checkpoint_extras(dataset: str, hours: int, years: float,
                       seed: int) -> dict:
    """Dataset parameters stored in the manifest so --resume can rebuild
    the exact stream the checkpoint was taken from."""
    return {"dataset": dataset, "hours": hours, "years": years, "seed": seed}


def _metrics_extras_provider(observability: Optional[Observability]):
    """An ``extras_provider`` persisting the metric state per checkpoint.

    Metrics ride the manifest's ``extras`` (not the engine snapshot), so
    a resumed process continues its counters instead of starting the
    story over — and checkpoints written without observability stay
    byte-for-byte what they always were.
    """
    if observability is None or not observability.enabled:
        return None
    return lambda: {"metrics": observability.snapshot()}


def _restore_metrics(observability: Optional[Observability],
                     manifest: dict) -> None:
    """Continue the checkpointed metric story, if one was recorded."""
    if observability is None or not observability.enabled:
        return
    snapshot = manifest.get("extras", {}).get("metrics")
    if snapshot:
        observability.restore(snapshot)


def _checkpoint_cadence(engine, args: argparse.Namespace, extras: dict,
                        observability: Optional[Observability] = None,
                        ) -> CheckpointCadence:
    """The checkpoint policy shared by replays, resumes and ``serve``.

    Built on the shared :class:`CheckpointCadence` (the serving layer
    runs the very same class on its engine executor, so serve-time
    checkpoints cannot drift from what ``--resume`` is tested against).
    A replay calls ``begin`` itself (the service does so on start): it
    eagerly writes the journal's base — the replay-start state (for
    ``--resume``: the just-restored state, which compacts any inherited
    journal) — so every cadence tick until the next re-base appends a
    segment.
    """
    return CheckpointCadence(
        engine,
        directory=args.checkpoint_dir,
        every=args.checkpoint_every,
        full_every=args.full_every,
        extras=extras,
        extras_provider=_metrics_extras_provider(observability),
    )


def _require_checkpoint_flags(args: argparse.Namespace) -> None:
    """Reject checkpoint flags that cannot work together (replay, serve)."""
    if args.checkpoint_every and not args.checkpoint_dir:
        raise SystemExit("--checkpoint-every requires --checkpoint-dir")


def _report_checkpoints(cadence: CheckpointCadence, directory) -> None:
    if cadence.checkpoints_written:
        print(f"\nwrote {cadence.checkpoints_written} checkpoint(s) "
              f"to {directory}")


def _export_rankings(path: str, rankings: Sequence) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(rankings_to_json(list(rankings), indent=2))
    print(f"\nwrote {len(rankings)} rankings to {path}")


def _cmd_replay(args: argparse.Namespace) -> int:
    _require_checkpoint_flags(args)
    if args.resume:
        return _cmd_replay_resume(args)
    corpus, schedule, config = _load_dataset(args.dataset, args.hours, args.years, args.seed)
    config = _apply_overrides(config, args)
    observability = Observability() if args.metrics else None
    engine = _make_engine(config, args, observability=observability)
    name = "enblogue" if isinstance(engine, EnBlogue) \
        else f"enblogue[{engine.num_shards}x{args.backend}]"

    if args.verbose:
        _print_runtime(engine)

    extras = _checkpoint_extras(args.dataset, args.hours, args.years, args.seed)
    cadence = _checkpoint_cadence(engine, args, extras, observability)
    cadence.begin()

    try:
        result = run_experiment(
            engine, corpus, schedule, name=name, k=config.top_k,
            after_ranking=cadence.hook(),
        )
        cadence.finalize()
    finally:
        if isinstance(engine, ShardedEnBlogue):
            engine.close()
    print(format_table([result.summary()], title=f"replay of {args.dataset!r}"))
    if observability is not None:
        print()
        print(format_stage_table(observability.registry))
    _report_checkpoints(cadence, args.checkpoint_dir)
    final = result.run.final_ranking()
    if final is not None:
        print()
        print(final.describe(k=config.top_k))
    if args.export:
        _export_rankings(args.export, result.run.rankings)
    return 0


def _require_no_resume_overrides(args: argparse.Namespace,
                                 extras: Optional[dict] = None) -> None:
    """Reject flags a resume cannot honor, instead of dropping them.

    A resumed engine runs under the checkpoint's configuration and
    replays the checkpoint's stream; silently accepting ``--top-k`` or
    ``--hours`` would hand the user something other than what they asked
    for.  Config overrides are detectable directly (their defaults are
    None); dataset parameters are flagged when they differ from both the
    parser default and the manifest (explicitly re-passing the recorded
    value is a harmless no-op); ``serve`` has no dataset and passes none.
    """
    for flag in ("top_k", "measure", "predictor", "seeds"):
        if getattr(args, flag) is not None:
            raise SystemExit(
                f"--{flag.replace('_', '-')} cannot be combined with "
                f"--resume: the engine runs under the checkpoint's "
                f"configuration"
            )
    for flag in ("dataset", "hours", "years", "seed"):
        if flag not in (extras or {}):
            continue
        value = getattr(args, flag)
        if value != _RESUME_FALLBACK_DEFAULTS[flag] \
                and value != type(value)(extras[flag]):
            raise SystemExit(
                f"--{flag} {value!r} conflicts with the checkpoint's "
                f"recorded {flag}={extras[flag]!r}; --resume always "
                f"replays the checkpointed stream"
            )


def _cmd_replay_resume(args: argparse.Namespace) -> int:
    """Resume a replay from a checkpoint directory.

    The engine (kind, configuration, shard count) is rebuilt from the
    checkpoint manifest; ``--shards``/``--backend`` override the shard
    count (re-partitioning the pair state) and the execution backend.  The
    dataset parameters recorded at save time rebuild the stream, and only
    the documents past the checkpoint are replayed.  ``--export`` writes
    the rankings produced *after* the resume point.
    """
    observability = Observability() if args.metrics else None
    engine, manifest = load_engine(
        args.resume, num_shards=args.shards, backend=_resolve_backend(args),
        observability=observability,
    )
    _restore_metrics(observability, manifest)
    extras = manifest.get("extras", {})
    try:
        _require_no_resume_overrides(args, extras)
    except SystemExit:
        if isinstance(engine, ShardedEnBlogue):
            engine.close()
        raise
    dataset = extras.get("dataset", args.dataset)
    hours = int(extras.get("hours", args.hours))
    years = float(extras.get("years", args.years))
    seed = int(extras.get("seed", args.seed))
    corpus, _, _ = _load_dataset(dataset, hours, years, seed)

    if args.verbose:
        _print_runtime(engine)

    skip = engine.documents_processed
    remaining = list(corpus)[skip:]
    cadence = _checkpoint_cadence(engine, args, extras, observability)
    cadence.begin()

    try:
        # The one replay loop of the harness: collection, the cadence
        # hook's consistency guarantees and the replayed-anything guard on
        # the forced final evaluation all come with it.
        run = run_detector(
            engine, remaining, name="resume", after_ranking=cadence.hook(),
        )
        produced = run.rankings
        cadence.finalize()
    finally:
        if isinstance(engine, ShardedEnBlogue):
            engine.close()

    shape = "single" if isinstance(engine, EnBlogue) \
        else f"{engine.num_shards}x{args.backend}"
    print(f"resumed {dataset!r} from {args.resume} ({shape}): "
          f"skipped {skip} checkpointed documents, replayed "
          f"{len(remaining)}, produced {len(produced)} rankings")
    if observability is not None:
        print()
        print(format_stage_table(observability.registry))
    _report_checkpoints(cadence, args.checkpoint_dir)
    if produced:
        print()
        print(produced[-1].describe(k=engine.config.top_k))
    if args.export:
        _export_rankings(args.export, produced)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve the engine over HTTP: live ingest, rankings, SSE stream.

    Documents arrive over ``POST /ingest`` (a bounded queue pushes back on
    producers), rankings leave over ``GET /rankings`` and the SSE stream
    ``GET /rankings/stream``, and the checkpoint cadence rides the same
    event loop, writing between batches.
    ``--resume`` restores engine and configuration from a checkpoint
    directory and keeps serving the stream from where it stopped.
    """
    from repro.serving import DetectionService, RankingServer

    _require_checkpoint_flags(args)
    # Serving always runs instrumented: /metrics, /trace, /logs, /slo
    # are part of the HTTP surface, and the ≤2% overhead is the price of
    # admission.  --log-file adds an NDJSON sink next to the in-memory
    # log ring.
    observability = Observability(log_path=args.log_file)
    if args.resume:
        _require_no_resume_overrides(args)
        engine, manifest = load_engine(
            args.resume, num_shards=args.shards,
            backend=_resolve_backend(args),
            observability=observability,
        )
        _restore_metrics(observability, manifest)
        extras = dict(manifest.get("extras", {}))
        extras.pop("metrics", None)  # superseded by the extras_provider
    else:
        config = news_archive_config() if args.preset == "news" \
            else live_stream_config()
        config = _apply_overrides(config, args)
        engine = _make_engine(config, args, observability=observability)
        extras = {"source": "serve"}

    try:
        return asyncio.run(_serve_async(
            engine, args, extras, DetectionService, RankingServer,
            observability=observability,
        ))
    except KeyboardInterrupt:
        return 0
    finally:
        if isinstance(engine, ShardedEnBlogue):
            engine.close()
        observability.close()


async def _serve_async(engine, args: argparse.Namespace, extras: dict,
                       service_class, server_class,
                       observability: Optional[Observability] = None) -> int:
    cadence = None
    if args.checkpoint_dir:
        cadence = _checkpoint_cadence(engine, args, extras, observability)
    service = service_class(
        engine,
        queue_capacity=args.queue_capacity,
        buffer_limit=args.buffer_limit,
        cadence=cadence,
        observability=observability,
    )
    await service.start()
    server = server_class(service, host=args.host, port=args.port)
    await server.start()

    shape = "single" if isinstance(engine, EnBlogue) \
        else f"{engine.num_shards}x{engine.backend.name}"
    print(f"serving enblogue[{shape}] on http://{server.host}:{server.port} "
          f"(POST /ingest, GET /rankings, GET /rankings/stream, GET /status, "
          f"GET /metrics, GET /trace, GET /profile, GET /logs, GET /slo)",
          flush=True)

    import signal

    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stopping.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        await stopping.wait()
    finally:
        # Stop accepting first, then drain: every accepted batch is
        # processed, its frames pushed to still-open SSE streams (which
        # end on the fan-out's sentinel), and the end state checkpointed
        # — only then are straggling connections reaped.
        await server.close_listener()
        await service.stop()
        await server.stop()
    status = service.status()
    print(f"\nserved {status['documents_processed']} documents, "
          f"published {status['rankings_published']} rankings, "
          f"wrote {status['checkpoints_written']} checkpoint(s)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    corpus, schedule, config = _load_dataset(args.dataset, args.hours, args.years, args.seed)
    config = _apply_overrides(config, args)
    window = config.window_horizon
    interval = config.evaluation_interval
    detectors = {
        "enblogue": EnBlogue(config),
        "twitter-monitor": TwitterMonitorBaseline(
            window_horizon=window, evaluation_interval=interval, top_k=config.top_k),
        "popularity": PopularityBaseline(
            window_horizon=window, evaluation_interval=interval, top_k=config.top_k),
    }
    rows = []
    for name, detector in detectors.items():
        result = run_experiment(detector, corpus, schedule, name=name, k=config.top_k)
        rows.append(result.summary())
    print(format_table(rows, title=f"detector comparison on {args.dataset!r}"))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    corpus, schedule, config = _load_dataset(args.dataset, args.hours, args.years, args.seed)
    partition = DAY if args.dataset == "nyt" else HOUR
    explorer = ArchiveExplorer(partition_length=partition,
                               min_pair_support=2)
    explorer.index_many(corpus)
    start, end = explorer.time_range()
    unit = DAY if args.dataset == "nyt" else HOUR
    range_start = start + args.start_day * unit if args.start_day is not None else start
    range_end = start + args.end_day * unit if args.end_day is not None else end
    ranking = explorer.rank(range_start, range_end, top_k=args.top_k or 10)
    print(f"indexed {explorer.documents_indexed} documents; "
          f"ranking for [{range_start:.0f}, {range_end:.0f}]:")
    print(ranking.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EnBlogue emergent-topic detection (SIGMOD 2011 reproduction)")
    parser.add_argument("--seed", type=int,
                        default=_RESUME_FALLBACK_DEFAULTS["seed"],
                        help="dataset generator seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_dataset(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--dataset", choices=("tweets", "nyt", "shifts"),
                         default=_RESUME_FALLBACK_DEFAULTS["dataset"],
                         help="which synthetic dataset to replay")
        sub.add_argument("--hours", type=int,
                         default=_RESUME_FALLBACK_DEFAULTS["hours"],
                         help="stream length in hours (tweets / shifts datasets)")
        sub.add_argument("--years", type=float,
                         default=_RESUME_FALLBACK_DEFAULTS["years"],
                         help="archive length in years (nyt dataset)")

    def add_overrides(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--top-k", type=int, default=None, help="ranking size")
        sub.add_argument("--measure", default=None,
                         help="correlation measure (jaccard, overlap, cosine, pmi, kl)")
        sub.add_argument("--predictor", default=None,
                         help="shift predictor (last, moving_average, ewma, linear, holt)")
        sub.add_argument("--seeds", type=int, default=None, help="number of seed tags")

    def add_engine(sub: argparse.ArgumentParser) -> None:
        """Shards, persistence and supervision: replay and serve alike."""
        sub.add_argument("--shards", type=_positive_int, default=None,
                         help="partition the pair space over N shards "
                              "(default 1 = the single-process engine; with "
                              "--resume: restore into N shards, "
                              "re-partitioning the checkpointed pair state "
                              "if N differs)")
        sub.add_argument("--backend", choices=available_backends(),
                         default="serial",
                         help="shard execution backend (with --shards > 1)")
        sub.add_argument("--checkpoint-every", type=_positive_int,
                         default=None, metavar="N",
                         help="checkpoint cadence: write a full base when "
                              "the run starts, then append a journal "
                              "segment after every N published rankings "
                              "(requires --checkpoint-dir)")
        sub.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                         help="checkpoint directory; without "
                              "--checkpoint-every the end state is saved "
                              "once (end of replay, server shutdown)")
        sub.add_argument("--full-every", type=_positive_int, default=16,
                         metavar="K",
                         help="with --checkpoint-every: re-base (a fresh "
                              "full checkpoint, compacting the journal) "
                              "every K-th cadence tick")
        sub.add_argument("--resume", default=None, metavar="DIR",
                         help="resume from the checkpoint in DIR (engine "
                              "configuration and, for replay, the dataset "
                              "parameters come from its manifest)")
        sub.add_argument("--supervise", action="store_true",
                         help="wrap the shard backend in the self-healing "
                              "supervisor: dead workers are respawned and "
                              "their state rebuilt by replaying the "
                              "in-memory operation log (serve keeps "
                              "accepting ingest and serves the last good "
                              "ranking, marked stale, meanwhile)")
        sub.add_argument("--max-retries", type=int, default=3, metavar="N",
                         help="with --supervise: failed shard operations "
                              "are retried up to N times before the "
                              "failure is escalated as permanent (503 on "
                              "serve)")
        sub.add_argument("--retry-backoff", type=float, default=0.05,
                         metavar="SECONDS",
                         help="with --supervise: base of the exponential "
                              "retry backoff (doubles per attempt)")

    replay = subparsers.add_parser("replay", help="replay a dataset through enBlogue")
    add_dataset(replay)
    add_overrides(replay)
    add_engine(replay)
    replay.add_argument("--verbose", action="store_true",
                        help="print the engine shape and active evaluation "
                             "path (vectorized or scalar) before replaying")
    replay.add_argument("--metrics", action="store_true",
                        help="run instrumented (metrics registry + stage "
                             "tracer) and print a per-stage timing table "
                             "after the replay")
    replay.add_argument("--export", default=None,
                        help="write the produced rankings to this JSON file "
                             "(with --resume: only the post-resume rankings)")
    replay.set_defaults(handler=_cmd_replay)

    serve = subparsers.add_parser(
        "serve",
        help="serve the engine over HTTP: live ingest, rankings, SSE push")
    add_overrides(serve)
    add_engine(serve)
    # Accepted only because benchmarks/perf/serve.py still passes
    # "--checkpoint-mode delta"; the next [benchmark] change deletes it.
    serve.add_argument("--checkpoint-mode", choices=("delta",),
                       default=None, help=argparse.SUPPRESS)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 picks an ephemeral port, printed "
                            "on startup)")
    serve.add_argument("--preset", choices=("live", "news"), default="live",
                       help="configuration preset for a fresh engine "
                            "(ignored with --resume)")
    serve.add_argument("--queue-capacity", type=_positive_int, default=8,
                       help="bound of the ingest queue, in batches; a full "
                            "queue blocks POST /ingest responses "
                            "(backpressure)")
    serve.add_argument("--buffer-limit", type=_positive_int, default=64,
                       help="per-subscriber SSE frame buffer; slow "
                            "consumers drop oldest frames beyond it")
    serve.add_argument("--log-file", default=None, metavar="PATH",
                       help="append every structured log record (the NDJSON "
                            "events served on GET /logs) to this file")
    serve.set_defaults(handler=_cmd_serve)

    compare = subparsers.add_parser("compare",
                                    help="compare enBlogue against the baselines")
    add_dataset(compare)
    add_overrides(compare)
    compare.set_defaults(handler=_cmd_compare)

    explore = subparsers.add_parser("explore",
                                    help="rank an archive time range (show case 1)")
    add_dataset(explore)
    add_overrides(explore)
    explore.add_argument("--start-day", type=float, default=None,
                         help="analysis window start (days/hours from archive start)")
    explore.add_argument("--end-day", type=float, default=None,
                         help="analysis window end (days/hours from archive start)")
    explore.set_defaults(handler=_cmd_explore)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
