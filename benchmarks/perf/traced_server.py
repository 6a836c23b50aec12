"""The traced twin of ``python -m repro.cli serve`` for ``serve_steady``.

Builds the same observability bundle, engine, checkpoint cadence, service
and HTTP server as the CLI's ``serve`` command — through their public
constructors, with the CLI's defaults — then swaps timing closures in for
the public callables a document passes on its way from ``POST /ingest`` to
an SSE frame, and dumps the spans after the SIGTERM drain.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import signal

import repro.serving.http as http
from repro.core.config import live_stream_config
from repro.core.engine import EnBlogue
from repro.observability import Observability
from repro.persistence.cadence import CheckpointCadence
from repro.serving import DetectionService, RankingServer

from .replay import install as install_engine
from .tracing import Recorder


def install(recorder: Recorder, engine, cadence, service) -> None:
    """Wrap the serving path's layer boundaries (engine layers included)."""
    recorder.wrap(http, "parse_ingest_body", "http.parse", count=len)
    recorder.wrap(http, "ranking_to_dict", "portal.serialize")
    recorder.wrap(service, "submit", "service.submit",
                  batch=itertools.count().__next__)
    install_engine(recorder, engine, sharded=False,
                   batch=itertools.count().__next__)
    recorder.wrap(service.dispatcher, "publish", "portal.publish")
    recorder.wrap(cadence, "note_rankings", "persistence.tick", count=int)
    recorder.wrap(engine, "save_checkpoint", "persistence.save")
    recorder.wrap(engine, "save_delta_checkpoint", "persistence.save")
    recorder.wrap(engine, "snapshot", "persistence.snapshot")
    recorder.wrap(engine, "delta_since", "persistence.snapshot")


async def serve(args: argparse.Namespace) -> None:
    observability = Observability()
    engine = EnBlogue(live_stream_config(), observability=observability)
    cadence = CheckpointCadence(
        engine,
        directory=args.checkpoint_dir,
        every=args.checkpoint_every,
        mode=args.checkpoint_mode,
        full_every=args.full_every,
        extras={"source": "serve"},
        extras_provider=lambda: {"metrics": observability.snapshot()},
    )
    service = DetectionService(
        engine, queue_capacity=8, buffer_limit=64, cadence=cadence,
        observability=observability,
    )
    recorder = Recorder()
    install(recorder, engine, cadence, service)
    try:
        await service.start()
        server = RankingServer(service, host="127.0.0.1", port=args.port)
        await server.start()
        print(f"serving enblogue[traced] on http://{server.host}:{server.port}",
              flush=True)
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        try:
            await stopping.wait()
        finally:
            await server.close_listener()
            await service.stop()
            await server.stop()
    finally:
        recorder.restore()
        observability.close()
    recorder.dump(args.trace_out)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--checkpoint-dir", required=True)
    parser.add_argument("--checkpoint-every", type=int, required=True)
    parser.add_argument("--checkpoint-mode", required=True)
    parser.add_argument("--full-every", type=int, required=True)
    parser.add_argument("--trace-out", required=True)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
