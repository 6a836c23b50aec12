"""The HTTP face of the serving layer: ingest, rankings, SSE stream.

A deliberately small HTTP/1.1 server on asyncio's stdlib stream API (no
new dependencies), exposing:

* ``POST /ingest`` — a JSON array of documents
  (``{"timestamp": ..., "tags": [...], "entities": [...], "text": ...}``)
  enqueued as one batch.  The response is withheld until the bounded
  ingest queue accepts the batch, so a producer that outruns shard
  dispatch is slowed down by its own pending request — backpressure over
  plain HTTP, no special protocol.
* ``GET /rankings`` — the current top-k ranking as JSON (``null`` before
  the first evaluation).
* ``GET /rankings/stream`` — Server-Sent Events: one ``data:`` frame per
  published ranking, ``id:`` carrying the dispatcher sequence number.
  Slow consumers are bounded by the per-subscriber frame buffer (oldest
  frames dropped — each frame is a full snapshot).
* ``GET /status`` — the service's operational counters plus per-shard
  health; answers 503 (with the same body) when any shard worker is dead.
* ``GET /metrics`` — the service's metrics registry in the Prometheus
  text exposition format.
* ``GET /trace?last=N`` — the most recent pipeline stage traces as
  NDJSON, one per-batch span tree per line.
* ``GET /profile?seconds=N&format=collapsed|json`` — run the sampling
  profiler for N seconds (capped) and return the folded-stack counts in
  flamegraph "collapsed" format (or JSON).  If the profiler is already
  running continuously, the window is carved out of the live counts
  without stopping it.
* ``GET /logs?last=N`` — the most recent structured log records as
  NDJSON, one event per line, trace/span ids included.
* ``GET /slo`` — the declarative service-level objectives with per-window
  attainment and burn rates.

Non-SSE connections are persistent: HTTP/1.1 requests keep the
connection open (and pipelined pollers reuse it) unless the client sends
``Connection: close``; HTTP/1.0 clients get one request per connection
unless they ask for ``Connection: keep-alive``.  Every response carries
an exact ``Content-Length``, which is what makes reuse safe without
chunked encoding.  The SSE stream is the exception either way: it owns
its connection until the client disconnects or the server stops.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from repro.observability import (
    NDJSON_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    render_collapsed,
    render_prometheus,
    render_trace_ndjson,
)
from repro.portal.serialization import ranking_to_dict
from repro.serving.service import DetectionService, ServiceClosedError
from repro.sharding.backends import ShardExecutionError

try:  # optional, as in persistence/store.py: the stdlib is the fallback
    import orjson as _orjson
except ImportError:  # pragma: no cover
    _orjson = None

#: Retry-After (seconds) advertised with a 503 on engine failure — long
#: enough for a supervised recovery, short enough that probes re-check.
RETRY_AFTER_SECONDS = 5

#: Default number of traces ``GET /trace`` returns without a ``last=N``.
DEFAULT_TRACE_LAST = 16

#: Default number of log records ``GET /logs`` returns without ``last=N``.
DEFAULT_LOGS_LAST = 64

#: Default and maximum sampling window of ``GET /profile`` (seconds).
#: The cap keeps a single request from parking a handler for minutes.
DEFAULT_PROFILE_SECONDS = 1.0
MAX_PROFILE_SECONDS = 30.0

#: Cap on request bodies; an ingest batch should be chunks, not the
#: whole archive in one request.
MAX_BODY_BYTES = 16 * 1024 * 1024


#: The one empty set every document without entities shares.
_NO_ENTITIES: frozenset = frozenset()


class IngestDocument:
    """A minimally validated ingest payload, shaped for ``process_batch``."""

    __slots__ = ("timestamp", "tags", "entities", "text")

    def __init__(self, payload: dict):
        if not isinstance(payload, dict):
            raise ValueError("each document must be a JSON object")
        if "timestamp" not in payload:
            raise ValueError("each document needs a numeric 'timestamp'")
        self.timestamp = float(payload["timestamp"])
        # json.loads accepts NaN, Infinity and 1e999, and float() the string
        # "inf": none of them is a stream time an engine can order or
        # catch up to.
        if not math.isfinite(self.timestamp):
            raise ValueError("'timestamp' must be a finite number")
        tags = payload.get("tags", ()) or ()
        if isinstance(tags, str):
            raise ValueError("'tags' must be an array of strings")
        # frozensets, the shape the tracker's decomposition memo keys on:
        # tag sets recur constantly in a stream, and a tuple here would
        # re-run normalisation and pair construction for every document.
        self.tags = frozenset(map(str, tags))
        entities = payload.get("entities")
        if not entities:
            self.entities = _NO_ENTITIES
        elif isinstance(entities, str):
            raise ValueError("'entities' must be an array of strings")
        else:
            self.entities = frozenset(map(str, entities))
        self.text = str(payload.get("text", "") or "")


def _loads(body: bytes):
    # Whatever orjson refuses (NaN, Infinity, 1e999, a BOM, malformed
    # text) goes to the stdlib, which either accepts it for the checks
    # below or words the 400.  The one value the two read differently is
    # an integer outside 64 bits, a float to orjson: the same timestamp
    # after float(), but a *numeric tag* that large becomes the float's
    # text ("1.8446744073709552e+19") instead of its digits.
    if _orjson is not None:
        try:
            return _orjson.loads(body)
        except ValueError:
            pass
    return json.loads(body)


def parse_ingest_body(body: bytes) -> List[IngestDocument]:
    """Decode a ``POST /ingest`` body; raises ``ValueError`` on bad input."""
    try:
        payload = _loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if isinstance(payload, dict):
        payload = payload.get("documents")
    if not isinstance(payload, list):
        raise ValueError(
            "request body must be a JSON array of documents (or an object "
            "with a 'documents' array)"
        )
    return list(map(IngestDocument, payload))


class RankingServer:
    """Serve a :class:`DetectionService` over HTTP + SSE."""

    def __init__(self, service: DetectionService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None
        # Every live handler task, SSE stream or kept-alive producer.
        self._connections: set = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # Port 0 asks the OS for an ephemeral port; expose the real one.
        self.port = self._server.sockets[0].getsockname()[1]

    async def close_listener(self) -> None:
        """Stop accepting new connections; open SSE streams keep running.

        The first half of a clean shutdown: call this, then drain/stop
        the service (whose fan-out close ends every stream with the
        ``event: end`` sentinel *after* the drain's frames were pushed),
        then :meth:`stop` to reap any straggler.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def stop(self) -> None:
        """Stop accepting and end every open connection (idempotent): the
        event loop's teardown logs a traceback per handler left parked."""
        await self.close_listener()
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)

    # -- request handling ------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            # One iteration per request on a kept-alive connection; the
            # exact Content-Length on every response is what keeps the
            # request boundary unambiguous across iterations.
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.CancelledError:
                    # stop() reaping an idle connection.  Return, not
                    # re-raise: the stream protocol's done callback calls
                    # task.exception(), which raises on a cancelled task.
                    return
                except ValueError as exc:
                    # Unparsable Content-Length, oversized body: the client
                    # deserves a 400, not a dropped connection and an
                    # unretrieved task exception in the loop.  The request
                    # framing is lost, so this connection cannot be reused.
                    await self._respond_json(writer, 400, {"error": str(exc)})
                    return
                if request is None:
                    return
                method, path, query, headers, body, version = request
                # Access log: one structured record per request line (a
                # no-op on the null log; /logs consumers filter by event).
                self.service.observability.log.emit(
                    "http_request", method=method, path=path
                )
                connection = headers.get("connection", "").lower()
                # HTTP/1.1 defaults to persistent connections; HTTP/1.0
                # only keeps alive on explicit request.
                if version == "HTTP/1.0":
                    keep_alive = connection == "keep-alive"
                else:
                    keep_alive = connection != "close"
                if method == "POST" and path == "/ingest":
                    keep_alive = await self._handle_ingest(
                        writer, body, keep_alive
                    )
                elif method == "GET" and path == "/rankings":
                    keep_alive = await self._handle_rankings(
                        writer, keep_alive
                    )
                elif method == "GET" and path == "/rankings/stream":
                    await self._handle_stream(writer)
                    return  # the stream owns the connection's lifetime
                elif method == "GET" and path == "/status":
                    status = self.service.status()
                    # A dead shard worker makes the node unfit for ingest:
                    # surface it as 503 so load balancers and probes fail
                    # over, with the structured body naming the shard.
                    code = 200 if status.get("healthy", True) else 503
                    keep_alive = await self._respond_json(
                        writer, code, status, keep_alive
                    )
                elif method == "GET" and path == "/metrics":
                    keep_alive = await self._respond_text(
                        writer, 200,
                        render_prometheus(self.service.observability.registry),
                        PROMETHEUS_CONTENT_TYPE,
                        keep_alive,
                    )
                elif method == "GET" and path == "/trace":
                    keep_alive = await self._handle_trace(
                        writer, query, keep_alive
                    )
                elif method == "GET" and path == "/profile":
                    keep_alive = await self._handle_profile(
                        writer, query, keep_alive
                    )
                elif method == "GET" and path == "/logs":
                    keep_alive = await self._handle_logs(
                        writer, query, keep_alive
                    )
                elif method == "GET" and path == "/slo":
                    observability = self.service.observability
                    keep_alive = await self._respond_json(writer, 200, {
                        "objectives": observability.slo.report(),
                        "summary": observability.slo.summary(),
                    }, keep_alive)
                else:
                    keep_alive = await self._respond_json(
                        writer, 404,
                        {"error": f"no route {method} {path}"},
                        keep_alive,
                    )
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, str, Dict[str, str], bytes, str]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, version = request_line.decode("latin-1").split()
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method.upper(), path, query, headers, body, version.upper()

    async def _handle_ingest(self, writer: asyncio.StreamWriter,
                             body: bytes, keep_alive: bool = False) -> bool:
        try:
            documents = parse_ingest_body(body)
        except ValueError as exc:
            return await self._respond_json(writer, 400, {"error": str(exc)},
                                            keep_alive)
        try:
            # This await is the backpressure: the response (and therefore
            # the producer's next request) waits for queue capacity.
            accepted = await self.service.submit(documents)
        except ValueError as exc:
            return await self._respond_json(writer, 400, {"error": str(exc)},
                                            keep_alive)
        except ServiceClosedError as exc:
            return await self._respond_json(writer, 503, {"error": str(exc)},
                                            keep_alive)
        except ShardExecutionError as exc:
            # The shard pool is gone (torn down, or the supervision
            # budget is spent): a clean 503 with Retry-After, never a raw
            # 500 or a dropped connection.
            return await self._respond_json(
                writer, 503,
                {"error": f"shard backend unavailable: {exc}",
                 "retry_after": RETRY_AFTER_SECONDS},
                keep_alive,
                extra_headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
        except Exception as exc:  # pragma: no cover - last-resort mapping
            return await self._respond_json(
                writer, 500, {"error": f"internal error: {exc!r}"},
                keep_alive,
            )
        return await self._respond_json(writer, 202, {
            "accepted": accepted,
            "queued_batches": self.service.queue_depth(),
        }, keep_alive)

    async def _handle_rankings(self, writer: asyncio.StreamWriter,
                               keep_alive: bool = False) -> bool:
        ranking = await self.service.current_ranking()
        payload = None if ranking is None else ranking_to_dict(ranking)
        degradation = self.service.degradation()
        return await self._respond_json(writer, 200, {
            "ranking": payload,
            # Degradation markers: while a shard recovers this is the
            # last-good ranking, flagged stale rather than withheld.
            "stale": degradation["stale"],
            "recovering_shards": degradation["recovering_shards"],
        }, keep_alive)

    async def _handle_stream(self, writer: asyncio.StreamWriter) -> None:
        try:
            subscription = self.service.subscribe()
        except RuntimeError:
            await self._respond_json(
                writer, 503, {"error": "ranking stream is closed"}
            )
            writer.close()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b": enblogue ranking stream\n\n"
        )
        try:
            await writer.drain()
            while True:
                message = await subscription.next_message()
                if message is None:
                    writer.write(b"event: end\ndata: {}\n\n")
                    await writer.drain()
                    break
                payload = ranking_to_dict(message.payload)
                degradation = self.service.degradation()
                if degradation["stale"]:
                    # Markers only while degraded: an undisturbed (or
                    # fully recovered) stream's frames stay byte-for-byte
                    # identical to a batch replay.
                    payload = dict(payload)
                    payload["stale"] = True
                    payload["recovering_shards"] = (
                        degradation["recovering_shards"]
                    )
                frame = json.dumps(payload, sort_keys=True)
                writer.write(
                    f"id: {message.sequence}\ndata: {frame}\n\n".encode("utf-8")
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self.service.unsubscribe(subscription)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_trace(self, writer: asyncio.StreamWriter,
                            query: str, keep_alive: bool = False) -> bool:
        last = DEFAULT_TRACE_LAST
        raw = parse_qs(query).get("last", [None])[0]
        if raw is not None:
            try:
                last = int(raw)
                if last < 0:
                    raise ValueError
            except ValueError:
                return await self._respond_json(
                    writer, 400,
                    {"error": f"'last' must be a non-negative integer, "
                              f"got {raw!r}"},
                    keep_alive,
                )
        return await self._respond_text(
            writer, 200,
            render_trace_ndjson(
                self.service.observability.tracer, last=last
            ),
            NDJSON_CONTENT_TYPE,
            keep_alive,
        )

    async def _handle_profile(self, writer: asyncio.StreamWriter,
                              query: str, keep_alive: bool = False) -> bool:
        params = parse_qs(query)
        raw = params.get("seconds", [None])[0]
        seconds = DEFAULT_PROFILE_SECONDS
        if raw is not None:
            try:
                seconds = float(raw)
                if not 0 <= seconds <= MAX_PROFILE_SECONDS:
                    raise ValueError
            except ValueError:
                return await self._respond_json(
                    writer, 400,
                    {"error": f"'seconds' must be a number in "
                              f"[0, {MAX_PROFILE_SECONDS:g}], got {raw!r}"},
                    keep_alive,
                )
        fmt = params.get("format", ["collapsed"])[0]
        if fmt not in ("collapsed", "json"):
            return await self._respond_json(
                writer, 400,
                {"error": f"'format' must be 'collapsed' or 'json', "
                          f"got {fmt!r}"},
                keep_alive,
            )
        profiler = self.service.observability.profiler
        # Carve the requested window out of the live counts: snapshot,
        # sample for `seconds`, diff.  A profiler someone else started
        # (e.g. the continuous CLI mode) keeps running afterwards; one
        # started here is stopped again so an idle server stays idle.
        baseline = profiler.counts()
        started_here = profiler.ensure_running()
        if seconds:
            await asyncio.sleep(seconds)
        counts = profiler.counts_since(baseline)
        if started_here:
            profiler.stop()
        if fmt == "json":
            return await self._respond_json(writer, 200, {
                "seconds": seconds,
                "samples": sum(counts.values()),
                "stacks": counts,
            }, keep_alive)
        return await self._respond_text(
            writer, 200, render_collapsed(counts),
            "text/plain; charset=utf-8", keep_alive,
        )

    async def _handle_logs(self, writer: asyncio.StreamWriter,
                           query: str, keep_alive: bool = False) -> bool:
        last = DEFAULT_LOGS_LAST
        raw = parse_qs(query).get("last", [None])[0]
        if raw is not None:
            try:
                last = int(raw)
                if last < 0:
                    raise ValueError
            except ValueError:
                return await self._respond_json(
                    writer, 400,
                    {"error": f"'last' must be a non-negative integer, "
                              f"got {raw!r}"},
                    keep_alive,
                )
        return await self._respond_text(
            writer, 200,
            self.service.observability.log.render_ndjson(last=last),
            NDJSON_CONTENT_TYPE,
            keep_alive,
        )

    _REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 500: "Internal Server Error",
                503: "Service Unavailable"}

    async def _respond_json(self, writer: asyncio.StreamWriter,
                            status: int, payload: dict,
                            keep_alive: bool = False,
                            extra_headers: Optional[Dict[str, str]] = None
                            ) -> bool:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return await self._respond_bytes(
            writer, status, body, "application/json", keep_alive,
            extra_headers,
        )

    async def _respond_text(self, writer: asyncio.StreamWriter,
                            status: int, text: str, content_type: str,
                            keep_alive: bool = False) -> bool:
        return await self._respond_bytes(
            writer, status, text.encode("utf-8"), content_type, keep_alive
        )

    async def _respond_bytes(self, writer: asyncio.StreamWriter,
                             status: int, body: bytes, content_type: str,
                             keep_alive: bool = False,
                             extra_headers: Optional[Dict[str, str]] = None
                             ) -> bool:
        # Error responses close even on HTTP/1.1: clients that hit them
        # read to EOF, and a stuck connection is worse than a re-dial.
        keep_alive = keep_alive and status < 400
        connection = "keep-alive" if keep_alive else "close"
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {self._REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {connection}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        return keep_alive
