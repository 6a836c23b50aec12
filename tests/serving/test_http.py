"""The HTTP face: ingest, rankings, SSE framing, status, error paths."""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import EnBlogue
from repro.core.personalization import UserProfile
from repro.portal.serialization import ranking_to_dict
from repro.serving import DetectionService, RankingServer, parse_ingest_body
from repro.serving.http import MAX_HEADER_LINES, IngestDocument

from differential import BY_REFERENCE, HOUR, TRANSPORTS, config, tweet_stream


@pytest.fixture(scope="module")
def docs():
    return tweet_stream(hours=12, per_hour=30, seed=11)


def doc_payload(document):
    return {
        "timestamp": document.timestamp,
        "tags": sorted(document.tags),
        "text": document.text,
    }


async def http_request(port, method, path, body=None):
    """One HTTP/1.1 request against localhost; returns (status, json)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1")
    writer.write(head + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ", 2)[1])
    return status, json.loads(body_blob)


async def send_on_connection(reader, writer, method, path, body=None,
                             version="HTTP/1.1", connection=None):
    """Send one request on an open connection; read one framed response.

    Returns ``(status, headers, json_body)`` without closing the socket,
    parsing exactly Content-Length body bytes so the connection stays
    usable for the next request.
    """
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    lines = [
        f"{method} {path} {version}",
        "Host: localhost",
        f"Content-Length: {len(payload)}",
    ]
    if connection is not None:
        lines.append(f"Connection: {connection}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + payload)
    await writer.drain()

    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body_blob = await reader.readexactly(length) if length else b""
    return status, headers, json.loads(body_blob) if body_blob else None


async def read_sse_frames(port, count, collected):
    """Read ``count`` data frames from the SSE stream into ``collected``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"GET /rankings/stream HTTP/1.1\r\nHost: localhost\r\n\r\n"
    )
    await writer.drain()
    try:
        while len(collected) < count:
            line = await reader.readline()
            if not line:
                break
            if line.startswith(b"data: "):
                payload = json.loads(line[len(b"data: "):])
                if payload:  # the end-of-stream frame is an empty object
                    collected.append(payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def read_sse_lines(port, path):
    """Every ``id:``/``data:`` line of one SSE stream, read to its end."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n"
                 .encode("latin-1"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    return [line for line in raw.split(b"\n")
            if line.startswith((b"id: ", b"data: "))]


#: The spellings of a non-finite timestamp a POST body can carry.
NON_FINITE_SPELLINGS = [b"NaN", b"Infinity", b"1e999", b'"inf"']


class TestParsing:
    def test_parse_ingest_accepts_array_and_wrapped_forms(self):
        raw = json.dumps([{"timestamp": 1.0, "tags": ["a", "b"]}])
        wrapped = json.dumps(
            {"documents": [{"timestamp": 1.0, "tags": ["a", "b"]}]}
        )
        for body in (raw, wrapped):
            documents = parse_ingest_body(body.encode())
            assert len(documents) == 1
            assert documents[0].timestamp == 1.0
            assert documents[0].tags == frozenset({"a", "b"})
            assert documents[0].entities == frozenset()

    @pytest.mark.parametrize("body", [
        b"not json",
        b"{}",
        b'[{"tags": ["a"]}]',              # no timestamp
        b'[{"timestamp": 1, "tags": "a"}]',  # tags must be an array
        b'["nope"]',
    ])
    def test_parse_ingest_rejects_malformed_bodies(self, body):
        with pytest.raises(ValueError):
            parse_ingest_body(body)

    @pytest.mark.parametrize("spelling", NON_FINITE_SPELLINGS)
    def test_parse_ingest_rejects_non_finite_timestamps(self, spelling):
        # json.loads takes every one of these; none is a stream time.
        body = b'[{"timestamp": %s, "tags": ["a", "b"]}]' % spelling
        with pytest.raises(ValueError, match="finite"):
            parse_ingest_body(body)

    @pytest.mark.parametrize("body", [
        b'[{"timestamp": 1.5, "tags": ["a", 2], "entities": ["E"],'
        b' "text": "t"}, {"timestamp": 2, "tags": []}]',
        b'{"documents": [{"timestamp": 1e3, "tags": ["\\u00e9"]}]}',
        b'[{"timestamp": 123456789012345678901234567890, "tags": ["a"]}]',
        b'\xef\xbb\xbf[{"timestamp": 1, "tags": ["a"]}]',  # a BOM
        b'[{"timestamp": NaN, "tags": ["a"]}]',
        b'[{"timestamp": 1e999, "tags": ["a"]}]',
        b'[{"timestamp": 1, "tags": ["\xff"]}]',  # not UTF-8
        b'[{"timestamp": 1, "tags": ["a"]},]',
        b"",
    ])
    def test_fast_and_stdlib_decoders_agree(self, body, monkeypatch):
        """Same documents, or the same 400 text, with orjson or without."""
        import repro.serving.http as http

        if http._orjson is None:
            pytest.skip("orjson is not installed: nothing to compare")

        def outcome():
            try:
                return [(d.timestamp, d.tags, d.entities, d.text)
                        for d in http.parse_ingest_body(body)]
            except ValueError as exc:
                return str(exc)

        fast = outcome()
        monkeypatch.setattr(http, "_orjson", None)
        assert outcome() == fast

    def test_a_numeric_tag_outside_64_bits_is_where_the_decoders_differ(
        self, monkeypatch
    ):
        """orjson reads such an integer as a float; ``_loads`` says so."""
        import repro.serving.http as http

        if http._orjson is None:
            pytest.skip("orjson is not installed: nothing to compare")
        body = (b'[{"timestamp": 1, "tags": [18446744073709551615,'
                b' 18446744073709551616]}]')
        (fast,) = http.parse_ingest_body(body)
        assert fast.tags == {"18446744073709551615", "1.8446744073709552e+19"}
        monkeypatch.setattr(http, "_orjson", None)
        (stdlib,) = http.parse_ingest_body(body)
        assert stdlib.tags == {"18446744073709551615", "18446744073709551616"}

    def test_documents_without_entities_share_one_empty_set(self):
        first, second = parse_ingest_body(
            b'[{"timestamp": 1, "tags": ["a"]},'
            b' {"timestamp": 2, "tags": ["b"], "entities": []}]'
        )
        assert first.entities is second.entities == frozenset()

    def test_ingest_document_shape_feeds_process_batch(self):
        engine = EnBlogue(config())
        documents = [
            IngestDocument({"timestamp": float(hour * HOUR),
                            "tags": ["alpha", "beta"]})
            for hour in range(4)
        ]
        rankings = engine.process_batch(documents)
        assert engine.documents_processed == 4
        assert len(rankings) == 3


class TestEndpoints:
    def test_reposted_tag_sets_hit_the_decomposition_memo(self):
        # The ingest payload carries frozensets, the shape the tracker's
        # decomposition memo keys on: a tag set seen before is neither
        # normalised nor paired again, whatever order it is posted in —
        # its documents get the very objects the first decomposition built.
        def batch(start, flip):
            tag_sets = [["alpha", "beta"], ["beta", "gamma", "delta"]]
            return [
                {"timestamp": float(start + index),
                 "tags": tags[::-1] if flip else tags}
                for index, tags in enumerate(tag_sets)
            ]

        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            memo = engine.tracker._decomposer._cache
            try:
                status, _ = await http_request(
                    server.port, "POST", "/ingest", batch(0, flip=False))
                assert status == 202
                await service.drain()
                first = dict(memo)
                status, _ = await http_request(
                    server.port, "POST", "/ingest", batch(10, flip=True))
                assert status == 202
                await service.drain()
                return first, dict(memo), engine
            finally:
                await server.stop()
                await service.stop()

        first, second, engine = asyncio.run(scenario())
        assert engine.documents_processed == 4
        assert len(first) == 2, "one memo entry per new tag set"
        assert second == first, "the re-posted tag sets were decomposed again"
        tag_events = list(engine.tracker.tag_window._events)
        pair_events = list(engine.tracker._pair_events)
        for reposted, original in ((2, 0), (3, 1)):
            assert tag_events[reposted][1] is tag_events[original][1]
            assert pair_events[reposted][1] is pair_events[original][1]

    def test_ingest_rankings_stream_and_status(self, docs):
        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            port = server.port

            frames = []
            reference = EnBlogue(config())
            expected = len(reference.process_batch(docs[:256]))
            reader_task = asyncio.ensure_future(
                read_sse_frames(port, expected, frames)
            )
            await asyncio.sleep(0.05)  # let the stream subscribe first

            status, body = await http_request(
                port, "POST", "/ingest", [doc_payload(d) for d in docs[:256]]
            )
            assert status == 202
            assert body["accepted"] == 256

            await asyncio.wait_for(reader_task, timeout=10.0)
            await service.drain()

            status, body = await http_request(port, "GET", "/rankings")
            assert status == 200

            status, state = await http_request(port, "GET", "/status")
            assert status == 200
            assert state["documents_processed"] == 256

            await server.stop()
            await service.stop()
            return engine, frames, body["ranking"]

        engine, frames, current = asyncio.run(scenario())
        reference = EnBlogue(config())
        reference.process_batch(docs[:256])
        # SSE frames round-trip through JSON bit-identically.
        assert frames == [
            ranking_to_dict(r) for r in reference.ranking_history()
        ]
        assert current == frames[-1]

    def test_user_stream_beside_an_unchanged_global_stream(self, docs):
        """A registered profile adds a channel: its client gets the
        personalised rankings, and the global client's lines stay byte
        for byte those of a server with no profile."""
        profile = UserProfile(user_id="alice", keywords=("sigmod", "athens"),
                              boost=4.0)

        async def scenario(register):
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            paths = ["/rankings/stream"]
            if register:
                await service.register_user(profile)
                paths.append("/rankings/stream?user=alice")
            server = RankingServer(service, port=0)
            await server.start()
            readers = [asyncio.ensure_future(read_sse_lines(server.port, path))
                       for path in paths]
            while service.status()["subscribers"] < len(paths):
                await asyncio.sleep(0.01)
            missing, _ = await http_request(
                server.port, "GET", "/rankings/stream?user=nobody")
            await service.submit(docs[:128])
            await service.submit(docs[128:256])
            await service.stop()
            streams = await asyncio.wait_for(asyncio.gather(*readers), 10.0)
            await server.stop()
            return engine, streams, missing

        plain_engine, (plain,), missing = asyncio.run(scenario(False))
        engine, (global_lines, user_lines), _ = asyncio.run(scenario(True))
        assert missing == 404
        history = engine.ranking_history()
        assert history == plain_engine.ranking_history()
        assert len(plain) == 2 * len(history) + 1  # id + data, end frame
        assert global_lines == plain
        user_frames = [json.loads(line[len(b"data: "):])
                       for line in user_lines if line.startswith(b"data: ")]
        assert user_frames[:-1] == [
            ranking_to_dict(engine.personalization.personalize(r, "alice"))
            for r in history
        ]
        assert user_frames[-1] == {}  # the end-of-stream frame

    def test_error_statuses(self, docs):
        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            port = server.port

            results = {}
            results["not_found"] = await http_request(port, "GET", "/nope")
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: 8\r\n\r\nnot json")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            results["bad_json"] = int(raw.split(b" ", 2)[1])

            # An unparsable Content-Length is a 400, not a dropped
            # connection with an unretrieved task exception in the loop.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: abc\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            results["bad_length"] = int(raw.split(b" ", 2)[1])

            await http_request(
                port, "POST", "/ingest",
                [doc_payload(d) for d in docs[10:20]],
            )
            results["out_of_order"] = await http_request(
                port, "POST", "/ingest",
                [doc_payload(d) for d in docs[:10]],
            )

            await service.stop()
            results["closed"] = await http_request(
                port, "POST", "/ingest", [doc_payload(docs[20])]
            )
            await server.stop()
            return results

        results = asyncio.run(scenario())
        assert results["not_found"][0] == 404
        assert results["bad_json"] == 400
        assert results["bad_length"] == 400
        assert results["out_of_order"][0] == 400
        assert "out-of-order" in results["out_of_order"][1]["error"]
        assert results["closed"][0] == 503

    def test_non_finite_timestamps_are_a_400_and_leave_the_engine_alone(
        self, docs
    ):
        # One such document used to park the engine executor forever
        # (inf: the boundary catch-up never catches up) or switch the
        # order check off (nan).
        async def post_raw(port, payload):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"POST /ingest HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            return int(head.split(b" ", 2)[1]), json.loads(body)

        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            try:
                await http_request(
                    server.port, "POST", "/ingest",
                    [doc_payload(d) for d in docs[:10]],
                )
                await service.drain()
                before = engine.snapshot()
                results = [
                    await post_raw(
                        server.port,
                        b'[{"timestamp": %s, "tags": ["a", "b"]}]' % spelling,
                    )
                    for spelling in NON_FINITE_SPELLINGS
                ]
                await service.drain()
                assert engine.snapshot() == before
                # The engine still takes the stream where it left off.
                status, _ = await http_request(
                    server.port, "POST", "/ingest",
                    [doc_payload(d) for d in docs[10:20]],
                )
                await asyncio.wait_for(service.drain(), timeout=10.0)
                return results, status, engine.documents_processed
            finally:
                await server.stop()
                await service.stop()

        results, status, processed = asyncio.run(scenario())
        assert [code for code, _ in results] == [400] * 4
        assert all("finite" in body["error"] for _, body in results)
        assert (status, processed) == (202, 20)

    def test_an_unadvanceable_timestamp_is_a_400_and_the_stream_goes_on(
        self, docs
    ):
        # At t = 1e20 one evaluation interval is below the float spacing:
        # such a document used to spin the engine executor forever.
        class TripwireEngine(EnBlogue):
            # Fails the batch instead of hanging should the document ever
            # get past submit().
            def process_batch(self, documents):
                documents = list(documents)
                if any(d.timestamp >= 1e19 for d in documents):
                    raise RuntimeError("far-future document reached the engine")
                return super().process_batch(documents)

        async def scenario():
            engine = TripwireEngine(config())
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            try:
                await http_request(
                    server.port, "POST", "/ingest",
                    [doc_payload(d) for d in docs[:10]],
                )
                await asyncio.wait_for(service.drain(), timeout=10.0)
                before = engine.snapshot()
                rejected = await http_request(
                    server.port, "POST", "/ingest",
                    [{"timestamp": 1e20, "tags": ["a", "b"]}],
                )
                await asyncio.wait_for(service.drain(), timeout=10.0)
                unchanged = engine.snapshot() == before
                accepted, _ = await http_request(
                    server.port, "POST", "/ingest",
                    [doc_payload(d) for d in docs[10:20]],
                )
                await asyncio.wait_for(service.drain(), timeout=10.0)
                return (rejected, unchanged, accepted,
                        engine.documents_processed, service.status())
            finally:
                await server.stop()
                await service.stop()

        (code, body), unchanged, accepted, processed, status = \
            asyncio.run(scenario())
        assert code == 400 and "out of range" in body["error"]
        assert unchanged
        assert (accepted, processed) == (202, 20)
        assert status["batch_errors"] == 0

    def test_keep_alive_serves_sequential_requests(self, docs):
        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            port = server.port

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                status, headers, _ = await send_on_connection(
                    reader, writer, "POST", "/ingest",
                    [doc_payload(d) for d in docs[:64]],
                )
                assert status == 202
                assert headers["connection"] == "keep-alive"
                await service.drain()
                # Same socket, second and third requests.
                status, headers, state = await send_on_connection(
                    reader, writer, "GET", "/status"
                )
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert state["documents_processed"] == 64
                status, _, body = await send_on_connection(
                    reader, writer, "GET", "/rankings"
                )
                assert status == 200
                assert "ranking" in body
            finally:
                writer.close()
                await writer.wait_closed()
            await server.stop()
            await service.stop()

        asyncio.run(scenario())

    def test_connection_close_is_honored(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            status, headers, _ = await send_on_connection(
                reader, writer, "GET", "/status", connection="close"
            )
            assert status == 200
            assert headers["connection"] == "close"
            assert await reader.read() == b""  # server closed its side
            writer.close()
            await server.stop()
            await service.stop()

        asyncio.run(scenario())

    def test_http_1_0_defaults_to_close(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            port = server.port

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            _, headers, _ = await send_on_connection(
                reader, writer, "GET", "/status", version="HTTP/1.0"
            )
            assert headers["connection"] == "close"
            assert await reader.read() == b""
            writer.close()

            # An explicit keep-alive request opts the 1.0 client in.
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            _, headers, _ = await send_on_connection(
                reader, writer, "GET", "/status", version="HTTP/1.0",
                connection="keep-alive",
            )
            assert headers["connection"] == "keep-alive"
            status, _, _ = await send_on_connection(
                reader, writer, "GET", "/status", version="HTTP/1.0",
                connection="keep-alive",
            )
            assert status == 200
            writer.close()
            await server.stop()
            await service.stop()

        asyncio.run(scenario())

    def test_error_response_closes_the_connection(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()

            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            status, headers, _ = await send_on_connection(
                reader, writer, "GET", "/nope", connection="keep-alive"
            )
            assert status == 404
            assert headers["connection"] == "close"
            assert await reader.read() == b""
            writer.close()
            await server.stop()
            await service.stop()

        asyncio.run(scenario())

    def test_rankings_null_before_first_evaluation(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            status, body = await http_request(server.port, "GET", "/rankings")
            await server.stop()
            await service.stop()
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body["ranking"] is None

    def test_rankings_carries_degradation_markers(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            status, body = await http_request(server.port, "GET", "/rankings")
            await server.stop()
            await service.stop()
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 200
        assert body["stale"] is False
        assert body["recovering_shards"] == []

    @pytest.mark.parametrize("transport", BY_REFERENCE)
    def test_dead_shard_pool_maps_ingest_to_503_with_retry_after(
            self, docs, transport):
        # An *unsupervised* worker death tears the pool down for good:
        # the first batch poisons the engine, the next POST /ingest gets
        # a clean 503 + Retry-After instead of a 500 or a hung socket.
        from repro.faults import FaultPlan
        from repro.sharding import ShardedEnBlogue

        async def scenario():
            backend = TRANSPORTS[transport]()
            backend.bind_fault_plan(
                FaultPlan().kill_worker(0, after_batches=1))
            engine = ShardedEnBlogue(config(), num_shards=2,
                                     backend=backend)
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            port = server.port
            try:
                status, _ = await http_request(
                    port, "POST", "/ingest",
                    [doc_payload(d) for d in docs[:256]],
                )
                assert status == 202  # accepted before the pool died
                await service.drain()

                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                status, headers, body = await send_on_connection(
                    reader, writer, "POST", "/ingest",
                    [doc_payload(docs[256])],
                )
                writer.close()
                await writer.wait_closed()

                _, state = await http_request(port, "GET", "/status")
                return status, headers, body, state
            finally:
                await server.stop()
                await service.stop()
                engine.close()

        status, headers, body, state = asyncio.run(scenario())
        assert status == 503
        assert headers["retry-after"] == "5"
        assert "shard backend unavailable" in body["error"]
        assert body["retry_after"] == 5
        # A dead worker with no supervision has no recovery coming:
        # /status reports the node unfit for ingest.
        assert state["healthy"] is False

    @pytest.mark.parametrize("transport", BY_REFERENCE)
    def test_supervised_recovery_keeps_serving_identical_rankings(
            self, docs, transport):
        from repro.faults import FaultPlan
        from repro.sharding import (
            RetryPolicy,
            ShardedEnBlogue,
            SupervisedBackend,
        )

        sleeps = []

        def fake_sleep(seconds):
            sleeps.append(seconds)

        async def scenario():
            policy = RetryPolicy(max_retries=3, backoff_base=0.01,
                                 sleep=fake_sleep)
            backend = SupervisedBackend(TRANSPORTS[transport](),
                                        policy=policy)
            backend.bind_fault_plan(
                FaultPlan(sleep=fake_sleep).kill_worker(1, after_batches=1))
            engine = ShardedEnBlogue(config(), num_shards=2,
                                     backend=backend)
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            port = server.port
            try:
                status, _ = await http_request(
                    port, "POST", "/ingest",
                    [doc_payload(d) for d in docs[:256]],
                )
                assert status == 202
                await service.drain()
                rankings_status, body = await http_request(
                    port, "GET", "/rankings")
                status_code, state = await http_request(
                    port, "GET", "/status")
                return rankings_status, body, status_code, state
            finally:
                await server.stop()
                await service.stop()
                engine.close()

        rankings_status, body, status_code, state = asyncio.run(scenario())
        assert rankings_status == 200 and status_code == 200
        assert state["healthy"] is True
        assert state["recoveries"] == 1
        assert state["permanent_failure"] is None
        assert state["stale"] is False  # recovery already completed
        assert state["backend"] == f"supervised[{transport}]"
        reference = EnBlogue(config())
        reference.process_batch([IngestDocument(doc_payload(d))
                                 for d in docs[:256]])
        assert body["ranking"] == ranking_to_dict(
            reference.ranking_history()[-1])
        assert body["stale"] is False

    def test_unexpected_submit_failure_maps_to_500(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()

            async def boom(documents):
                raise RuntimeError("wires crossed")

            service.submit = boom
            status, body = await http_request(
                server.port, "POST", "/ingest",
                [{"timestamp": 1.0, "tags": ["a", "b"]}],
            )
            await server.stop()
            await service.stop()
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 500
        assert "internal error" in body["error"]

    def test_stream_ends_cleanly_on_service_stop(self, docs):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            port = server.port

            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                b"GET /rankings/stream HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            await writer.drain()
            await asyncio.sleep(0.05)
            await service.submit(docs[:128])
            await service.stop()  # ends every subscription stream
            raw = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            await server.stop()
            return raw

        raw = asyncio.run(scenario())
        assert b"event: end" in raw

    def test_every_subscriber_sees_the_markers_while_a_shard_recovers(
        self, docs
    ):
        """Three streams, the same frames: marked while degraded, byte-clean
        once the shard is back."""

        class RecoveringEngine(EnBlogue):
            recovering = [1]

            def supervision_info(self):
                return {"recovering_shards": self.recovering,
                        "permanent_failure": None, "recoveries": 1}

        reference = EnBlogue(config())
        degraded = len(reference.process_batch(docs[:128]))
        expected = degraded + len(reference.process_batch(docs[128:256]))

        async def scenario():
            engine = RecoveringEngine(config())
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            streams = [[] for _ in range(3)]
            readers = [
                asyncio.ensure_future(
                    read_sse_frames(server.port, expected, frames))
                for frames in streams
            ]
            await asyncio.sleep(0.05)  # let the streams subscribe first
            await service.submit(docs[:128])
            for _ in range(1000):
                if all(len(frames) == degraded for frames in streams):
                    break
                await asyncio.sleep(0.01)
            engine.recovering = []  # the shard is back
            await service.submit(docs[128:256])
            await asyncio.wait_for(asyncio.gather(*readers), timeout=10.0)
            await server.stop()
            await service.stop()
            return streams

        streams = asyncio.run(scenario())
        assert streams[0] == streams[1] == streams[2]
        clean = [ranking_to_dict(r) for r in reference.ranking_history()]
        marked = [dict(frame, stale=True, recovering_shards=[1])
                  for frame in clean[:degraded]]
        assert degraded and streams[0] == marked + clean[degraded:]


#: A valid request that hostile bytes are pipelined behind.
VALID_GET = b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n"


@st.composite
def hostile_requests(draw):
    """Conflicting lengths, an oversized header block, a half-sent body,
    or garbage pipelined behind a valid request."""
    kind = draw(st.sampled_from(["lengths", "headers", "half", "garbage"]))
    if kind == "lengths":
        first, second = draw(st.lists(st.integers(0, 40), min_size=2,
                                      max_size=2, unique=True))
        return (b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n"
                b"Content-Length: %d\r\n\r\n%s"
                % (first, second, b"x" * max(first, second)))
    if kind == "headers":
        count = draw(st.integers(MAX_HEADER_LINES + 1, MAX_HEADER_LINES + 40))
        return b"GET /status HTTP/1.1\r\n" + b"".join(
            b"X-%d: y\r\n" % index for index in range(count)) + b"\r\n"
    if kind == "half":
        length = draw(st.integers(1, 64))
        sent = draw(st.integers(0, length - 1))
        return (b"POST /ingest HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (length, b"[" * sent))
    return VALID_GET + draw(st.binary(max_size=80))


class TestHostileFraming:
    """The hand-rolled parser answers what it cannot frame with a 400 and
    a close, leaves no task dying unobserved, and keeps serving."""

    @staticmethod
    def answers(attacks):
        """Send each raw attack on its own connection (then EOF); returns
        the status codes each connection was answered with, the loop's
        unhandled exceptions, and the status of a clean GET after."""

        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(
                lambda loop, context: unhandled.append(context))
            service = DetectionService(EnBlogue(config()))
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            answered = []
            try:
                for attack in attacks:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port)
                    writer.write(attack)
                    writer.write_eof()
                    raw = await asyncio.wait_for(reader.read(), 10.0)
                    writer.close()
                    answered.append([
                        int(line.split(b" ", 2)[1])
                        for line in raw.split(b"\r\n")
                        if line.startswith(b"HTTP/1.1 ")
                    ])
                after, _ = await http_request(server.port, "GET", "/status")
            finally:
                await server.stop()
                await service.stop()
            # The stream protocol reports a handler's exception from the
            # task's done callback: let every pending callback run.
            await asyncio.sleep(0)
            return answered, unhandled, after

        return asyncio.run(scenario())

    @pytest.mark.parametrize("attack", [
        b"POST /ingest HTTP/1.1\r\nContent-Length: 2\r\n"
        b"Content-Length: 3\r\n\r\n[] ",
        b"GET /status HTTP/1.1\r\n" + b"".join(
            b"X-Header-%d: x\r\n" % index
            for index in range(MAX_HEADER_LINES + 1)) + b"\r\n",
        b"GET /status\r\n\r\n",
        b"\r\n",
    ], ids=["conflicting-lengths", "header-flood", "two-token-line",
            "empty-line"])
    def test_unframeable_requests_are_a_400(self, attack):
        answered, unhandled, after = self.answers([attack])
        assert answered == [[400]]
        assert unhandled == [] and after == 200

    def test_repeated_equal_lengths_are_one_length(self):
        answered, _, _ = self.answers([
            b"POST /ingest HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Content-Length: 2\r\n\r\n[]"
        ])
        assert answered == [[202]]

    @settings(max_examples=25, deadline=None)
    @given(attacks=st.lists(hostile_requests(), min_size=1, max_size=3))
    def test_hostile_framing_is_a_4xx_or_a_close(self, attacks):
        answered, unhandled, after = self.answers(attacks)
        for attack, statuses in zip(attacks, answered):
            if attack.startswith(VALID_GET):
                assert statuses[:1] == [200]  # the valid request first
                statuses = statuses[1:]
            assert all(400 <= status < 500 for status in statuses), statuses
        assert unhandled == []
        assert after == 200
