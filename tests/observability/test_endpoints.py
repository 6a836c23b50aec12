"""GET /metrics, /trace, /profile, /logs and /slo over a live server."""

import asyncio
import json

import pytest

from repro.core.engine import EnBlogue
from repro.observability import (
    NDJSON_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    Observability,
    parse_prometheus_families,
)
from repro.serving import DetectionService, RankingServer

from differential import HOUR, config, tweet_stream


@pytest.fixture(scope="module")
def docs():
    return tweet_stream(hours=12, per_hour=30, seed=11)


async def raw_request(port, method, path, body=None):
    """One request; returns (status, headers, body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    writer.write((
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("latin-1") + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
    lines = header_blob.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body_blob


async def serve_ingested(docs, count=256):
    """A started service+server with ``count`` documents processed."""
    engine = EnBlogue(config(), observability=Observability())
    # The service adopts the engine's enabled bundle: one registry for
    # the whole stack, exactly like the CLI's serve wiring.
    service = DetectionService(engine)
    await service.start()
    server = RankingServer(service, port=0)
    await server.start()
    await service.submit(docs[:count])
    await service.drain()
    return engine, service, server


async def teardown(service, server):
    await server.stop()
    await service.stop()


class TestMetricsEndpoint:
    def test_scrape_is_valid_and_covers_the_pipeline(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs)
            status, headers, body = await raw_request(
                server.port, "GET", "/metrics")
            await teardown(service, server)
            return status, headers, body.decode("utf-8")

        status, headers, text = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        families = parse_prometheus_families(text)  # raises when malformed
        # Every layer of the pipeline reports under the one contract.
        for required in (
            "repro_core_documents_total",
            "repro_core_evaluation_seconds",
            "repro_pipeline_stage_seconds",
            "repro_sharding_dispatch_seconds",
            "repro_serving_documents_processed_total",
            "repro_serving_sse_frames_total",
            "repro_persistence_checkpoint_seconds",
        ):
            assert required in families, required
        # /status and /metrics read the same counters, so the scrape
        # carries real values, not just declarations.
        assert "repro_core_documents_total 256" in text
        assert "repro_serving_documents_processed_total 256" in text
        assert 'repro_core_evaluation_seconds_count{path="' in text

    def test_status_and_metrics_agree(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs)
            metrics_status, _headers, body = await raw_request(
                server.port, "GET", "/metrics")
            status_code, _headers, status_body = await raw_request(
                server.port, "GET", "/status")
            await teardown(service, server)
            return body.decode("utf-8"), json.loads(status_body)

        text, status = asyncio.run(scenario())
        expected = status["documents_processed"]
        assert f"repro_serving_documents_processed_total {expected}" in text
        assert f"repro_serving_rankings_published_total " \
               f"{status['rankings_published']}" in text


    def test_submission_publish_error_and_queue_families_match_status(
        self, docs
    ):
        """After a known ingest with one raising subscriber, the scrape
        reads each of these families as /status reads its field."""

        def exploding(message):
            raise RuntimeError("subscriber blew up")

        async def scenario():
            engine = EnBlogue(config(), observability=Observability())
            service = DetectionService(engine)
            await service.start()
            service.subscribe().deliver = exploding
            server = RankingServer(service, port=0)
            await server.start()
            for start in range(0, 256, 64):
                await service.submit(docs[start:start + 64])
            await service.drain()
            _s, _h, metrics = await raw_request(server.port, "GET", "/metrics")
            _s, _h, status = await raw_request(server.port, "GET", "/status")
            await teardown(service, server)
            return metrics.decode("utf-8"), json.loads(status)

        text, status = asyncio.run(scenario())
        assert status["documents_submitted"] == 256
        assert status["publish_errors"] > 0
        assert status["queue_high_watermark"] >= 1
        for field, family in (
            ("documents_submitted", "repro_serving_documents_submitted_total"),
            ("publish_errors", "repro_serving_publish_errors_total"),
            ("queue_high_watermark", "repro_serving_queue_high_watermark"),
        ):
            assert sample_value(text, family) == status[field], family


def sample_value(text, family):
    """The value of the unlabeled sample of ``family`` in a scrape."""
    values = [float(line.rsplit(" ", 1)[1]) for line in text.splitlines()
              if line.startswith(family + " ")]
    assert len(values) == 1, f"{family} has {len(values)} unlabeled samples"
    return values[0]


class TestTraceEndpoint:
    def test_trace_returns_wellformed_ndjson_span_trees(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs, count=200)
            # Two more batches so /trace holds several per-batch trees
            # and the ``last=`` cap has something to cut.
            for start in (200, 230):
                await service.submit(docs[start:start + 30])
            await service.drain()
            status, headers, body = await raw_request(
                server.port, "GET", "/trace?last=50")
            capped_status, _h, capped = await raw_request(
                server.port, "GET", "/trace?last=2")
            await teardown(service, server)
            return status, headers, body, capped_status, capped

        status, headers, body, capped_status, capped = asyncio.run(scenario())
        assert status == 200 and capped_status == 200
        assert headers["content-type"] == NDJSON_CONTENT_TYPE
        traces = [json.loads(line)
                  for line in body.decode("utf-8").strip().splitlines()]
        assert traces, "ingest must leave per-batch traces behind"
        batches = [t for t in traces if t["trace_id"].startswith("batch-")]
        assert batches
        for trace in traces:
            assert set(trace) == {"trace_id", "spans"}
            for span in trace["spans"]:
                assert {"span_id", "name", "start",
                        "duration_us"} <= set(span)
        # The batch root span carries the stage tree under it.
        root = batches[0]["spans"][0]
        child_names = {child["name"]
                       for child in root.get("children", [])}
        assert "ingest" in child_names
        assert len(capped.decode("utf-8").strip().splitlines()) == 2

    def test_trace_rejects_malformed_last(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs, count=8)
            results = []
            for query in ("last=-1", "last=abc"):
                status, _headers, _body = await raw_request(
                    server.port, "GET", f"/trace?{query}")
                results.append(status)
            await teardown(service, server)
            return results

        assert asyncio.run(scenario()) == [400, 400]


class TestProfileEndpoint:
    def test_collapsed_profile_of_a_busy_server(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs, count=64)
            # Keep the engine busy while the profile window runs so the
            # samples catch real work, not just the idle event loop.
            ingest = asyncio.ensure_future(service.submit(docs[64:256]))
            status, headers, body = await raw_request(
                server.port, "GET", "/profile?seconds=0.3")
            await ingest
            await service.drain()
            json_status, _h, json_body = await raw_request(
                server.port, "GET", "/profile?seconds=0.1&format=json")
            await teardown(service, server)
            return status, headers, body.decode(), json_status, json_body

        status, headers, body, json_status, json_body = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        lines = body.strip().splitlines()
        assert lines, "a busy 300ms window must capture samples"
        for line in lines:
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            assert ";" in stack or "(" in stack
        assert json_status == 200
        payload = json.loads(json_body)
        assert set(payload) == {"seconds", "samples", "stacks"}
        assert payload["samples"] == sum(payload["stacks"].values())

    def test_profile_stops_when_it_started_the_sampler(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs, count=8)
            profiler = service.observability.profiler
            await raw_request(server.port, "GET", "/profile?seconds=0.05")
            stopped_after = profiler.running
            profiler.start()
            await raw_request(server.port, "GET", "/profile?seconds=0.05")
            kept_running = profiler.running
            await teardown(service, server)
            profiler.stop()
            return stopped_after, kept_running

        stopped_after, kept_running = asyncio.run(scenario())
        assert stopped_after is False  # one-shot windows clean up
        assert kept_running is True    # a continuous sampler is left alone

    def test_profile_rejects_malformed_parameters(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs, count=8)
            codes = []
            for query in ("seconds=abc", "seconds=-1", "seconds=9999",
                          "format=xml"):
                status, _h, _b = await raw_request(
                    server.port, "GET", f"/profile?{query}")
                codes.append(status)
            await teardown(service, server)
            return codes

        assert asyncio.run(scenario()) == [400, 400, 400, 400]


class TestLogsEndpoint:
    def test_logs_are_ndjson_with_trace_correlated_batch_records(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs)
            status, headers, body = await raw_request(
                server.port, "GET", "/logs?last=200")
            trace_status, _h, trace_body = await raw_request(
                server.port, "GET", "/trace?last=50")
            await teardown(service, server)
            return status, headers, body.decode(), trace_body.decode()

        status, headers, text, trace_text = asyncio.run(scenario())
        assert status == 200
        assert headers["content-type"] == NDJSON_CONTENT_TYPE
        records = [json.loads(line) for line in text.strip().splitlines()]
        for record in records:
            assert {"seq", "ts", "level", "event"} <= set(record)
        sequences = [record["seq"] for record in records]
        assert sequences == sorted(sequences)
        batches = [r for r in records if r["event"] == "batch"]
        assert batches and batches[0]["documents"] > 0
        # The batch record carries the trace id of the span tree /trace
        # shows for the same batch — the log↔trace correlation contract.
        trace_ids = {json.loads(line)["trace_id"]
                     for line in trace_text.strip().splitlines()}
        assert batches[0]["trace_id"] in trace_ids
        requests = [r for r in records if r["event"] == "http_request"]
        assert any(r["path"] == "/logs" for r in requests)

    def test_logs_last_caps_and_rejects_garbage(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs, count=8)
            _s, _h, capped = await raw_request(
                server.port, "GET", "/logs?last=1")
            bad_status, _h, _b = await raw_request(
                server.port, "GET", "/logs?last=nope")
            await teardown(service, server)
            return capped.decode(), bad_status

        capped, bad_status = asyncio.run(scenario())
        assert len(capped.strip().splitlines()) == 1
        assert bad_status == 400


class TestSloEndpoint:
    def test_slo_reports_objectives_and_status_inlines_the_digest(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs)
            status, _headers, body = await raw_request(
                server.port, "GET", "/slo")
            _s, _h, status_body = await raw_request(
                server.port, "GET", "/status")
            await teardown(service, server)
            return status, json.loads(body), json.loads(status_body)

        status, payload, service_status = asyncio.run(scenario())
        assert status == 200
        names = {o["name"] for o in payload["objectives"]}
        assert names == {"batch_latency", "ingest_availability",
                         "sse_delivery"}
        for objective in payload["objectives"]:
            assert set(objective["windows"]) == {"5m", "1h", "total"}
            for window in objective["windows"].values():
                assert {"good", "total", "attainment",
                        "burn_rate"} <= set(window)
        # An undisturbed replay keeps every objective green.
        assert all(entry["met"]
                   for entry in payload["summary"].values())
        assert service_status["slo"] == payload["summary"]

    def test_slo_metrics_appear_on_the_scrape(self, docs):
        async def scenario():
            _engine, service, server = await serve_ingested(docs)
            await raw_request(server.port, "GET", "/slo")
            _s, _h, body = await raw_request(server.port, "GET", "/metrics")
            await teardown(service, server)
            return body.decode()

        text = asyncio.run(scenario())
        families = parse_prometheus_families(text)
        for name in ("repro_slo_ticks_total", "repro_slo_attainment",
                     "repro_slo_burn_rate", "repro_logging_records_total",
                     "repro_serving_batch_seconds",
                     "repro_profiling_samples_total"):
            assert name in families, name
        assert 'repro_slo_attainment{objective="batch_latency"' in text


    def test_custom_objectives_swapped_in_are_served(self, docs):
        # README's recipe: a deployment replaces the bundle's tracker with
        # one over its own objectives before the service starts.
        from repro.observability import SloObjective, SloTracker

        async def scenario():
            observability = Observability()
            observability.slo = SloTracker(observability.registry, objectives=[
                SloObjective(name="fast_batches", kind="latency",
                             target=0.999,
                             metric="repro_serving_batch_seconds",
                             threshold_s=0.1),
            ])
            engine = EnBlogue(config(), observability=observability)
            service = DetectionService(engine)
            await service.start()
            server = RankingServer(service, port=0)
            await server.start()
            await service.submit(docs[:64])
            await service.drain()
            status, _headers, body = await raw_request(
                server.port, "GET", "/slo")
            await teardown(service, server)
            return status, json.loads(body)

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert [o["name"] for o in payload["objectives"]] == ["fast_batches"]
        assert set(payload["summary"]) == {"fast_batches"}


class TestShardHealth:
    def test_status_turns_503_when_a_shard_dies(self, docs):
        async def scenario():
            engine, service, server = await serve_ingested(docs, count=64)
            healthy_status, _h, _b = await raw_request(
                server.port, "GET", "/status")
            # Simulate a dead worker; the serving layer only reads the
            # health records, so the injection point is the engine API.
            engine.shard_health = lambda: [
                {"shard": 0, "alive": True, "pair_events": 10},
                {"shard": 1, "alive": False, "pair_events": 0},
            ]
            dead_status, _h, body = await raw_request(
                server.port, "GET", "/status")
            await teardown(service, server)
            return healthy_status, dead_status, json.loads(body)

        healthy_status, dead_status, body = asyncio.run(scenario())
        assert healthy_status == 200
        assert dead_status == 503
        assert body["healthy"] is False
        dead = [record for record in body["shard_health"]
                if not record["alive"]]
        assert dead and dead[0]["shard"] == 1
