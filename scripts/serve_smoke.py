#!/usr/bin/env python3
"""Serve a 2-shard engine, ingest, stream, delta-checkpoint, resume.

    PYTHONPATH=src python scripts/serve_smoke.py [--backend threads]

Serves a 2-shard engine as a subprocess with delta checkpoints every two
rankings, posts 120 documents and demands: an SSE ranking frame; a
``/status`` runtime report naming the engine that was asked for; a valid
Prometheus scrape covering every pipeline layer; per-batch span trees on
``/trace``; a non-empty collapsed ``/profile``; every declared objective
on ``/slo``; and ``/logs`` records that correlate with the served traces.
After a SIGTERM drain the journal segments must be on disk, and a second
server resumed from them (on ``--port`` + 1) must push a ranking frame
for the rest of the stream.  A third server (``--port`` + 2) takes
4 x ``--queue-capacity`` POSTs pipelined on one connection — every one a
202, the SSE frames in sequence and equal to an offline replay, and the
engine-call count on ``/metrics`` below the batch count.
"""

import argparse
import json
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request

from repro.core.config import live_stream_config
from repro.core.engine import EnBlogue
from repro.datasets.twitter import TweetStreamGenerator
from repro.observability import parse_prometheus_families
from repro.portal.serialization import ranking_to_dict

HOST = "127.0.0.1"


def spawn(port, extra):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--host", HOST, "--port", str(port)] + extra,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        assert process.poll() is None, "server exited early"
        try:
            with socket.create_connection((HOST, port), 0.5):
                return process
        except OSError:
            time.sleep(0.2)
    stop(process)
    raise AssertionError("server never came up")


def stop(process):
    process.send_signal(signal.SIGTERM)
    process.wait(timeout=60)


def post(port, payload):
    request = urllib.request.Request(
        f"http://{HOST}:{port}/ingest",
        data=json.dumps(payload).encode(), method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def get(port, path, timeout=30):
    with urllib.request.urlopen(
            f"http://{HOST}:{port}{path}", timeout=timeout) as response:
        assert response.status == 200, (path, response.status)
        return response.read().decode()


def get_lines(port, path):
    return [json.loads(line) for line in get(port, path).splitlines() if line]


def open_sse(port):
    stream = socket.create_connection((HOST, port), 30)
    stream.sendall(b"GET /rankings/stream HTTP/1.1\r\nHost: x\r\n\r\n")
    stream.settimeout(30)
    return stream


def read_frames(stream, count):
    """The next ``count`` SSE frames as ``(id, payload)`` pairs."""
    blob = b""
    while blob.count(b"\ndata: ") < count or not blob.endswith(b"\n\n"):
        chunk = stream.recv(65536)
        assert chunk, f"stream closed after {blob.count(b'data: ')} frame(s)"
        blob += chunk
    lines = blob.split(b"\n")
    return list(zip(
        [int(line[len(b"id: "):]) for line in lines
         if line.startswith(b"id: ")],
        [json.loads(line[len(b"data: "):]) for line in lines
         if line.startswith(b"data: ")],
    ))


def read_frame(stream):
    return read_frames(stream, 1)[0][1]


def pipelined(port, engine, capacity=8):
    """4 x capacity POSTs on one connection before the first 202 is read."""
    corpus, _ = TweetStreamGenerator(hours=16, tweets_per_hour=40,
                                     seed=9).generate()
    documents = list(corpus)
    count = 4 * capacity
    size = len(documents) // count
    cuts = [index * size for index in range(count)] + [len(documents)]
    batches = [documents[start:end] for start, end in zip(cuts, cuts[1:])]
    reference = EnBlogue(live_stream_config())
    expected = json.loads(json.dumps(
        [ranking_to_dict(r) for r in reference.process_batch(documents)]))
    assert len(expected) >= 4, "the stream must cross several boundaries"

    requests = []
    for batch in batches:
        body = json.dumps([{"timestamp": d.timestamp, "tags": sorted(d.tags)}
                           for d in batch]).encode()
        requests.append(
            b"POST /ingest HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)

    server = spawn(port, engine + ["--queue-capacity", str(capacity)])
    try:
        stream = open_sse(port)
        with socket.create_connection((HOST, port), 30) as producer:
            producer.sendall(b"".join(requests))
            reader = producer.makefile("rb")
            for batch in batches:
                status_line = reader.readline()
                assert status_line.split()[1] == b"202", status_line
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                assert json.loads(reader.read(length))["accepted"] \
                    == len(batch)
        frames = read_frames(stream, len(expected))
        stream.close()
        assert [sequence for sequence, _ in frames] \
            == list(range(len(expected))), frames
        assert [payload for _, payload in frames] == expected, \
            "pipelined frames differ from the offline replay"
        scrape = get(port, "/metrics")

        def total(name):
            for line in scrape.splitlines():
                if line.startswith(name + " "):
                    return int(float(line.split()[1]))
            raise AssertionError(f"scrape is missing {name}")

        submitted = total("repro_serving_batches_submitted_total")
        processed = total("repro_serving_batches_processed_total")
        calls = total("repro_core_batches_total")
        assert submitted == processed == count, (submitted, processed)
        # 32 POSTs written at once against a queue of 8 must group.
        assert calls < processed, (calls, processed)
        print(f"pipelined: {count} POSTs -> {calls} engine call(s), "
              f"{processed / calls:.2f} batches per call, "
              f"{len(frames)} frame(s) equal to the offline replay")
    finally:
        stop(server)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="process",
                        choices=("process", "threads"),
                        help="the transport the 2-shard pool runs on")
    parser.add_argument("--port", type=int, default=8731,
                        help="the resumed server takes the next port up")
    args = parser.parse_args()
    port = args.port
    engine = ["--shards", "2", "--backend", args.backend]

    corpus, _ = TweetStreamGenerator(hours=10, tweets_per_hour=20,
                                     seed=5).generate()
    docs = [{"timestamp": d.timestamp, "tags": sorted(d.tags),
             "text": d.text} for d in corpus]

    with tempfile.TemporaryDirectory(prefix="serve-ckpt-") as directory:
        server = spawn(port, engine + [
            "--checkpoint-dir", directory, "--checkpoint-every", "2"])
        try:
            stream = open_sse(port)
            status, body = post(port, docs[:120])
            assert status == 202 and body["accepted"] == 120, body
            frame = read_frame(stream)
            assert "topics" in frame, frame
            stream.close()

            state = json.loads(get(port, "/status"))
            assert state["engine"] == "sharded", state
            assert state["backend"] == args.backend, state
            assert state["shards"] == 2, state
            assert state["evaluation_path"] == "vectorized", state
            print(f"/status reports backend={state['backend']} "
                  f"evaluation_path={state['evaluation_path']}")

            # The same serve must expose a valid Prometheus scrape
            # covering every pipeline layer, and per-batch span trees.
            scrape = get(port, "/metrics")
            families = parse_prometheus_families(scrape)
            for needed in ("repro_core_documents_total",
                           "repro_core_evaluation_seconds",
                           "repro_sharding_dispatch_seconds",
                           "repro_serving_sse_frames_total",
                           "repro_persistence_checkpoint_seconds",
                           "repro_pipeline_stage_seconds"):
                assert needed in families, f"scrape is missing {needed}"
            assert "repro_core_documents_total 120" in scrape, \
                "scrape does not carry the ingested document count"
            traces = get_lines(port, "/trace?last=8")
            assert traces, "GET /trace returned no span trees"
            assert any(trace["trace_id"].startswith("batch-")
                       for trace in traces), traces
            print(f"/metrics exposes {len(families)} families, "
                  f"/trace holds {len(traces)} span tree(s)")

            # Continuous profiling: a short window over the live server
            # must produce a non-empty collapsed profile whose every
            # line is "folded;stack count".
            collapsed = get(port, "/profile?seconds=1", timeout=60).strip()
            assert collapsed, "collapsed profile came back empty"
            for line in collapsed.splitlines():
                stack, _, count = line.rpartition(" ")
                assert stack and int(count) > 0, line

            # SLO report: every declared objective, all three windows.
            slo = json.loads(get(port, "/slo"))
            names = {o["name"] for o in slo["objectives"]}
            assert {"batch_latency", "ingest_availability",
                    "sse_delivery"} <= names, slo
            for objective in slo["objectives"]:
                assert set(objective["windows"]) \
                    == {"5m", "1h", "total"}, objective

            # Structured logs: NDJSON envelope on every record, and the
            # batch records correlate with the span trees /trace serves.
            records = get_lines(port, "/logs?last=200")
            assert records, "GET /logs returned no records"
            for record in records:
                assert {"seq", "ts", "level", "event"} <= set(record), record
            batch_logs = [r for r in records if r["event"] == "batch"]
            assert batch_logs, "no batch record in the event log"
            trace_ids = {trace["trace_id"] for trace in traces}
            assert any(r.get("trace_id") in trace_ids for r in batch_logs), \
                "no batch log record correlates with a served trace"
            print(f"/profile: {len(collapsed.splitlines())} stack(s); "
                  f"/slo: {len(names)} objective(s); "
                  f"/logs: {len(records)} record(s)")
        finally:
            stop(server)
        segments = list(pathlib.Path(directory).glob("*.delta"))
        assert segments, "no delta checkpoint landed while serving"
        print(f"SSE frame at t={frame['timestamp']}, "
              f"{len(segments)} journal segment(s) on disk")

        resumed = spawn(port + 1, engine + ["--resume", directory])
        try:
            stream = open_sse(port + 1)
            status, body = post(port + 1, docs[120:])
            assert status == 202, body
            frame = read_frame(stream)
            assert "topics" in frame, frame
            stream.close()
        finally:
            stop(resumed)
    pipelined(port + 2, engine)
    print(f"[{args.backend}] resumed serve pushed a ranking frame — "
          "smoke green")


if __name__ == "__main__":
    main()
