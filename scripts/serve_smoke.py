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
for the rest of the stream.
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

from repro.datasets.twitter import TweetStreamGenerator
from repro.observability import parse_prometheus_families

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


def read_frame(stream):
    blob = b""
    while True:
        chunk = stream.recv(4096)
        assert chunk, f"stream closed without a frame: {blob!r}"
        blob += chunk
        if b"\ndata: " in blob and b"\n\n" in blob.split(b"\ndata: ", 1)[1]:
            break
    for line in blob.split(b"\n"):
        if line.startswith(b"data: "):
            return json.loads(line[len(b"data: "):])


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
            "--checkpoint-dir", directory, "--checkpoint-every", "2",
            "--checkpoint-mode", "delta"])
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
    print(f"[{args.backend}] resumed serve pushed a ranking frame — "
          "smoke green")


if __name__ == "__main__":
    main()
