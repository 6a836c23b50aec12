#!/usr/bin/env python3
"""Kill a shard worker under a serving node and demand exact recovery.

    PYTHONPATH=src python scripts/chaos_smoke.py [--backend process]

Serves a supervised 2-shard engine as a subprocess.  The fault plan rides
the environment into it: the seventh ingest dispatch to shard 0 — inside
the second POST, after the first POST's checkpoint ticks — kills its
worker right after delivery.  The supervisor must rebuild the shard from
its operation log while serving keeps accepting documents, ``/status``
must report the recovery, and the final SSE frame must be bit-identical
to an undisturbed in-process replay of the same stream — recovery is
exact or it is a failure.  ``/logs`` must carry the injection → recovery
trail, trace-correlated with the supervisor's ``recovery`` span.  A delta
journal is armed throughout, so the recovery replays journal drains, and
the checkpoint the server drains into at shutdown must restore to the
state of an undisturbed engine.
"""

import argparse
import json
import os
import shutil
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
from repro.persistence import read_checkpoint
from repro.portal.serialization import ranking_to_dict
from repro.sharding import ShardedEnBlogue

HOST = "127.0.0.1"


def span_names(spans, names):
    for span in spans:
        names.add(span["name"])
        span_names(span.get("children", []), names)
    return names


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", default="process",
                        choices=("serial", "threads", "process"),
                        help="the transport the supervised pool runs on")
    parser.add_argument("--port", type=int, default=8741)
    args = parser.parse_args()
    base = f"http://{HOST}:{args.port}"

    corpus, _ = TweetStreamGenerator(hours=10, tweets_per_hour=20,
                                     seed=5).generate()
    docs = list(corpus)
    payloads = [{"timestamp": d.timestamp, "tags": sorted(d.tags),
                 "text": d.text} for d in docs]

    reference = EnBlogue(live_stream_config())
    reference.process_batch(docs)
    expected_frames = len(reference.ranking_history())
    final_expected = ranking_to_dict(reference.ranking_history()[-1])
    assert expected_frames >= 2, "workload too small to mean anything"

    plan = json.dumps([{"site": "dispatch", "action": "kill",
                        "after": 6, "times": 1, "shard": 0,
                        "operation": "ingest"}])
    journal = tempfile.mkdtemp(prefix="chaos-journal-")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--host", HOST, "--port", str(args.port),
         "--shards", "2", "--backend", args.backend, "--supervise",
         "--max-retries", "3", "--retry-backoff", "0.05",
         "--checkpoint-dir", journal, "--checkpoint-every", "1"],
        env={**os.environ, "REPRO_FAULT_PLAN": plan},
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        assert process.poll() is None, "server exited early"
        try:
            with socket.create_connection((HOST, args.port), 0.5):
                break
        except OSError:
            time.sleep(0.2)
    else:
        raise AssertionError("server never came up")

    def post(payload):
        request = urllib.request.Request(
            f"{base}/ingest", data=json.dumps(payload).encode(),
            method="POST")
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())

    def get_lines(path):
        with urllib.request.urlopen(f"{base}{path}", timeout=30) as response:
            return [json.loads(line) for line
                    in response.read().decode().splitlines() if line]

    try:
        stream = socket.create_connection((HOST, args.port), 30)
        stream.sendall(b"GET /rankings/stream HTTP/1.1\r\nHost: x\r\n\r\n")
        stream.settimeout(60)

        # Two batches: a dispatch of the second one to shard 0 is the
        # scripted murder — ingest must still answer 202 throughout.
        status, body = post(payloads[:120])
        assert status == 202 and body["accepted"] == 120, body
        status, body = post(payloads[120:])
        assert status == 202, body

        frames, blob = [], b""
        while len(frames) < expected_frames:
            chunk = stream.recv(4096)
            assert chunk, f"stream closed early after {len(frames)}"
            blob += chunk
            *complete, blob = blob.split(b"\n\n")
            for part in complete:
                for line in part.split(b"\n"):
                    if line.startswith(b"data: "):
                        payload = json.loads(line[len(b"data: "):])
                        if payload:
                            frames.append(payload)
        stream.close()

        final = dict(frames[-1])
        final.pop("stale", None)
        final.pop("recovering_shards", None)
        assert final == final_expected, \
            "post-recovery SSE frame differs from the undisturbed replay"

        with urllib.request.urlopen(f"{base}/status", timeout=30) as response:
            state = json.loads(response.read())
        assert state["healthy"] is True, state
        assert state["recoveries"] >= 1, state
        assert state["permanent_failure"] is None, state
        assert state["backend"] == f"supervised[{args.backend}]", state

        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
            scrape = response.read().decode()
        recovered = [line for line in scrape.splitlines()
                     if line.startswith("repro_sharding_recoveries_total ")]
        assert recovered and float(recovered[0].split()[1]) >= 1, \
            "metrics scrape does not show the recovery"
        # The plan kills shard 0 once: its death is counted once, under it.
        dead = [line for line in scrape.splitlines()
                if line.startswith("repro_sharding_dead_workers_total{")]
        assert dead == ['repro_sharding_dead_workers_total{shard="0"} 1'], \
            f"metrics scrape does not show the one killed shard: {dead}"

        # The structured event log must carry the whole recovery trail,
        # and the recovery records must share the trace id of the span
        # tree in which the supervisor rebuilt the shard.
        records = get_lines("/logs?last=400")
        injected = [r for r in records if r["event"] == "fault_injected"]
        recoveries = [r for r in records if r["event"] == "recovery"]
        assert injected, "no fault_injected record in /logs"
        assert recoveries, "no recovery record in /logs"
        # The kill must land after a journal drain, or the recovery never
        # replays one; a change in how POSTs batch into engine calls
        # that moves the kill earlier fails here, not silently.
        kill_at = records.index(injected[0])
        assert any(r["event"] == "checkpoint" and r.get("mode") == "delta"
                   for r in records[:kill_at]), \
            "the scripted kill fired before any delta checkpoint"
        recovery_traces = {
            trace["trace_id"] for trace in get_lines("/trace?last=64")
            if "recovery" in span_names(trace["spans"], set())}
        assert recovery_traces, "no recovery span in /trace"
        assert any(r.get("trace_id") in recovery_traces
                   for r in recoveries), \
            "recovery log records share no trace with the recovery span"

        # Base + folded journal must equal the state of an undisturbed
        # 2-shard engine fed the same two batches, shard states included.
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0, "server did not drain cleanly"
        with ShardedEnBlogue(live_stream_config(), num_shards=2) as clean:
            clean.process_batch(docs[:120])
            clean.process_batch(docs[120:])
            expected_state = json.loads(json.dumps(clean.snapshot()))
        assert read_checkpoint(journal)[1] == expected_state, \
            "the journal written across the recovery restores wrong"
        print(f"[{args.backend}] recovered {state['recoveries']} time(s); "
              f"{len(frames)} SSE frame(s) bit-identical; "
              f"{len(injected)} fault + {len(recoveries)} recovery "
              f"record(s) trace-correlated; drained journal restores "
              f"identically — chaos green")
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        shutil.rmtree(journal, ignore_errors=True)


if __name__ == "__main__":
    main()
