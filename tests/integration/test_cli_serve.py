"""The ``serve`` command end to end: a real server process over HTTP.

Mirrors the CI serve-smoke leg: start ``python -m repro.cli serve`` with a
2-shard backend and a delta checkpoint cadence, POST a synthetic batch,
read a ranking frame off the SSE stream, confirm the journal landed, shut
down cleanly, and resume a second server from the checkpoint.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import build_parser
from repro.datasets.twitter import TweetStreamGenerator

HOUR = 3600.0


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8000
        assert args.queue_capacity == 8

    def test_delta_mode_requires_cadence(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="delta"):
            main(["serve", "--checkpoint-dir", "/tmp/x",
                  "--checkpoint-mode", "delta"])

    def test_cadence_requires_directory(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["serve", "--checkpoint-every", "2"])

    def test_resume_rejects_config_overrides(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--top-k"):
            main(["serve", "--resume", "/tmp/nowhere", "--top-k", "5"])


def wait_for_port(port, process, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server exited early: {process.stderr.read()}"
            )
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.1)
    raise AssertionError(f"server on port {port} never came up")


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def post_json(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def get_json(port, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=10
    ) as response:
        return response.status, json.loads(response.read())


def open_sse(port, timeout=20.0):
    """Connect to the SSE stream (do this *before* posting documents)."""
    stream = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    stream.sendall(b"GET /rankings/stream HTTP/1.1\r\nHost: x\r\n\r\n")
    stream.settimeout(timeout)
    return stream


def read_one_sse_frame(stream):
    blob = b""
    while True:
        chunk = stream.recv(4096)
        if not chunk:
            break
        blob += chunk
        if b"\ndata: " in blob and b"\n\n" in blob.split(b"\ndata: ", 1)[1]:
            break
    for line in blob.split(b"\n"):
        if line.startswith(b"data: "):
            return json.loads(line[len(b"data: "):])
    raise AssertionError(f"no SSE data frame in: {blob!r}")


def spawn_serve(extra, port):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--host", "127.0.0.1", "--port", str(port)] + extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        env=env,
    )
    wait_for_port(port, process)
    return process


def shutdown(process):
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        raise


class TestServeEndToEnd:
    def test_serve_checkpoint_and_resume(self, tmp_path):
        corpus, _ = TweetStreamGenerator(
            hours=10, tweets_per_hour=20, seed=5).generate()
        docs = [
            {"timestamp": d.timestamp, "tags": sorted(d.tags), "text": d.text}
            for d in corpus
        ]
        ckpt = tmp_path / "ckpt"
        port = free_port()
        process = spawn_serve(
            ["--shards", "2", "--backend", "serial",
             "--checkpoint-dir", str(ckpt), "--checkpoint-every", "2",
             "--checkpoint-mode", "delta"], port,
        )
        try:
            with open_sse(port) as stream:
                status, body = post_json(port, "/ingest", docs[:120])
                assert status == 202 and body["accepted"] == 120
                frame = read_one_sse_frame(stream)
            assert "topics" in frame and "timestamp" in frame
            _, state = get_json(port, "/status")
            assert state["documents_processed"] >= 0
        finally:
            shutdown(process)
        assert (ckpt / "MANIFEST.json").exists()
        assert list(ckpt.glob("*.delta")), "no delta journal segment landed"

        resume_port = free_port()
        resumed = spawn_serve(["--resume", str(ckpt)], resume_port)
        try:
            continuation = docs[120:]
            with open_sse(resume_port) as stream:
                status, body = post_json(resume_port, "/ingest", continuation)
                assert status == 202
                assert body["accepted"] == len(continuation)
                frame = read_one_sse_frame(stream)
            assert "topics" in frame
            _, ranking = get_json(resume_port, "/rankings")
            assert ranking["ranking"] is not None
        finally:
            shutdown(resumed)

    def test_a_clean_drain_with_an_idle_keep_alive_connection_is_silent(self):
        # A producer that keeps its connection open between POSTs leaves
        # a handler parked on the socket; the drain must reap it itself
        # (left to the event loop's teardown it logs a traceback).
        body = json.dumps(
            [{"timestamp": float(hour), "tags": ["alpha", "beta"]}
             for hour in range(3)]
        ).encode()
        port = free_port()
        process = spawn_serve([], port)
        try:
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as producer:
                producer.sendall(
                    b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\n\r\n" + body
                )
                response = producer.recv(4096)
                assert response.startswith(b"HTTP/1.1 202")
                assert b"Connection: keep-alive" in response
                # Still connected, nothing more sent: SIGTERM arrives here.
                shutdown(process)
        finally:
            if process.poll() is None:
                process.kill()
        stdout, stderr = process.communicate(timeout=10)
        assert process.returncode == 0
        assert "served 3 documents" in stdout
        assert stderr == ""

