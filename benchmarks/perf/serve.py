"""``serve_steady``: the serving stack as a subprocess under open-loop load.

The system under test is ``python -m repro.cli serve`` in its own process.
The load generator is this process with two connections: one keep-alive
producer and one SSE subscriber.  Phase one is an open loop — every POST has
a due time on a fixed schedule and is timed from it, so a stall shows up as
latency on the requests queued behind it.  Phase two is a closed-loop burst
(the next POST leaves when the previous 202 arrives), whose wall time per
document is the capacity of the HTTP path.  SIGTERM then drains the server,
and the checkpoint it leaves must restore to the reference engine's state.

A third process, the calibration sidecar, shares the server's core at the
lowest priority; its kernel times are what the server's times are
normalised by (``calibration.sidecar``).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from typing import Dict, List, Optional

from repro.core.config import live_stream_config
from repro.core.engine import EnBlogue
from repro.persistence import SnapshotError
from repro.persistence.store import read_checkpoint
from repro.portal.serialization import ranking_to_dict

from . import OUT_DIR, REPO_ROOT, calibration
from .replay import mismatches
from .stats import calm_tail, center, summarize, tail
from .tracing import Ledger, load_spans
from .workloads import (
    SERVE_BATCH,
    SERVE_RATE_DOCS_PER_S,
    chunked,
    serve_documents,
    serve_plan,
)

#: The checkpoint cadence the server runs with (delta journal, re-based
#: every 16th tick), shared by the untraced CLI and the traced server.
SERVER_ARGS = ["--port", "0", "--checkpoint-every", "16",
               "--checkpoint-mode", "delta", "--full-every", "16"]

#: Validity limits of a run (reported, not gated).
MAX_GENERATOR_LATE_MS_P99 = 20.0
BACKLOG_LIMIT_BATCHES = 4

BOOT_TIMEOUT = 30.0
DRAIN_TIMEOUT = 60.0

#: The generator sleeps until this long before a request is due and spins
#: the rest, so its own wake-up latency stays out of the latencies.
SPIN_SECONDS = 0.0005

#: Set-up calls its pulse once per this many reference-replay batches.
PULSE_EVERY_BATCHES = 64


@dataclass
class ServeInputs:
    """Everything one set-up produces (the booted server aside)."""

    requests: List[bytes]
    steady_batches: int
    expected_frames: List[bytes]
    ranking_batch: List[int]
    expected_state: str


@dataclass
class LoadResult:
    """What the load generator saw (clock readings in seconds)."""

    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    queued: List[int] = field(default_factory=list)
    frames: List[tuple] = field(default_factory=list)
    steady_cpu: float = 0.0
    burst_start: float = 0.0
    stream_ended: bool = False
    status_body: dict = field(default_factory=dict)
    subscriber: Optional[threading.Thread] = None
    #: Why the producer stopped early, if it did (a broken connection).
    broken: Optional[str] = None
    #: The sidecar's ``[start, cpu_seconds]`` kernel slices.
    slices: List[list] = field(default_factory=list)


# -- set-up -----------------------------------------------------------------------


def encode_request(documents: list) -> bytes:
    """One ``POST /ingest`` request for ``documents``, ready for the wire."""
    body = json.dumps([
        {"timestamp": document.timestamp, "tags": sorted(document.tags)}
        for document in documents
    ]).encode("utf-8")
    head = (
        "POST /ingest HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


def prepare(seed: int, seconds: float, pulse=lambda: None) -> ServeInputs:
    """Generate the stream, pre-encode it and replay the reference.

    The reference is an in-process engine under the CLI's ``live`` preset
    fed the same 50-document batches; its rankings, serialised the way the
    SSE handler does, are what every frame must equal byte for byte.
    ``pulse`` is called every few batches (``calibration.Stopwatch``).
    """
    steady_batches, _ = serve_plan(seconds)
    batches = chunked(serve_documents(seed, seconds), SERVE_BATCH)
    pulse()
    reference = EnBlogue(live_stream_config())
    expected_frames: List[bytes] = []
    ranking_batch: List[int] = []
    for index, batch in enumerate(batches):
        for ranking in reference.process_batch(batch):
            expected_frames.append(json.dumps(
                ranking_to_dict(ranking), sort_keys=True
            ).encode("utf-8"))
            ranking_batch.append(index)
        if index % PULSE_EVERY_BATCHES == 0:
            pulse()
    return ServeInputs(
        requests=[encode_request(batch) for batch in batches],
        steady_batches=steady_batches,
        expected_frames=expected_frames,
        ranking_batch=ranking_batch,
        expected_state=json.dumps(reference.snapshot(), sort_keys=True),
    )


# -- the server process -----------------------------------------------------------


class Server:
    """The system under test: a serving subprocess and its checkpoint dir."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.directory = OUT_DIR / f"serve-{os.getpid()}-{id(self):x}"
        self.trace_path = OUT_DIR / "serve_steady.trace.json"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def __enter__(self) -> "Server":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Boot the server and wait for its listening line.

        A failed boot leaves nothing behind: no process, no directory.
        """
        try:
            self._boot()
        except BaseException:
            self.close()
            raise

    def _boot(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        env["PYTHONHASHSEED"] = "0"
        if self.traced:
            command = [sys.executable, "-m", "benchmarks.perf.traced_server",
                       "--trace-out", str(self.trace_path)]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        command += SERVER_ARGS + ["--checkpoint-dir", str(self.directory)]
        self.process = subprocess.Popen(
            command, cwd=str(REPO_ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        pin(self.process.pid, -1)
        watchdog = threading.Timer(BOOT_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline().decode("utf-8", "replace")
        finally:
            watchdog.cancel()
        marker = "on http://127.0.0.1:"
        if marker not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0])

    def cpu_seconds(self) -> float:
        """User + system CPU the server process has used so far."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``), in MiB;
        0 once the process has exited.
        """
        with open(f"/proc/{self.process.pid}/status",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def drain(self) -> None:
        """SIGTERM, then wait for the clean drain (``close`` kills a server
        that does not finish it in time).
        """
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=DRAIN_TIMEOUT)
        except subprocess.TimeoutExpired:
            return
        self.process.stdout.read()

    def close(self) -> None:
        """Stop the process if it still runs and delete its directory."""
        process = self.process
        if process is not None:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def pin(pid: int, which: int) -> None:
    """Bind ``pid`` (0: the calling thread) to the first (0) or last (-1)
    usable core.

    The server gets the last core and the generator the first, so neither
    migrates nor competes with the other (nor do the server's two threads
    hand their interpreter lock across cores); on one core nothing is bound.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) >= 2:
        os.sched_setaffinity(pid, {cores[which]})


class Sidecar:
    """The calibration kernel as a process on the server's core."""

    def __init__(self) -> None:
        self.process: Optional[subprocess.Popen] = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT)
        env["PYTHONHASHSEED"] = "0"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.perf.calibration"],
            cwd=str(REPO_ROOT), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        pin(self.process.pid, -1)
        watchdog = threading.Timer(BOOT_TIMEOUT, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if line.strip() != b"ready":
            raise RuntimeError(f"calibration sidecar did not start: {line!r}")

    def stop(self) -> List[list]:
        """SIGTERM; returns the ``[start, cpu_seconds]`` slices it timed."""
        self.process.send_signal(signal.SIGTERM)
        output, _ = self.process.communicate(timeout=BOOT_TIMEOUT)
        return json.loads(output)

    def close(self) -> None:
        """Stop the process if it still runs."""
        process = self.process
        if process is not None:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()


# -- the load generator -----------------------------------------------------------


def read_response(reader) -> tuple:
    """``(status, body)`` of one HTTP response with a Content-Length."""
    status_line = reader.readline()
    if not status_line:
        raise ConnectionError("server closed the producer connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, reader.read(length) if length else b""


def subscribe(port: int, result: LoadResult, ready: threading.Event) -> None:
    """The SSE connection: stamp every ``data:`` frame on receipt."""
    clock = time.perf_counter
    with socket.create_connection(("127.0.0.1", port)) as connection:
        connection.sendall(
            b"GET /rankings/stream HTTP/1.1\r\nHost: bench\r\n\r\n"
        )
        reader = connection.makefile("rb")
        for line in reader:
            if line.startswith(b": enblogue"):
                ready.set()
            elif line.startswith(b"data: ") and not result.stream_ended:
                result.frames.append((clock(), line[6:-1]))
            elif line.startswith(b"event: end"):
                result.stream_ended = True
    ready.set()


def post(connection, reader, request: bytes, result: LoadResult,
         due: float) -> None:
    clock = time.perf_counter
    sent = clock()
    connection.sendall(request)
    status, body = read_response(reader)
    result.done.append(clock())
    result.due.append(due)
    result.sent.append(sent)
    result.status.append(status)
    result.queued.append(
        json.loads(body).get("queued_batches", 0) if status == 202 else 0
    )


def open_loop(connection, reader, requests: List[bytes], interval: float,
              result: LoadResult) -> None:
    """Request ``i`` is due at ``start + i * interval``, whatever happened
    to the requests before it.
    """
    clock = time.perf_counter
    start = clock() + 0.01
    for index, request in enumerate(requests):
        due = start + index * interval
        ahead = due - clock() - SPIN_SECONDS
        if ahead > 0:
            time.sleep(ahead)
        while clock() < due:
            pass
        post(connection, reader, request, result, due)


def drive(server: Server, inputs: ServeInputs) -> LoadResult:
    """Run both load phases against ``server`` and collect what came back.

    A connection that breaks ends the load early; what was not sent counts
    as failed.  The calling thread is bound to the generator's core for the
    duration and gets its affinity back afterwards.
    """
    result = LoadResult()
    affinity = os.sched_getaffinity(0)
    pin(0, 0)    # before the subscriber thread starts, which inherits it
    try:
        ready = threading.Event()
        subscriber = threading.Thread(
            target=subscribe, args=(server.port, result, ready), daemon=True
        )
        subscriber.start()
        result.subscriber = subscriber
        if not ready.wait(BOOT_TIMEOUT):
            raise RuntimeError("SSE stream did not open")
        try:
            produce(server, inputs, result)
        except (OSError, ValueError) as error:
            result.broken = repr(error)
    finally:
        os.sched_setaffinity(0, affinity)
    return result


def produce(server: Server, inputs: ServeInputs, result: LoadResult) -> None:
    """The producer connection: open loop, closed-loop burst, ``/status``."""
    clock = time.perf_counter
    steady = inputs.requests[:inputs.steady_batches]
    burst = inputs.requests[inputs.steady_batches:]
    with socket.create_connection(("127.0.0.1", server.port)) as connection:
        connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = connection.makefile("rb")
        cpu_start = server.cpu_seconds()
        open_loop(connection, reader, steady,
                  SERVE_BATCH / SERVE_RATE_DOCS_PER_S, result)
        result.steady_cpu = server.cpu_seconds() - cpu_start
        # Closed loop: as fast as the 202s come back.
        result.burst_start = clock()
        for request in burst:
            post(connection, reader, request, result, clock())
        deadline = clock() + DRAIN_TIMEOUT
        while (len(result.frames) < len(inputs.expected_frames)
               and clock() < deadline):
            time.sleep(0.002)
        connection.sendall(b"GET /status HTTP/1.1\r\nHost: bench\r\n\r\n")
        result.status_body = json.loads(read_response(reader)[1])


# -- verdicts and metrics ---------------------------------------------------------


def checkpoint_bytes(directory: Path) -> Dict[str, float]:
    """Sizes of what the drained server left on disk."""
    base = sum(path.stat().st_size for path in directory.glob("*.json")
               if path.name != "MANIFEST.json")
    segments = [path.stat().st_size for path in directory.glob("*.delta")]
    return {
        "base_bytes": base,
        "journal_bytes_per_tick": mean(segments) if segments else 0.0,
    }


def judge(inputs: ServeInputs, result: LoadResult, state: str) -> tuple:
    """``(attempted, failed)``: POSTs, frames and the persisted end state."""
    failed = sum(1 for status in result.status if status != 202)
    failed += len(inputs.requests) - len(result.status)
    failed += mismatches([payload for _, payload in result.frames],
                         inputs.expected_frames)
    failed += 0 if state == inputs.expected_state else 1
    return len(inputs.requests) + len(inputs.expected_frames) + 1, failed


def observed_ms(slices: List[list], start: float, end: float) -> float:
    """The sidecar's kernel time (ms) between two clock readings.

    Falls back to all slices when none started in between, and to the
    reference (no normalisation) when the sidecar timed none at all.
    """
    inside = [cpu for began, cpu in slices if start <= began <= end]
    chosen = inside or [cpu for _, cpu in slices]
    if not chosen:
        return calibration.SIDECAR_REF_MS
    return calibration.observed_ms(chosen)


def load_metrics(inputs: ServeInputs, result: LoadResult) -> dict:
    """Latencies and rates as the generator saw them, speed-normalised.

    Each phase is normalised by the sidecar slices taken during it.  A run
    that lost requests or frames still yields every metric (0 where nothing
    was measured); ``judge`` is what counts the losses.
    """
    steady = min(inputs.steady_batches, len(result.done))
    ack = [(done - due) * 1e3 for done, due
           in zip(result.done[:steady], result.due[:steady])]
    late = [(sent - due) * 1e3 for sent, due
            in zip(result.sent[:steady], result.due[:steady])]
    stamped = list(zip(result.frames, inputs.ranking_batch))
    frame = [(received - result.due[batch]) * 1e3
             for (received, _), batch in stamped if batch < steady]
    in_burst = [(received, batch) for (received, _), batch in stamped
                if batch >= inputs.steady_batches]

    cal_steady = cal_burst = cal_load = calibration.SIDECAR_REF_MS
    if steady:
        cal_steady = observed_ms(result.slices, result.due[0],
                                 result.done[steady - 1])
        cal_load = observed_ms(result.slices, result.due[0], result.done[-1])
    # The burst ends with the last expected frame; it accounts for the
    # documents up to the batch that produced that frame.
    update_us_per_doc = drain_lag_ms = 0.0
    if in_burst:
        last_received, last_batch = in_burst[-1]
        cal_burst = observed_ms(result.slices, result.burst_start,
                                last_received)
        documents = (last_batch + 1 - inputs.steady_batches) * SERVE_BATCH
        update_us_per_doc = calibration.normalise(
            (last_received - result.burst_start) / documents * 1e6,
            cal_burst, calibration.SIDECAR_REF_MS,
        )
        drain_lag_ms = max(0.0, (last_received - result.done[-1]) * 1e3)

    def steady_state(raw: float) -> float:
        return calibration.normalise(raw, cal_steady,
                                     calibration.SIDECAR_REF_MS)

    ack = [steady_state(value) for value in ack]
    frame = [steady_state(value) for value in frame]
    last_quarter = result.queued[steady - max(1, steady // 4):steady]
    backlog = mean(last_quarter) if last_quarter else 0.0
    late_p99 = tail(late, 99)
    cal = [cpu * 1e3 for _, cpu in result.slices]
    return {
        "update_us_per_doc": update_us_per_doc,
        "frame_latency_ms_p50": center(frame),
        "frame_latency_ms_p90": calm_tail(frame, 90),
        "frame_latency_ms_p99": tail(frame, 99),
        "ack_latency_ms_p50": center(ack),
        "ack_latency_ms_p90": calm_tail(ack, 90),
        "ack_latency_ms_p99": tail(ack, 99),
        "server_cpu_us_per_doc": steady_state(
            result.steady_cpu / (steady * SERVE_BATCH) * 1e6
        ) if steady else 0.0,
        "generator_late_ms_p99": late_p99,
        "drain_lag_ms": drain_lag_ms,
        "frame_bytes_mean": mean(len(payload) for _, payload
                                 in result.frames) if result.frames else 0.0,
        "queue_high_watermark":
            result.status_body.get("queue_high_watermark", 0),
        "frame_latency_ms": summarize(frame),
        "ack_latency_ms": summarize(ack),
        "cal_observed_ms": {"steady": cal_steady, "burst": cal_burst,
                            "load": cal_load, "slices": len(cal)},
        "disturbed_share": calibration.disturbed_share(
            cal, calibration.SIDECAR_REF_MS
        ),
        "broken": result.broken,
        "valid": (late_p99 <= MAX_GENERATOR_LATE_MS_P99
                  and backlog < BACKLOG_LIMIT_BATCHES),
    }


def run(inputs: ServeInputs, server: Server) -> dict:
    """Drive a booted server to a clean drain; returns the raw outcome."""
    sidecar = Sidecar()
    try:
        sidecar.start()
        result = drive(server, inputs)
        result.slices = sidecar.stop()
    finally:
        sidecar.close()
    peak_rss_mb = server.peak_rss_mb()
    server.drain()
    # The server ended the stream with its sentinel and closed the socket.
    result.subscriber.join(timeout=DRAIN_TIMEOUT)
    try:
        _, restored = read_checkpoint(server.directory)
        state = json.dumps(restored, sort_keys=True)
    except (SnapshotError, OSError):
        state = ""
    attempted, failed = judge(inputs, result, state)
    return {
        "load": load_metrics(inputs, result),
        "peak_rss_mb": peak_rss_mb,
        "state_bytes": len(state),
        "disk": checkpoint_bytes(server.directory),
        "attempted": attempted,
        "failed": failed,
    }


def measure(inputs: ServeInputs, server: Server) -> dict:
    """The untraced run: end-to-end metrics of the CLI's own server."""
    outcome = run(inputs, server)
    load = outcome["load"]
    end_to_end = ("update_us_per_doc", "frame_latency_ms_p50",
                  "frame_latency_ms_p90", "ack_latency_ms_p50",
                  "ack_latency_ms_p90", "server_cpu_us_per_doc")
    metrics = {name: load[name] for name in end_to_end}
    metrics["state_bytes"] = outcome["state_bytes"]
    metrics["peak_rss_mb"] = outcome["peak_rss_mb"]
    return {
        "metrics": metrics,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "info": {name: load[name] for name in (
            "frame_latency_ms", "ack_latency_ms", "generator_late_ms_p99",
            "cal_observed_ms", "disturbed_share", "broken", "valid",
        )},
    }


def measure_traced(inputs: ServeInputs, server: Server) -> dict:
    """The traced run: the ledger read from the traced server's spans."""
    outcome = run(inputs, server)
    load = outcome["load"]
    ledger = Ledger(load_spans(server.trace_path))
    documents = len(inputs.requests) * SERVE_BATCH

    cal = load["cal_observed_ms"]["load"]

    def ms(seconds: float) -> float:
        # Normalised like the metrics these rows decompose.
        return calibration.normalise(seconds * 1e3, cal,
                                     calibration.SIDECAR_REF_MS)

    def us_per_doc(seconds: float) -> float:
        return ms(seconds) * 1e3 / documents

    def ms_each(name: str) -> float:
        calls = ledger.calls(name)
        return ms(ledger.total(name) / calls) if calls else 0.0

    # The latency rows describe the open loop, where the latency metrics
    # come from; in the burst the queue is full by design.
    def open_loop_only(spans):
        return [span for span in spans if span.batch < inputs.steady_batches]

    submits = open_loop_only(ledger.named("service.submit"))
    submitted = {span.batch: span.end for span in submits}
    batches = open_loop_only(ledger.named("engine.process_batch"))
    waits = [ms(span.start - submitted[span.batch]) for span in batches
             if span.batch in submitted]
    boundary = [ms(span.duration) for span in batches if span.count]
    ticks = [span for span in ledger.named("persistence.tick") if span.count]
    in_tick = {id(span) for span in ticks}
    saves = [span for span in ledger.named("persistence.save")
             if id(span.parent) in in_tick]
    in_save = {id(span) for span in saves}
    snapshots = sum(span.duration
                    for span in ledger.named("persistence.snapshot")
                    if id(span.parent) in in_save)
    evaluations = ledger.calls("seeds.select")
    tick_ms = [ms(span.duration) for span in ticks]

    def ms_per_eval(name: str) -> float:
        return ms(ledger.total(name) / evaluations) if evaluations else 0.0

    def ms_per_tick(seconds: float) -> float:
        return ms(seconds / len(ticks)) if ticks else 0.0

    metrics = {
        "core.engine.batch_self_us_per_doc":
            us_per_doc(ledger.self_total("engine.process_batch")),
        "core.tracker.observe_us_per_doc":
            us_per_doc(ledger.total("tracker.observe_many")),
        "core.tracker.advance_ms_per_eval": ms_per_eval("tracker.advance_to"),
        "core.tracker.count_history_ms_per_eval":
            ms_per_eval("tracker.count_history"),
        "core.tracker.count_row_ms_per_eval": ms_per_eval("tracker.count_row"),
        "core.seeds.select_ms_per_eval": ms_per_eval("seeds.select"),
        "core.vectorized.evaluate_ms_per_eval":
            ms_per_eval("vectorized.evaluate"),
        "core.eval_delay_ms_p50": center(boundary),
        "core.eval_delay_ms_p95": tail(boundary, 95),
        "core.evaluations": evaluations,
        "core.docs": documents,
        "serving.http_parse_us_per_doc":
            us_per_doc(ledger.total("http.parse")),
        "serving.submit_ms_p50":
            ms(center([span.duration for span in submits])),
        "serving.queue_wait_ms_p50": center(waits),
        "serving.queue_wait_ms_p99": tail(waits, 99),
        "serving.engine_batch_ms_p50":
            ms(center([span.duration for span in batches])),
        "serving.publish_ms_per_ranking": ms_each("portal.publish"),
        "portal.serialize_ms_per_frame": ms_each("portal.serialize"),
        "serving.frame_bytes_mean": load["frame_bytes_mean"],
        "persistence.tick_ms_p50": center(tick_ms),
        "persistence.tick_ms_max": max(tick_ms, default=0.0),
        "persistence.ticks": len(ticks),
        "persistence.snapshot_ms_per_tick": ms_per_tick(snapshots),
        "persistence.write_ms_per_tick": ms_per_tick(
            sum(span.duration for span in saves) - snapshots
        ),
        "persistence.base_bytes": outcome["disk"]["base_bytes"],
        "persistence.journal_bytes_per_tick":
            outcome["disk"]["journal_bytes_per_tick"],
        "serving.frame_latency_ms_p99": load["frame_latency_ms_p99"],
        "serving.ack_latency_ms_p99": load["ack_latency_ms_p99"],
        "serving.generator_late_ms_p99": load["generator_late_ms_p99"],
        "serving.drain_lag_ms": load["drain_lag_ms"],
        "serving.queue_high_watermark": load["queue_high_watermark"],
        "trace.traced_us_per_doc": load["server_cpu_us_per_doc"],
        "trace.spans": len(ledger.spans),
    }
    return {
        "metrics": metrics,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "info": {"valid": load["valid"]},
    }
