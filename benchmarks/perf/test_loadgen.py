"""The open-loop scheduler against a stub server that stalls."""

import socket
import threading
import time

from .serve import LoadResult, open_loop

STALL_AT = 3
STALL_SECONDS = 0.1
INTERVAL = 0.01
REQUEST = b"POST /ingest HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]"
RESPONSE = (b"HTTP/1.1 202 Accepted\r\nContent-Length: 21\r\n\r\n"
            b'{"queued_batches": 0}')


def stub_server(listener: socket.socket, requests: int) -> None:
    """Answers 202 at once, except one request it sits on."""
    connection, _ = listener.accept()
    with connection:
        for index in range(requests):
            received = b""
            while len(received) < len(REQUEST):
                received += connection.recv(len(REQUEST) - len(received))
            if index == STALL_AT:
                time.sleep(STALL_SECONDS)
            connection.sendall(RESPONSE)


def test_latency_is_timed_from_the_due_time_through_a_stall():
    requests = 20
    with socket.create_server(("127.0.0.1", 0)) as listener:
        port = listener.getsockname()[1]
        server = threading.Thread(target=stub_server,
                                  args=(listener, requests), daemon=True)
        server.start()
        result = LoadResult()
        with socket.create_connection(("127.0.0.1", port)) as connection:
            open_loop(connection, connection.makefile("rb"),
                      [REQUEST] * requests, INTERVAL, result)
        server.join(5.0)
        assert not server.is_alive()

    assert result.status == [202] * requests
    # The schedule did not slow down with the server.
    gaps = [later - earlier
            for earlier, later in zip(result.due, result.due[1:])]
    assert all(abs(gap - INTERVAL) < 1e-9 for gap in gaps)
    latency = [done - due for done, due in zip(result.done, result.due)]
    late = [sent - due for sent, due in zip(result.sent, result.due)]
    # The stalled request pays the stall ...
    assert latency[STALL_AT] >= STALL_SECONDS
    # ... and so does the request queued behind it, which a timer started
    # at send time would hide: the generator could only send it late.
    assert late[STALL_AT + 1] >= STALL_SECONDS - INTERVAL - 0.01
    assert latency[STALL_AT + 1] >= late[STALL_AT + 1]
    # Queueing delay decays by one interval per request until the backlog
    # is gone; outside the stall the generator ran on time.
    assert late[STALL_AT + 1] > late[STALL_AT + 4] > late[-1]
    assert sorted(late)[len(late) // 4] < 0.008
