"""The loopback denoiser server's loop, run in-process over a socket pair."""

import select
import socket
import threading

import numpy as np

from rmoamp.bridge import encode_request
from rmoamp.echo_bridge import serve


def test_client_closing_with_a_reply_unread_ends_the_loop():
    # closing a socket with unread data resets the stream, so the server's
    # next read fails with ConnectionResetError rather than reading EOF
    client, server = socket.socketpair()
    outcome = {}

    def run():
        with server, server.makefile("rb") as rfile, \
                server.makefile("wb") as wfile:
            try:
                outcome["status"] = serve(rfile, wfile)
            except Exception as exc:  # noqa: BLE001 - reported below
                outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    client.sendall(encode_request(np.ones(4), 1.0, 0.1))
    readable, _, _ = select.select([client], [], [], 5.0)
    assert readable, "no reply within 5 s"
    client.close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    assert outcome == {"status": 0}


def test_client_gone_before_the_reply_ends_the_loop():
    # the request is already queued when the client closes, so the server
    # reads it and then fails writing the reply with BrokenPipeError
    client, server = socket.socketpair()
    client.sendall(encode_request(np.ones(4), 1.0, 0.1))
    client.close()
    # unbuffered, so the failed write does not linger in a buffer that
    # would fail again on close
    with server, server.makefile("rb") as rfile, \
            server.makefile("wb", buffering=0) as wfile:
        assert serve(rfile, wfile) == 0
