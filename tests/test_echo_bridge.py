"""The loopback denoiser server's loop, run in-process over a socket pair."""

import select
import socket
import threading
import time

import numpy as np

from rmoamp.bridge import encode_request, encode_response
from rmoamp.echo_bridge import serve


def serve_pieces(pieces, pause=0.0):
    """Send ``pieces`` to ``serve`` over a socket pair, pausing between
    them, then end the stream; returns (exit status, the bytes written
    back)."""
    client, server = socket.socketpair()

    def send():
        for piece in pieces:
            client.sendall(piece)
            time.sleep(pause)
        client.shutdown(socket.SHUT_WR)

    sender = threading.Thread(target=send, daemon=True)
    sender.start()
    with server, server.makefile("rb") as rfile, \
            server.makefile("wb") as wfile:
        status = serve(rfile, wfile)
    sender.join(timeout=5.0)
    with client:
        reply = b"".join(iter(lambda: client.recv(4096), b""))
    return status, reply


def test_request_in_pieces_gets_one_reply_then_eof_ends_the_loop():
    values = np.arange(5.0)
    frame = encode_request(values, 1.0, 0.1)
    status, reply = serve_pieces([frame[:10], frame[10:40], frame[40:]],
                                 pause=0.05)
    assert status == 0
    assert reply == encode_response(values)
    assert len(reply) == 36


def test_eof_inside_a_header_ends_the_loop():
    assert serve_pieces([encode_request(np.ones(4), 1.0, 0.1)[:20]]) == (
        0, b"")


def test_bad_magic_exits_1():
    frame = encode_request(np.ones(4), 1.0, 0.1)
    assert serve_pieces([b"OAMPBAD!" + frame[8:]]) == (1, b"")


def test_short_payload_exits_1():
    frame = encode_request(np.ones(4), 1.0, 0.1)
    assert serve_pieces([frame[:-3]]) == (1, b"")


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
