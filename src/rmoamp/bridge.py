"""Wire protocol and client for out-of-process denoisers.

A denoiser served behind this bridge (typically a neural sampler in its own
process, possibly a different runtime) receives framed requests over a byte
stream and answers with framed responses:

    request  = b"OAMPNLE1" | u64 LE length N | f64 LE t_star | f64 LE v
               | N x f32 LE payload
    response = b"OAMPNLE2" | u64 LE length N | N x f32 LE payload

All integers and floats are little-endian; big-endian is never used.  The
stream is a socket: a TCP connection, or for a spawned child one end of a
Unix socket pair that is both its stdin and its stdout.  A server that reads
fd 0 and writes fd 1 as byte streams works unchanged; it must not assume
they are pipes.  Every round trip is guarded by a deadline; timeouts, short
reads, bad magic, and length mismatches raise BridgeError subclasses, which
the receiver loop treats as a recoverable denoiser fault.

One client serves one receiver run at a time; concurrent runs need separate
clients.  ``socket`` and ``subprocess`` are imported on first use, so a
server that imports this module only for the framing does not load them.
"""

import struct
import sys
import time

import numpy as np

from .errors import (BridgeError, BridgeProtocolError, BridgeTimeoutError,
                     InvalidParameterError)

REQUEST_MAGIC = b"OAMPNLE1"
RESPONSE_MAGIC = b"OAMPNLE2"
_REQ_HEAD = struct.Struct("<8sQdd")
_RSP_HEAD = struct.Struct("<8sQ")


def encode_request(s_in, t_star, v):
    """Frame a denoiser request; payload is cast to f32."""
    payload = np.asarray(s_in, dtype="<f4")
    if payload.ndim != 1:
        raise InvalidParameterError("payload must be a 1-D vector")
    head = _REQ_HEAD.pack(REQUEST_MAGIC, payload.size, float(t_star), float(v))
    return head + payload.tobytes()


def decode_request(head_bytes):
    """Parse a request header; returns (length, t_star, v).

    The payload (length * 4 bytes) follows on the stream and is read
    separately.
    """
    magic, n, t_star, v = _REQ_HEAD.unpack(head_bytes)
    if magic != REQUEST_MAGIC:
        raise BridgeProtocolError(f"bad request magic {magic!r}")
    return n, t_star, v


def encode_response(values):
    """Frame a denoiser response; payload is cast to f32."""
    payload = np.asarray(values, dtype="<f4")
    head = _RSP_HEAD.pack(RESPONSE_MAGIC, payload.size)
    return head + payload.tobytes()


class BridgeClient:
    """Framed request/response channel to an external denoiser.

    Build with :meth:`spawn` (child process on a socket pair) or
    :meth:`connect` (TCP); either way the client holds one connected socket.
    ``timeout``, a finite number > 0, bounds each full round trip.
    """

    def __init__(self, timeout=5.0):
        if not 0 < timeout < np.inf:  # NaN too
            raise InvalidParameterError(
                f"timeout must be a finite number > 0, got {timeout!r}")
        self.timeout = float(timeout)
        self._proc = None
        self._sock = None

    @classmethod
    def spawn(cls, argv, timeout=5.0):
        """Start ``argv`` as a child whose stdin and stdout are both one end
        of a socket pair, and speak the protocol over the other end."""
        import socket
        import subprocess

        client = cls(timeout=timeout)
        client._sock, theirs = socket.socketpair()
        with theirs:
            try:
                client._proc = subprocess.Popen(argv, stdin=theirs,
                                                stdout=theirs)
            except BaseException:
                client.close()
                raise
        return client

    @classmethod
    def connect(cls, host, port, timeout=5.0):
        """Connect to a denoiser server listening on a TCP socket.  A
        ``port`` outside 1-65535 raises InvalidParameterError; the socket
        layer would take it modulo 65536."""
        import socket

        if not 1 <= port <= 65535:
            raise InvalidParameterError(
                f"port must be in 1-65535, got {port!r}")
        client = cls(timeout=timeout)
        client._sock = socket.create_connection((host, port),
                                                timeout=timeout)
        return client

    @property
    def closed(self):
        """True once :meth:`close` has run, by hand or after a fault."""
        return self._sock is None

    # -- byte-level I/O with a shared deadline --------------------------------

    def _io(self, call, arg, deadline, what):
        """``call(arg)`` on the socket with the time left until ``deadline``
        as its timeout."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BridgeTimeoutError(f"bridge timeout while {what}")
        self._sock.settimeout(remaining)
        try:
            return call(arg)
        except TimeoutError as exc:
            raise BridgeTimeoutError(f"bridge timeout while {what}") from exc
        except OSError as exc:
            raise BridgeError(f"bridge failed while {what}: {exc}") from exc

    def _recv_exact(self, nbytes, deadline):
        buf = bytearray(nbytes)
        view = memoryview(buf)
        got = 0
        while got < nbytes:
            count = self._io(self._sock.recv_into, view[got:], deadline,
                             "reading")
            if not count:
                raise BridgeProtocolError(
                    f"bridge closed the stream after {got} of {nbytes} bytes")
            got += count
        return buf

    # -- protocol -------------------------------------------------------------

    def denoise_once(self, s_in, t_star, v):
        """One round trip; returns the response payload as float64.

        Any BridgeError closes the client: after a timeout or a bad frame
        the stream may still hold a late reply, which the next request
        would otherwise read as its own.
        """
        if self.closed:
            raise BridgeError("bridge is closed")
        s_in = np.asarray(s_in)
        deadline = time.monotonic() + self.timeout
        try:
            self._io(self._sock.sendall, encode_request(s_in, t_star, v),
                     deadline, "writing")
            head = self._recv_exact(_RSP_HEAD.size, deadline)
            magic, n = _RSP_HEAD.unpack(head)
            if magic != RESPONSE_MAGIC:
                raise BridgeProtocolError(f"bad response magic {magic!r}")
            if n != s_in.size:
                raise BridgeProtocolError(
                    f"bridge returned {n} values for a {s_in.size}-point "
                    f"request")
            payload = self._recv_exact(4 * n, deadline)
        except BridgeError:
            self.close()
            raise
        return np.frombuffer(payload, dtype="<f4").astype(np.float64)

    def close(self):
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._proc is not None:
            import subprocess

            self._proc.terminate()
            try:
                self._proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def spawn_echo_bridge(mode="echo", scale=1.0, timeout=5.0):
    """Convenience: spawn the bundled loopback server (for tests/demos)."""
    argv = [sys.executable, "-m", "rmoamp.echo_bridge",
            "--mode", mode, "--scale", repr(float(scale))]
    return BridgeClient.spawn(argv, timeout=timeout)


class BridgePrior:
    """Denoiser prior that round-trips every evaluation over a bridge.

    snr_kind defaults to "flow-matching" so t_star carries the matched
    interpolation time; set it to "ddim" (target alpha level) or None
    (raw NaN) to suit the remote model.
    """

    def __init__(self, client, snr_kind="flow-matching"):
        self.check_snr_kind(snr_kind)
        self.client = client
        self.snr_kind = snr_kind
        self.eval_count = 0

    @staticmethod
    def check_snr_kind(snr_kind):
        """Raise InvalidParameterError unless ``snr_kind`` is one this prior
        takes; a caller can check before it starts a client."""
        if snr_kind not in ("flow-matching", "ddim", None):
            raise InvalidParameterError(f"unknown snr kind {snr_kind!r}")

    def denoise(self, s_in, t_star, v):
        self.eval_count += 1
        return self.client.denoise_once(s_in, t_star, v)
