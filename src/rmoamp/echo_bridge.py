"""Loopback denoiser server speaking the bridge protocol on stdio.

Run as ``python -m rmoamp.echo_bridge``.  The default mode echoes each
request payload back (optionally scaled), which makes it a zero-knowledge
"denoiser" for protocol tests and a linear one for divergence tests.  The
fault modes exercise the client's error paths:

    --mode echo          respond with scale * payload
    --mode wrong-length  respond with one value too few
    --mode bad-magic     respond with a corrupted magic
    --mode stall         accept the request, never respond
    --mode late          echo, but answer the first request after LATE_DELAY
                         seconds
"""

import argparse
import struct
import sys
import time

import numpy as np

from .bridge import _REQ_HEAD, decode_request, encode_response
from .errors import BridgeProtocolError

LATE_DELAY = 1.0


def serve(stdin, stdout, mode="echo", scale=1.0):
    """Answer requests until the client closes; returns the exit status.

    ``stdin`` is buffered, so ``read(n)`` stops short only at EOF.  EOF in
    a header ends the loop with 0, as does a client that resets the stream
    (say by closing with a reply unread); a bad magic or a short payload
    ends it with 1.
    """
    try:
        while True:
            head = stdin.read(_REQ_HEAD.size)
            if len(head) < _REQ_HEAD.size:
                return 0
            try:
                n, _, _ = decode_request(head)
            except BridgeProtocolError:
                return 1
            payload = stdin.read(4 * n)
            if len(payload) < 4 * n:
                return 1
            values = np.frombuffer(payload, dtype="<f4")

            if mode == "stall":
                time.sleep(3600.0)
                return 0
            if mode == "late":
                time.sleep(LATE_DELAY)
                mode = "echo"
            if mode == "wrong-length":
                out = values[:-1] if n > 0 else values
                frame = encode_response(scale * out)
            elif mode == "bad-magic":
                frame = (struct.pack("<8sQ", b"OAMPBAD!", n)
                         + (scale * values).astype("<f4").tobytes())
            else:
                frame = encode_response(scale * values)
            stdout.write(frame)
            stdout.flush()
    except (ConnectionResetError, BrokenPipeError):
        return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", default="echo",
                        choices=["echo", "wrong-length", "bad-magic", "stall",
                                 "late"])
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    return serve(sys.stdin.buffer, sys.stdout.buffer,
                 mode=args.mode, scale=args.scale)


if __name__ == "__main__":
    sys.exit(main())
