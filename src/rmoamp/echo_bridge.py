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

from .bridge import REQUEST_MAGIC, _REQ_HEAD, encode_response

LATE_DELAY = 1.0


def _read_exact(stream, nbytes):
    chunks = []
    got = 0
    while got < nbytes:
        chunk = stream.read(nbytes - got)
        if not chunk:
            return None
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def serve(stdin, stdout, mode="echo", scale=1.0):
    while True:
        head = _read_exact(stdin, _REQ_HEAD.size)
        if head is None:
            return 0
        magic, n, t_star, v = _REQ_HEAD.unpack(head)
        if magic != REQUEST_MAGIC:
            return 1
        payload = _read_exact(stdin, 4 * n)
        if payload is None:
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
