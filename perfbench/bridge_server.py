"""Gaussian-mixture denoiser served over the rmoamp bridge protocol on stdio.

The ``dense-bridge`` workload spawns this script as its external-bridge
prior.  It answers each framed request with the exact posterior mean of
``rmoamp.priors.GaussianMixturePrior``, so its results can be compared with
the same prior run in-process.  ``rmoamp`` is found through ``PYTHONPATH``,
which the benchmark sets to the checkout's ``src`` directory.

    python3 perfbench/bridge_server.py --weights '[0.9, 0.1]' \\
        --means '[0.0, 0.0]' --variances '[0.0001, 1.0]'
"""

import argparse
import json
import sys

import numpy as np

from rmoamp.bridge import decode_request, encode_response
from rmoamp.errors import BridgeProtocolError
from rmoamp.priors import GaussianMixturePrior

HEAD_BYTES = 32  # magic, length, t_star, v


def _read_exact(stream, nbytes):
    data = b""
    while len(data) < nbytes:
        chunk = stream.read(nbytes - len(data))
        if not chunk:
            return None
        data += chunk
    return data


def serve(stdin, stdout, prior):
    while True:
        head = _read_exact(stdin, HEAD_BYTES)
        if head is None:
            return 0
        try:
            n, t_star, v = decode_request(head)
        except BridgeProtocolError:
            return 1
        payload = _read_exact(stdin, 4 * n)
        if payload is None:
            return 1
        values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        stdout.write(encode_response(prior.denoise(values, t_star, v)))
        stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("--weights", "--means", "--variances"):
        parser.add_argument(name, type=json.loads, required=True)
    args = parser.parse_args(argv)
    prior = GaussianMixturePrior(args.weights, args.means, args.variances)
    return serve(sys.stdin.buffer, sys.stdout.buffer, prior)


if __name__ == "__main__":
    sys.exit(main())
