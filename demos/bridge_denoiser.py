#!/usr/bin/env python3
"""Walkthrough: plugging an out-of-process denoiser into the loop.

The receiver can call any external program that speaks the framed
request/response protocol on stdio or TCP: fixed magic, length, matched
time step and noise level, then a float32 payload.  This demo shows the
frame bytes, round-trips a vector through the bundled echo server, runs
the full loop over the bridge, and then demonstrates that protocol
faults degrade a single iteration instead of killing the run.
"""

import numpy as np

import rmoamp as rm
from rmoamp.bridge import spawn_echo_bridge

# 1. the wire format, byte by byte
frame = rm.encode_request(np.array([1.0, 2.0]), t_star=0.5, v=0.25)
print(f"request frame for 2 values: {len(frame)} bytes")
print(f"  magic   {frame[:8]}")
print(f"  length  {int.from_bytes(frame[8:16], 'little')}")
print(f"  payload {frame[32:].hex()}")

# 2. a round trip through the echo server (an external child process)
with spawn_echo_bridge() as client:
    out = client.denoise_once(np.array([1.0, -2.5, 0.25]), 0.5, 0.25)
print(f"echo round trip: {out}")

# 3. the full loop with the bridge standing in for a learned denoiser
n = 256
src = rm.synthetic_gaussian(n, seed=3)
op = rm.build_rm_operator(n, n, seed=4)
ch = rm.gen_identity_channel(n, sigma2=0.01)
y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=5)
cfg = rm.ReceiverConfig(max_iters=4)

with spawn_echo_bridge() as client:
    prior = rm.BridgePrior(client)
    est, trace = rm.run_receiver(y, ch, op, prior, cfg, truth=src)
print(f"\nloop over the bridge: {len(trace)} iteration(s), "
      f"{prior.eval_count} remote evaluations, "
      f"final {rm.psnr(src.values, est.values):.2f} dB")

# 4. fault injection: a server that answers with the wrong length; each
# iteration notes the fault and keeps the extrinsic estimate
with spawn_echo_bridge(mode="wrong-length") as client:
    est, trace = rm.run_receiver(y, ch, op, rm.BridgePrior(client), cfg,
                                 truth=src)
print("\nwrong-length server:")
for rec in trace.records:
    print(f"  iter {rec.iteration}: fault = {rec.fault}")
print(f"  run still finished with a finite estimate: "
      f"{bool(np.all(np.isfinite(est.values)))}")

# 5. a stalled server trips the per-call timeout instead of hanging
with spawn_echo_bridge(mode="stall", timeout=0.3) as client:
    est, trace = rm.run_receiver(y, ch, op, rm.BridgePrior(client),
                                 rm.ReceiverConfig(max_iters=2), truth=src)
print(f"\nstalled server: iteration 1 fault = {trace.records[0].fault}")
