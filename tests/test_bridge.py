"""Bridge protocol: golden frames, loopback round trips, fault recovery."""

import socket
import struct
import sys
import threading

import numpy as np
import pytest

import rmoamp as rm
from rmoamp import (
    BridgeClient,
    BridgeError,
    BridgePrior,
    BridgeProtocolError,
    BridgeTimeoutError,
    InvalidParameterError,
    encode_request,
    encode_response,
)
from rmoamp.bridge import decode_request, spawn_echo_bridge
from rmoamp.echo_bridge import serve


GOLDEN_REQUEST = (b"OAMPNLE1"
                  + struct.pack("<Q", 4)
                  + struct.pack("<d", 0.5)
                  + struct.pack("<d", 0.25)
                  + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0))

GOLDEN_RESPONSE = (b"OAMPNLE2"
                   + struct.pack("<Q", 4)
                   + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0))


class TestFraming:
    def test_request_golden_bytes(self):
        frame = encode_request(np.array([1.0, 2.0, 3.0, 4.0]), 0.5, 0.25)
        assert frame == GOLDEN_REQUEST

    def test_request_header_decodes(self):
        n, t_star, v = decode_request(GOLDEN_REQUEST[:32])
        assert (n, t_star, v) == (4, 0.5, 0.25)

    def test_response_golden_bytes(self):
        assert encode_response(np.array([1.0, 2.0, 3.0, 4.0])) == GOLDEN_RESPONSE

    def test_bad_request_magic_rejected(self):
        head = struct.pack("<8sQdd", b"OAMPBAD!", 4, 0.5, 0.25)
        with pytest.raises(BridgeProtocolError):
            decode_request(head)

    def test_request_rejects_2d_payload(self):
        with pytest.raises(InvalidParameterError):
            encode_request(np.zeros((2, 2)), 0.5, 0.25)

    def test_payload_is_f32_little_endian(self):
        frame = encode_request(np.array([1.5]), 0.0, 0.0)
        assert frame[-4:] == struct.pack("<f", 1.5)


class TestEchoRoundTrip:
    def test_bit_exact_echo(self):
        # values chosen exactly representable in f32
        values = np.array([1.0, -2.5, 0.25, 3.0])
        with spawn_echo_bridge() as client:
            out = client.denoise_once(values, 0.5, 0.25)
        assert out.dtype == np.float64
        assert np.array_equal(out, values)

    def test_scaled_echo(self):
        values = np.array([1.0, 2.0, -4.0])
        with spawn_echo_bridge(scale=2.0) as client:
            out = client.denoise_once(values, 0.1, 1.0)
        assert np.array_equal(out, 2.0 * values)

    def test_multiple_round_trips_reuse_stream(self):
        with spawn_echo_bridge() as client:
            for k in range(5):
                vec = np.full(8, float(k))
                assert np.array_equal(client.denoise_once(vec, 0.5, 1.0), vec)

    def test_divergence_of_scaled_echo_is_linear(self):
        # the bridge is phi(s) = 2 s up to f32 rounding
        n = 4096
        z = np.random.Generator(np.random.Philox(1)).standard_normal(n)
        with spawn_echo_bridge(scale=2.0) as client:
            prior = BridgePrior(client, snr_kind=None)
            div = rm.mc_divergence(prior, z, float("nan"), 1.0, seed=2)
        assert div == pytest.approx(2.0, rel=0.05)


class TestFaults:
    def test_wrong_length_raises_protocol_error(self):
        with spawn_echo_bridge(mode="wrong-length") as client:
            with pytest.raises(BridgeProtocolError):
                client.denoise_once(np.ones(8), 0.5, 1.0)

    def test_bad_magic_raises_protocol_error(self):
        with spawn_echo_bridge(mode="bad-magic") as client:
            with pytest.raises(BridgeProtocolError):
                client.denoise_once(np.ones(8), 0.5, 1.0)

    def test_stall_hits_timeout(self):
        with spawn_echo_bridge(mode="stall", timeout=0.3) as client:
            with pytest.raises(BridgeTimeoutError):
                client.denoise_once(np.ones(8), 0.5, 1.0)

    def test_late_reply_is_never_read_as_the_next_answer(self):
        # the server answers request 1 after its deadline; with a deadline
        # long enough for that late reply to arrive, request 2 must still
        # not take it as its own answer
        with spawn_echo_bridge(mode="late", timeout=0.3) as client:
            with pytest.raises(BridgeTimeoutError):
                client.denoise_once(np.full(4, 1.0), 0.5, 1.0)
            client.timeout = 5.0
            try:
                out = client.denoise_once(np.full(4, 2.0), 0.5, 1.0)
            except BridgeError:
                return
            assert np.array_equal(out, np.full(4, 2.0))

    def test_protocol_fault_closes_client(self):
        with spawn_echo_bridge(mode="wrong-length") as client:
            with pytest.raises(BridgeProtocolError):
                client.denoise_once(np.ones(8), 0.5, 1.0)
            with pytest.raises(BridgeError, match="closed"):
                client.denoise_once(np.ones(8), 0.5, 1.0)

    def test_write_deadline_when_child_never_reads(self):
        # 16 MB is far above the socket buffer, so the write itself stalls
        client = BridgeClient.spawn(
            [sys.executable, "-c", "import time; time.sleep(30)"],
            timeout=0.5)
        try:
            with pytest.raises(BridgeTimeoutError, match="while writing"):
                client.denoise_once(np.zeros(4_000_000), 0.5, 1.0)
            with pytest.raises(BridgeError, match="bridge is closed"):
                client.denoise_once(np.ones(4), 0.5, 1.0)
        finally:
            client.close()

    def test_dead_child_raises_bridge_error(self):
        client = BridgeClient.spawn([sys.executable, "-c", "pass"],
                                    timeout=2.0)
        try:
            with pytest.raises(BridgeError):
                client.denoise_once(np.ones(4), 0.5, 1.0)
        finally:
            client.close()

    def test_denoise_after_close_raises(self):
        client = spawn_echo_bridge()
        client.close()
        client.close()  # idempotent
        with pytest.raises(BridgeError):
            client.denoise_once(np.ones(2), 0.5, 1.0)

    def test_timeout_validation(self):
        with pytest.raises(InvalidParameterError):
            BridgeClient(timeout=0.0)

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf")])
    def test_non_finite_timeout_refused_before_spawn(self, timeout,
                                                     monkeypatch):
        # NaN once failed every round trip with ValueError and inf with
        # OverflowError, neither a BridgeError the receiver recovers from
        import subprocess

        def no_spawn(*args, **kwargs):
            raise AssertionError("a child was spawned")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        with pytest.raises(InvalidParameterError,
                           match="timeout must be a finite number > 0"):
            spawn_echo_bridge(timeout=timeout)


class TestReceiverIntegration:
    def setup_run(self, n=64):
        src = rm.synthetic_gaussian(n, seed=3)
        op = rm.build_rm_operator(n, n, seed=4)
        ch = rm.gen_identity_channel(n, sigma2=0.01)
        y = rm.transmit(ch, rm.rm_forward(op, src.values), noise_seed=5)
        return src, op, ch, y

    def test_echo_bridge_behaves_as_identity_denoiser(self):
        src, op, ch, y = self.setup_run()
        cfg = rm.ReceiverConfig(max_iters=3)
        with spawn_echo_bridge() as client:
            prior = BridgePrior(client)
            est, trace = rm.run_receiver(y, ch, op, prior, cfg, truth=src)
        assert trace.error is None
        assert all(r.fault is None for r in trace.records)
        assert np.all(np.isfinite(est.values))
        assert prior.eval_count == 2 * len(trace)  # denoise + probe per pass

    def test_wrong_length_falls_back_without_aborting(self):
        src, op, ch, y = self.setup_run()
        cfg = rm.ReceiverConfig(max_iters=3)
        with spawn_echo_bridge(mode="wrong-length") as client:
            est, trace = rm.run_receiver(y, ch, op, BridgePrior(client), cfg,
                                         truth=src)
        assert len(trace) >= 1
        assert all(r.fault is not None for r in trace.records)
        assert trace.error is None
        assert np.all(np.isfinite(est.values))

    def test_stall_falls_back_without_hanging(self):
        src, op, ch, y = self.setup_run()
        cfg = rm.ReceiverConfig(max_iters=2)
        with spawn_echo_bridge(mode="stall", timeout=0.3) as client:
            est, trace = rm.run_receiver(y, ch, op, BridgePrior(client), cfg,
                                         truth=src)
        assert len(trace) >= 1
        assert trace.records[0].fault is not None
        assert np.all(np.isfinite(est.values))


def socket_echo_server(ready, stop):
    """Single-connection TCP loopback running the stdio server logic."""
    lsock = socket.create_server(("127.0.0.1", 0))
    ready["port"] = lsock.getsockname()[1]
    ready["event"].set()
    lsock.settimeout(5.0)
    try:
        conn, _ = lsock.accept()
    except socket.timeout:
        lsock.close()
        return
    with conn:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        serve(rfile, wfile, mode="echo", scale=1.0)
    lsock.close()


class TestSocketTransport:
    def test_connect_round_trip(self):
        ready = {"event": threading.Event()}
        stop = threading.Event()
        thread = threading.Thread(target=socket_echo_server,
                                  args=(ready, stop), daemon=True)
        thread.start()
        assert ready["event"].wait(5.0)
        values = np.array([0.5, -1.5, 2.0])
        client = BridgeClient.connect("127.0.0.1", ready["port"], timeout=5.0)
        try:
            out = client.denoise_once(values, 0.5, 0.25)
            assert np.array_equal(out, values)
        finally:
            client.close()
        thread.join(timeout=5.0)

    def test_connect_stall_hits_timeout_and_closes(self):
        lsock = socket.create_server(("127.0.0.1", 0))
        accepted = []
        thread = threading.Thread(
            target=lambda: accepted.append(lsock.accept()[0]), daemon=True)
        thread.start()
        client = BridgeClient.connect("127.0.0.1", lsock.getsockname()[1],
                                      timeout=0.3)
        try:
            with pytest.raises(BridgeTimeoutError):
                client.denoise_once(np.ones(4), 0.5, 1.0)
            with pytest.raises(BridgeError, match="bridge is closed"):
                client.denoise_once(np.ones(4), 0.5, 1.0)
        finally:
            client.close()
            thread.join(timeout=5.0)
            for conn in accepted:
                conn.close()
            lsock.close()


    def test_server_closing_mid_response_fails_and_closes(self):
        lsock = socket.create_server(("127.0.0.1", 0))

        def send_half_a_reply():
            conn, _ = lsock.accept()
            with conn:
                got = b""
                while len(got) < len(encode_request(np.ones(4), 0.5, 1.0)):
                    got += conn.recv(64)
                # the 16-byte head and 10 of the 16 payload bytes
                conn.sendall(encode_response(np.ones(4))[:-6])

        thread = threading.Thread(target=send_half_a_reply, daemon=True)
        thread.start()
        client = BridgeClient.connect("127.0.0.1", lsock.getsockname()[1],
                                      timeout=5.0)
        try:
            with pytest.raises(BridgeProtocolError,
                               match="bridge closed the stream after 10 of "
                                     "16 bytes"):
                client.denoise_once(np.ones(4), 0.5, 1.0)
            assert client.closed
        finally:
            client.close()
            thread.join(timeout=5.0)
            lsock.close()

    @pytest.mark.parametrize("port", [0, 65536, 70000, -1])
    def test_port_out_of_range_is_refused_before_connecting(self, port,
                                                            monkeypatch):
        # socket.create_connection takes a port modulo 65536: 70000 once
        # reached port 4464
        def no_connect(*args, **kwargs):
            raise AssertionError("a connection was made")

        monkeypatch.setattr(socket, "create_connection", no_connect)
        with pytest.raises(InvalidParameterError,
                           match=f"port must be in 1-65535, got {port}"):
            BridgeClient.connect("127.0.0.1", port)


class TestBridgePrior:
    def test_snr_kind_validation(self):
        with pytest.raises(InvalidParameterError):
            BridgePrior(None, snr_kind="score")

    def test_eval_count_increments(self):
        with spawn_echo_bridge() as client:
            prior = BridgePrior(client, snr_kind="ddim")
            prior.denoise(np.ones(4), 0.5, 1.0)
            prior.denoise(np.ones(4), 0.5, 1.0)
            assert prior.eval_count == 2
