"""Let child processes the tests start (the echo server, the CLI) import
the package from this checkout, as the tests themselves do through
``pythonpath`` in pyproject.toml, and fail any test that leaves a bridge
child running."""

import os

import pytest

from rmoamp.bridge import BridgeClient

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(autouse=True)
def spawned(monkeypatch):
    """Child processes started through BridgeClient.spawn, in order.

    A child still running when the test ends is killed, and the test fails.
    """
    procs = []
    spawn = BridgeClient.spawn.__func__

    def recording(cls, argv, timeout=5.0):
        client = spawn(cls, argv, timeout=timeout)
        procs.append(client._proc)
        return client

    monkeypatch.setattr(BridgeClient, "spawn", classmethod(recording))
    yield procs
    running = [proc for proc in procs if proc.poll() is None]
    for proc in running:
        proc.kill()
        proc.wait()
    if running:
        pytest.fail(f"{len(running)} bridge child(ren) left running: "
                    f"{[proc.args for proc in running]}")
