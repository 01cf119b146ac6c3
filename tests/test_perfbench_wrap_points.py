"""Every name the benchmark's tracer wraps still exists where it looks.

``perfbench/tracing.py`` reports the metrics of a vanished wrap point as
null instead of failing, so a rename or a move in ``src/`` would otherwise
pass unnoticed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAP_POINTS = sorted({point for points in load_tracing().WRAP_POINTS.values()
                      for point in points})


@pytest.mark.parametrize("module,path", WRAP_POINTS,
                         ids=[f"{m}:{p}" for m, p in WRAP_POINTS])
def test_wrap_point_resolves(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module}.{path} is not defined on its owner"
