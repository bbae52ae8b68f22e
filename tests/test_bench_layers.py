"""Every function the benchmark tracer wraps exists in latsim.

``bench/run.py --trace 1`` looks each ``(module, attr)`` of
``bench/tracer.LAYERS`` up in ``latsim.<module>`` at run time, so a rename
in ``src/`` would break it without breaking any other test.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = load_layers()


def test_layers_are_listed():
    assert len(LAYERS) == len({span for span, _, _ in LAYERS}) > 0


@pytest.mark.parametrize("span, module, attr", LAYERS,
                         ids=[span for span, _, _ in LAYERS])
def test_layer_resolves_to_a_callable(span, module, attr):
    target = getattr(importlib.import_module(f"latsim.{module}"), attr, None)
    assert callable(target), f"{span}: latsim.{module}.{attr} is missing"
