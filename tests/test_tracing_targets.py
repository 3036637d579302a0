"""Every function the benchmark's span tracer wraps exists in the library."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracing().TARGETS


@pytest.mark.parametrize("layer, name", [(layer, name) for layer, names in TARGETS.items()
                                         for name in names])
def test_traced_name_resolves(layer, name):
    # the tracer swaps each target on its chronotax module, and a dotted
    # target on the class that defines it, so a removed or renamed function
    # breaks a traced benchmark run
    module = importlib.import_module(f"chronotax.{layer}")
    if "." in name:
        cls_name, attr = name.split(".")
        target = vars(getattr(module, cls_name)).get(attr)
    else:
        target = getattr(module, name, None)
    assert callable(target), f"chronotax.{layer}.{name}"
