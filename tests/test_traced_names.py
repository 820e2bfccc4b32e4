"""Every function the benchmark tracer wraps still exists under its name.

``bench/tracer.py`` installs its spans with ``getattr`` on
``zenogate.<layer>.<function>``; a rename or deletion there would only
surface as a failed ``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, fn) for layer, fns in module.LAYER_FUNCTIONS.items() for fn in fns]


@pytest.mark.parametrize("layer,name", _layer_functions(), ids=lambda v: v)
def test_traced_function_resolves(layer, name):
    module = importlib.import_module(f"zenogate.{layer}")
    assert callable(getattr(module, name, None)), f"zenogate.{layer}.{name}"
