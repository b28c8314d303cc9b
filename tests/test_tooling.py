"""The benchmark's span tracer patches library functions by name; every name
it lists must still exist, or a traced benchmark run fails at start-up."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_functions():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED_FUNCTIONS


@pytest.mark.parametrize(
    "span,module_name,attr", traced_functions(), ids=lambda value: str(value)
)
def test_traced_function_exists(span, module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{span}: {module_name}.{attr} is gone"
