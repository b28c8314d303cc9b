"""Checks on what lives beside the library: the benchmark's span tracer
patches library functions by name, so every name it lists must still exist,
or a traced benchmark run fails at start-up; the package exports only names
it defines; the README's Python session must run as written; the
README states the dimension caps the code enforces; and each decision
tolerance is applied in the one module that owns it."""

import importlib
import importlib.util
import pathlib
import re

import pytest

from artifact.asymptotics import MAX_ENUMERATION_DIM
from artifact.linalg import MAX_DIM

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"


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


def test_package_exports_resolve():
    # import artifact passes with a stale name in __all__; the star import does not.
    import artifact

    names = artifact.__all__
    assert len(names) == len(set(names)), "artifact.__all__ lists a name twice"
    namespace = {}
    exec("from artifact import *", namespace)
    assert set(names) <= namespace.keys()


def test_readme_session_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks, "README.md has no Python session"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_states_the_sigma_dimension_cap():
    stated = re.findall(
        r"`sigma`: correlation matrix, dimension 1\.\.(\d+) \(`analyze` needs d <= (\d+)",
        (ROOT / "README.md").read_text(),
    )
    assert stated == [(str(MAX_DIM), str(MAX_ENUMERATION_DIM))]


@pytest.mark.parametrize(
    "name,owner",
    [
        ("BOUNDARY_EPS", "qp.py"),
        ("H_TOLERANCE", "qp.py"),
        ("GAMMA_TIE_REL", "asymptotics.py"),
        ("MAX_ENUMERATION_DIM", "asymptotics.py"),
    ],
)
def test_tolerance_has_one_owner(name, owner):
    # A tolerance read in a second module is a second copy of its decision;
    # the package's re-exports are not reads.
    readers = sorted(
        path.name
        for path in (ROOT / "src" / "artifact").glob("*.py")
        if path.name not in (owner, "__init__.py") and re.search(rf"\b{name}\b", path.read_text())
    )
    assert readers == [], f"{name} is read outside {owner}"
