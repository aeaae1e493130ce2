"""The benchmark's tracer wraps library names; each one must still exist.

``perfbench/tracing.py`` looks every traced name up with
``owner.__dict__[attr]``, so a refactor that drops or moves one fails here
instead of at benchmark time.  Nothing under perfbench/ is changed.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
HOOKS = tracing.SPANNED + tracing.COUNTED


@pytest.mark.parametrize(
    "owner, attr, name", HOOKS, ids=[f"{o.__name__}.{a}" for o, a, _ in HOOKS]
)
def test_traced_name_is_an_attribute_of_its_owner(owner, attr, name):
    assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr} is gone"
