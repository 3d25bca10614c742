"""The package's public surface and the names the benchmark's tracer wraps."""

import ast
import functools
from pathlib import Path

import pytest

import coevo
import coevo.harness  # traced owners the package itself does not import
import coevo.oracles
from coevo import graphs, grundy, switchability

RUN_PY = Path(__file__).resolve().parents[1] / "benchmark" / "run.py"

# Reference code that only the tests run lives in tests/helpers.py, not in the package;
# switchability._switches is deleted, not moved.
MOVED = {
    coevo: ("play", "Transcript", "is_optimal_sufficient", "is_switcher"),
    graphs: ("play", "Transcript", "enumerate_strategies"),
    grundy: ("is_optimal_sufficient",),
    switchability: ("is_switcher", "_switches"),
    graphs.Strategy: ("validate", "key"),
}


def test_every_exported_name_resolves_once():
    assert len(set(coevo.__all__)) == len(coevo.__all__)
    for name in coevo.__all__:
        assert getattr(coevo, name) is not None, name


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_test_only_references_are_not_in_the_package(module):
    for name in MOVED[module]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in getattr(module, "__all__", ())


def traced_pairs() -> list[tuple[str, str]]:
    """Every ``tracer.wrap(owner, "name", ...)`` in ``benchmark/run.py``, as source text."""
    calls = [
        node
        for node in ast.walk(ast.parse(RUN_PY.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap"
    ]
    return [(ast.unparse(call.args[0]), call.args[1].value) for call in calls]


def test_every_traced_layer_is_in_its_owner():
    # The tracer finds a layer by vars(owner), so a renamed, moved or inlined
    # name would show up as an absent layer rather than as an error.
    pairs = traced_pairs()
    assert len(pairs) == 14
    for owner_text, name in pairs:
        owner = functools.reduce(getattr, owner_text.split("."), coevo)
        assert name in vars(owner), f"{owner_text}.{name}"
