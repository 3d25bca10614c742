"""The package's public surface and the names the benchmark's tracer wraps."""

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import pytest

import coevo
import coevo.harness  # traced owners the package itself does not import
import coevo.oracles
from coevo import eda, games, graphs, grundy, switchability

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "benchmark" / "run.py"

# Reference code that only the tests run lives in tests/helpers.py, not in the package;
# switchability._switches, eda.Population, eda._restrict_rows (now eda.restrict) and
# graphs.save_game/load_game (the CLI writes and reads game files itself) are deleted,
# not moved.
MOVED = {
    coevo: ("play", "Transcript", "is_optimal_sufficient", "is_switcher", "depth"),
    eda: ("Population", "beta_plus", "beta_minus", "_restrict_rows"),
    games: ("nim_decode", "BadChar", "FIXTURE_MARKED"),
    graphs: ("play", "Transcript", "enumerate_strategies", "save_game", "load_game"),
    grundy: ("is_optimal_sufficient",),
    switchability: ("is_switcher", "_switches", "depth", "_check_edges", "ForeignEdge", "TooLarge"),
    graphs.Strategy: ("validate", "key"),
}


def test_every_exported_name_resolves_once():
    assert len(set(coevo.__all__)) == len(coevo.__all__) == 24
    for name in coevo.__all__:
        assert getattr(coevo, name) is not None, name


@pytest.mark.parametrize("module", list(MOVED), ids=lambda m: m.__name__)
def test_test_only_references_are_not_in_the_package(module):
    for name in MOVED[module]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in getattr(module, "__all__", ())


def test_switchability_method_lives_only_on_the_reports():
    # Every report names its method; neither the profile nor the call carries it again.
    fields = {f.name for f in dataclasses.fields(switchability.SwitchabilityProfile)}
    assert "mode_used" not in fields
    assert type(switchability.switchability_reports(games.fixture("fig1"), [0])) is dict


@pytest.mark.parametrize("family", list(games.FAMILIES))
def test_every_constructor_takes_exactly_its_declared_parameters(family):
    # GameSpec passes only the declared names, so a further parameter could
    # only ever be set by calling the constructor directly.
    make, names = games.FAMILIES[family]
    assert tuple(inspect.signature(make).parameters) == names


def test_the_package_imports_nothing_from_the_tests():
    # The references under tests/ check the package; the package must run without them.
    sources = sorted((ROOT / "src" / "coevo").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("helpers", "tests"), f"{path.name} imports {name}"


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
