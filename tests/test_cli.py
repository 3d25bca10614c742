import hashlib
import io
import json
import sys

import numpy as np
import pytest

from coevo.cli import cli
from coevo.games import fixture
from coevo.ioutil import atomic_write_text


def run_cli(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_fig1(capsys):
    code, out, _ = run_cli(capsys, "solve", "--fixture", "fig1")
    assert code == 0
    payload = json.loads(out)
    assert payload["grundy"] == [1, 0, 2, 1, 0]
    assert payload["critical"] == [0, 2]
    assert payload["first_player_win"] is True
    assert payload["canonical_strategy"] == {"0": 1, "1": 2, "2": 4, "3": 4}


def test_solve_second_player_game(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--family", "subtraction_nim", "--n", "7", "--k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["first_player_win"] is False
    assert payload["canonical_strategy"] is None


def test_gen_writes_game_and_dot(capsys, tmp_path):
    game_path = tmp_path / "game.json"
    dot_path = tmp_path / "game.dot"
    code, _, _ = run_cli(
        capsys,
        "gen", "--family", "chomp", "--m", "2",
        "--out", str(game_path), "--dot", str(dot_path),
    )
    assert code == 0
    data = json.loads(game_path.read_text())
    assert len(data["vertices"]) == 5
    assert "digraph" in dot_path.read_text()
    # A failed write re-raises and takes its temporary file with it.
    with pytest.raises(TypeError):
        atomic_write_text(tmp_path / "bad.txt", 5)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["game.dot", "game.json"]


def test_gen_then_solve_file(capsys, tmp_path):
    game_path = tmp_path / "fig1.json"
    run_cli(capsys, "gen", "--fixture", "fig1", "--out", str(game_path))
    code, out, _ = run_cli(capsys, "solve", "--game", str(game_path))
    assert code == 0
    assert json.loads(out)["grundy"] == [1, 0, 2, 1, 0]


def test_run_deterministic(capsys, tmp_path):
    argv = [
        "run", "--family", "subtraction_nim", "--n", "10", "--k", "2",
        "--mu", "64", "--gamma-theorem", "--max-gen", "500", "--seed", "7",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run_cli(capsys, *argv, "--out", str(first))[0] == 0
    assert run_cli(capsys, *argv, "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["result"]["succeeded"] is True
    assert payload["extended"] is True  # n=10 heap game needs the start vertex
    assert payload["config"]["gamma"] == pytest.approx(1 / 400)


def test_run_solves_the_game_once(capsys, monkeypatch):
    from coevo import grundy

    calls = []
    inner_flags, inner_values = grundy.zero_flags, grundy.grundy_values
    monkeypatch.setattr(grundy, "zero_flags", lambda g: calls.append(("flags", g.n)) or inner_flags(g))
    monkeypatch.setattr(grundy, "grundy_values", lambda g: calls.append(("values", g.n)) or inner_values(g))
    argv = [
        "run", "--family", "subtraction_nim", "--n", "10", "--k", "2",
        "--mu", "8", "--gamma-theorem", "--max-gen", "20",
    ]
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == [("flags", 10)]  # the base game; the forced start's flag follows from it


def test_run_fixed_gamma_on_a_game_without_moves(capsys):
    argv = ["run", "--family", "chomp", "--m", "1", "--mu", "4"]
    code, out, _ = run_cli(capsys, *argv, "--gamma", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["extended"] is True and payload["result"]["succeeded"] is True
    code, _, err = run_cli(capsys, *argv, "--gamma-theorem")
    assert code == 2 and "no moves" in err


def test_run_trace(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--fixture", "fig1", "--mu", "8", "--gamma", "0.02",
        "--max-gen", "6", "--seed", "1", "--stop", "cap", "--trace-every", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert [t["generation"] for t in payload["trace"]] == [2, 4, 6]


def test_switch_vertex(capsys, tmp_path):
    game_path = tmp_path / "fig1.json"
    run_cli(capsys, "gen", "--fixture", "fig1", "--out", str(game_path))
    code, out, _ = run_cli(capsys, "switch", "--game", str(game_path), "--vertex", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == 2
    assert payload["method"] == "exact_search"
    assert payload["witness"]


@pytest.mark.parametrize(
    "argv, witness",
    [
        (["--fixture", "fig1", "--vertex", "0"], []),  # the root is on every path
        (["--fixture", "chain3", "--vertex", "3"], []),  # so is a forced line's sink
        (["--fixture", "fig1", "--vertex", "4", "--edge-limit", "0"], None),  # a bound has none
        (["--fixture", "fig3_bottom", "--vertex", "9"], None),  # 21 edges: past the default budget
    ],
    ids=["fig1-root", "chain3-sink", "fig1-bound", "fig3_bottom-default-budget"],
)
def test_switch_witness_is_empty_only_for_the_empty_switcher(capsys, argv, witness):
    code, out, _ = run_cli(capsys, "switch", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"] == witness
    assert payload["method"] == ("path_bound" if witness is None else "exact_search")


def test_switch_takes_no_mode(capsys):
    # The method follows from the game and --edge-limit alone.
    code, out, err = run_cli(capsys, "switch", "--fixture", "fig1", "--mode", "exact")
    assert code == 1
    assert out == ""
    assert "--mode" in err


def test_switch_profile(capsys):
    code, out, _ = run_cli(capsys, "switch", "--fixture", "fig1")
    assert code == 0
    payload = json.loads(out)
    assert payload["s_bar"] == 2
    assert payload["s_hat"] == 1
    assert payload["reports"]["3"]["value"] == 2


def test_analyze_uniform(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--fixture", "fig1")
    assert code == 0
    payload = json.loads(out)
    assert payload["reach"]["0"] == 1.0
    assert payload["win"]["0"] == pytest.approx(2 / 3)
    assert sum(payload["selection"]["0"]) == pytest.approx(1.0)


def test_analyze_model_file(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(
        json.dumps({"gamma": 0.0, "dists": {"0": [0, 0, 1], "1": [1], "2": [1, 0], "3": [1]}})
    )
    code, out, _ = run_cli(
        capsys, "analyze", "--fixture", "fig1", "--model", str(model_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reach"]["4"] == 1.0
    assert payload["win"]["0"] == 1.0


def test_analyze_output_is_pinned(capsys, tmp_path):
    # Digests of the whole JSON, recorded from the per-vertex analysis (one
    # reach and one win pass per interior vertex): the single pass must
    # reproduce its output byte for byte.
    code, out, _ = run_cli(capsys, "analyze", "--family", "chomp", "--m", "4")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3728003a68159cd504b9450b6b8ed00882d82358ef0e54433fede230265a288b"
    )
    g, rng = fixture("fig1"), np.random.default_rng(11)
    dists = {}
    for v in g.interior:
        w = rng.random(int(g.offsets[v + 1] - g.offsets[v])) + 0.05
        dists[str(v)] = (w / w.sum()).tolist()
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"gamma": 0.0, "dists": dists}))
    code, out, _ = run_cli(capsys, "analyze", "--fixture", "fig1", "--model", str(model_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2b3ce184a7f3abf658b541119d77716c61e620d5912a76e5dd28a9c147552f0b"
    )


def test_switch_hybrid_falls_back_past_the_candidate_limit(capsys):
    # 25 edges fit the edge budget, but 12 two-move vertices give 3**12
    # candidate sets, above the candidate limit.
    argv = ["switch", "--family", "subtraction_nim", "--n", "14", "--k", "2", "--edge-limit", "25"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    profile = json.loads(out)
    assert profile["mode"] == "path_bound"
    code, out, _ = run_cli(capsys, *argv, "--vertex", "3")
    assert code == 0
    report = json.loads(out)
    assert report["method"] == "path_bound"
    assert report["value"] == profile["reports"]["3"]["value"]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--fixture", "fig2"],
            "b25c06425afcbcfea71828750a7ede2b0addc8a5743d537950cee3ec781865aa",
        ),
        (
            ["--fixture", "fig4"],
            "78f6ce1ffeef57bb45559d24687204248879777a5b5e26df694fb32abcdb676d",
        ),
        (
            ["--family", "silver_dollar", "--m", "5", "--k", "2"],
            "e66156528fd2d5f4f26797ca38a4a7d9b1b04f33cbdea20dfdc8a3df7bdca3cf",
        ),
        (
            ["--fixture", "fig4", "--vertex", "7"],
            "342552a3548f9df3ca9b606972ff04e5859bc35b5dcfcc99861e1c48eda8f07d",
        ),
        (
            ["--fixture", "fig3_bottom", "--vertex", "9", "--edge-limit", "32"],
            "f05c1c2e866a6921e0b510cdf582572cb3e463e4956d1b6e5aea773f60f71884",
        ),
        (
            ["--family", "subtraction_nim", "--n", "12", "--k", "2", "--edge-limit", "25"],
            "7b2b8c391f7c8e379ecd45e834873b2112e9e9fb0a10744b6d2afcf3f171850e",
        ),
    ],
    ids=["fig2", "fig4", "silver5-2", "fig4-vertex7", "fig3_bottom-vertex9", "nim12-hybrid"],
)
def test_switch_output_is_pinned(capsys, argv, digest):
    # Digests of the whole JSON, recorded from the search that ran a DFS per
    # candidate edge set: the per-depth column pass must reproduce its values,
    # bounds and witnesses byte for byte.
    code, out, _ = run_cli(capsys, "switch", *argv)
    assert code == 0
    assert '"exact_search"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_intrans_nim(capsys):
    code, out, _ = run_cli(
        capsys, "intrans", "--family", "subtraction_nim", "--n", "7", "--k", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert len(payload["nim_strings"]) == 3


def test_intrans_on_a_game_of_forced_moves(capsys):
    # 64 interior vertices, each with one move: a single strategy, no cycle.
    code, out, _ = run_cli(capsys, "intrans", "--family", "subtraction_nim", "--n", "65", "--k", "1")
    assert code == 0
    assert json.loads(out)["found"] is False


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--fixture", "fig1"], "7ff08e63cd52f49504d8536beaaed9e0b21e1ac700d1787c1edc8b564dccec46"),
        (
            ["--family", "subtraction_nim", "--n", "7", "--k", "2"],
            "79649d429d52bb76ad93aa77b732d9b960c2353395fdee22bd8665eeacba66ce",
        ),
        (
            ["--family", "subtraction_nim", "--n", "10", "--k", "2", "--triples", "50"],
            "db15bb69824d472b52ac97cb4b95dbb292519b2313d34e699ca5909628510607",
        ),
        (
            ["--family", "subtraction_nim", "--n", "14", "--k", "2", "--triples", "500", "--seed", "3"],
            "73178372a7fd9a4b7186a8ea2b66a9c24d37b0308446d0bd5b7204541abfab54",
        ),
    ],
    ids=["fig1-none", "nim7-exhaustive", "nim10-sampled", "nim14-sampled"],
)
def test_intrans_output_is_pinned(capsys, argv, digest):
    # Digests of the whole JSON, recorded from the search that played every
    # pairing twice through Strategy dicts: the slot-column search must
    # reproduce its output byte for byte.
    code, out, _ = run_cli(capsys, "intrans", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_outputs(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--family", "subtraction_nim",
        "--instances", "n=8,k=2;n=16,k=2", "--mu-grid", "32",
        "--replicates", "1", "--gamma-theorem", "--max-gen", "1000",
        "--seed", "3", "--out-dir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == 2
    assert (tmp_path / "records.csv").exists()
    assert (tmp_path / "plot.json").exists()


def test_usage_errors(capsys):
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "solve")[1] == ""  # no game source given
    assert run_cli(capsys, "solve")[0] == 1
    assert run_cli(capsys, "run", "--fixture", "fig1", "--mu", "4")[0] == 1  # no gamma
    assert run_cli(capsys, "--help")[0] == 0


def test_runtime_errors(capsys):
    code, _, err = run_cli(capsys, "solve", "--game", "/nonexistent/game.json")
    assert code == 2
    assert "error" in err


class ClosedPipe(io.StringIO):
    """A standard output whose reader has gone, as when the output is piped into ``head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipe_exits_2_quietly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli(["solve", "--fixture", "fig1"]) == 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "change, message",
    [
        ({"succ": [1.9, 2, 4]}, "vertex 0: succ must be a list of JSON integers, got 1.9"),
        ({"succ": [True, 2, 4]}, "vertex 0: succ must be a list of JSON integers, got True"),
        ({"id": "0"}, "vertex entry 0: id must be a JSON integer, got '0'"),
        ({"root": "0"}, "root must be a JSON integer, got '0'"),
        ({"succ": None}, "vertex entry 0 has no succ"),  # used to print 'succ'
    ],
)
def test_game_file_with_non_integers_is_invalid(capsys, tmp_path, change, message):
    # A float successor used to load as the vertex it truncates to. A change
    # to None removes the field.
    game_path = tmp_path / "fig1.json"
    run_cli(capsys, "gen", "--fixture", "fig1", "--out", str(game_path))
    data = json.loads(game_path.read_text())
    target = data if "root" in change else data["vertices"][0]
    for key, value in change.items():
        if value is None:
            del target[key]
        else:
            target[key] = value
    game_path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "solve", "--game", str(game_path))
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_game_file_labels(capsys, tmp_path):
    # A label must be a JSON string, and the DOT rendering escapes it.
    game_path, dot_path = tmp_path / "fig1.json", tmp_path / "fig1.dot"
    run_cli(capsys, "gen", "--fixture", "fig1", "--out", str(game_path))
    data = json.loads(game_path.read_text())
    data["vertices"][1]["label"] = 7
    game_path.write_text(json.dumps(data))
    message = "error: vertex 1: label must be a JSON string, got 7\n"
    assert run_cli(capsys, "solve", "--game", str(game_path)) == (2, "", message)
    data["vertices"][1]["label"] = 'a"b\\c'
    game_path.write_text(json.dumps(data))
    assert run_cli(capsys, "gen", "--game", str(game_path), "--dot", str(dot_path))[0] == 0
    assert '  1 [label="a\\"b\\\\c"];' in dot_path.read_text().splitlines()


# --- usage errors at the boundary (exit 1, message names the flag) ---------

def _sweep_argv(tmp_path, **overrides):
    args = {
        "--family": "subtraction_nim",
        "--instances": "n=8,k=2",
        "--mu-grid": "8",
        "--replicates": "1",
        "--max-gen": "10",
        "--out-dir": str(tmp_path),
        "--gamma-theorem": None,
    }
    args.update(overrides)
    argv = ["sweep"]
    for flag, value in args.items():
        if value is not False:
            argv += [flag] if value is None else [flag, value]
    return argv


def test_sweep_without_gamma_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, *_sweep_argv(tmp_path, **{"--gamma-theorem": False}))
    assert code == 1
    assert "--gamma" in err


@pytest.mark.parametrize("instances", ["n=8,k", "n=x", "n=8,k=2;n=8,k=2,m=3", "n=8,k=2,n=9"])
def test_sweep_bad_instances_is_usage_error(capsys, tmp_path, instances):
    code, _, err = run_cli(capsys, *_sweep_argv(tmp_path, **{"--instances": instances}))
    assert code == 1
    assert "--instances" in err
    assert not any(tmp_path.iterdir())


def test_sweep_bad_later_instance_fails_before_any_run(capsys, tmp_path, monkeypatch):
    from coevo import eda

    calls = []
    run_umda = eda.run_umda
    monkeypatch.setattr(eda, "run_umda", lambda *a, **k: calls.append(a) or run_umda(*a, **k))
    argv = _sweep_argv(tmp_path, **{"--family": "chomp", "--instances": "m=3;m=0"})
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "chomp needs m >= 1" in err
    assert calls == []
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--mu-grid", "0"),
        ("--mu-grid", "64,32"),
        ("--mu-grid", "8,8"),  # two series both named median-evaluations-mu8
        ("--replicates", "0"),
        ("--max-gen", "0"),
        ("--seed", "-1"),
        ("--gamma", "0.01"),  # given together with --gamma-theorem
    ],
)
def test_sweep_bad_count_is_usage_error(capsys, tmp_path, flag, value):
    code, _, err = run_cli(capsys, *_sweep_argv(tmp_path, **{flag: value}))
    assert code == 1
    assert flag in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, counts", [("--mu", ["--mu", "0"]), ("--max-gen", ["--mu", "4", "--max-gen", "0"])]
)
def test_run_count_zero_is_usage_error(capsys, flag, counts):
    code, _, err = run_cli(capsys, "run", "--fixture", "fig1", "--gamma", "0.01", *counts)
    assert code == 1
    assert flag in err


@pytest.mark.parametrize("gamma", ["-0.5", "nan", "inf"])
def test_run_bad_gamma_is_usage_error(capsys, gamma):
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", "--mu", "4", "--gamma", gamma)
    assert code == 1
    assert out == ""
    assert "--gamma" in err


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--trace-every", ["run", "--mu", "4", "--gamma", "0.01", "--trace-every", "-1"]),
        ("--triples", ["intrans", "--triples", "-5"]),
        ("--triples", ["intrans", "--triples", "0"]),
        ("--seed", ["run", "--mu", "4", "--gamma", "0.01", "--seed", "-1"]),
        ("--seed", ["intrans", "--seed", "-1"]),
        ("--edge-limit", ["switch", "--edge-limit", "-5"]),
        ("--edge-limit", ["switch", "--vertex", "3", "--edge-limit", "-5"]),
        ("--gamma", ["run", "--mu", "4", "--gamma", "0.01", "--gamma-theorem"]),
    ],
)
def test_negative_or_zero_count_is_usage_error(capsys, flag, argv):
    code, out, err = run_cli(capsys, *argv, "--fixture", "fig1")
    assert code == 1
    assert out == ""
    assert flag in err


@pytest.mark.parametrize(
    "message, argv",
    [
        (
            "--family: chomp takes no parameter k",
            ["run", "--family", "chomp", "--m", "3", "--k", "5", "--mu", "4", "--gamma", "0.01"],
        ),
        (
            "--family: subtraction_nim needs parameter k",
            ["solve", "--family", "subtraction_nim", "--n", "8"],
        ),
        (
            "--instances: chomp takes no parameter k",
            ["sweep", "--family", "chomp", "--instances", "m=3,k=9"],
        ),
        (
            "--instances: chomp needs parameter m",
            ["sweep", "--family", "chomp", "--instances", "n=4"],
        ),
        ("--fixture takes no --n", ["gen", "--fixture", "fig1", "--n", "3"]),
        ("--game takes no --k", ["solve", "--game", "game.json", "--k", "2"]),
    ],
)
def test_game_parameter_mismatch_is_usage_error(capsys, tmp_path, message, argv):
    if argv[0] == "sweep":
        argv = argv + ["--mu-grid", "8", "--gamma-theorem", "--out-dir", str(tmp_path / "out")]
    else:
        argv = argv + ["--out", str(tmp_path / "out.json")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("vertex", ["5", "99", "-1"])
@pytest.mark.parametrize(
    "budget",
    [
        pytest.param(["--edge-limit", "32"], id="exact"),
        pytest.param(["--edge-limit", "0"], id="bound"),
        pytest.param([], id="hybrid"),
    ],
)
def test_switch_vertex_outside_the_game_is_usage_error(capsys, vertex, budget):
    # Whatever the budget, and so the method, the vertex is checked first.
    code, out, err = run_cli(capsys, "switch", "--fixture", "fig1", "--vertex", vertex, *budget)
    assert code == 1
    assert out == ""
    assert f"--vertex {vertex}" in err
    assert "0..4" in err


# --- analyze --model validation (exit 2, message names the vertex) ---------

def _analyze_with(capsys, tmp_path, dists, gamma=0.0):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"gamma": gamma, "dists": dists}))
    return run_cli(capsys, "analyze", "--fixture", "fig1", "--model", str(model_path))


FIG1_OK = {"0": [0, 0, 1], "1": [1], "2": [1, 0], "3": [1]}


@pytest.mark.parametrize(
    "vertex, bad",
    [
        ("0", [2.0, -1.0, 0.0]),  # negative entry; used to print reach 2.0
        ("2", [1.0]),  # wrong length; used to die with an IndexError
        ("0", [0.5, 0.5, 0.5]),  # does not sum to one
        # Each of these used to be read as a plausible vector, or to die
        # with a float() message that named no vertex.
        ("0", [True, False, False]),
        ("0", ["0.5", "0.25", "0.25"]),
        ("2", {"0": 1, "1": 0}),
        ("0", [10**400, 0, 0]),  # a JSON integer no float holds
    ],
)
def test_analyze_rejects_bad_vector(capsys, tmp_path, vertex, bad):
    code, out, err = _analyze_with(capsys, tmp_path, FIG1_OK | {vertex: bad})
    assert code == 2
    assert out == ""
    assert f"vertex {vertex}" in err


@pytest.mark.parametrize(
    "gamma",
    ["nan", "0.1", [1], True, -0.5, float("nan"), float("inf"), pytest.param(10**400, id="huge")],
)
def test_analyze_rejects_bad_gamma(capsys, tmp_path, gamma):
    code, out, err = _analyze_with(capsys, tmp_path, FIG1_OK, gamma=gamma)
    assert (code, out) == (2, "")
    assert "gamma" in err


def test_analyze_rejects_non_finite_entry(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"dists": FIG1_OK}).replace("[1, 0]", "[NaN, 1]"))
    code, _, err = run_cli(capsys, "analyze", "--fixture", "fig1", "--model", str(model_path))
    assert code == 2
    assert "vertex 2" in err


def test_analyze_rejects_wrong_keys(capsys, tmp_path):
    missing = {v: p for v, p in FIG1_OK.items() if v != "3"}
    code, _, err = _analyze_with(capsys, tmp_path, missing)
    assert code == 2
    assert "vertex 3" in err
    code, _, err = _analyze_with(capsys, tmp_path, FIG1_OK | {"4": [1]})
    assert code == 2
    assert "vertex 4" in err
    model_path = tmp_path / "model.json"
    for snapshot in ({"gamma": 0}, {"dists": [0.5, 0.5]}):
        model_path.write_text(json.dumps(snapshot))
        code, _, err = run_cli(capsys, "analyze", "--fixture", "fig1", "--model", str(model_path))
        assert code == 2
        assert "dists" in err
