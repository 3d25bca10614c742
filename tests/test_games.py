import hashlib
import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coevo.games import (
    BadLength,
    FAMILIES,
    BadParams,
    GameSpec,
    IllegalMove,
    UnknownFixture,
    chomp,
    fixture,
    nim_encode,
    silver_dollar,
    subtraction_nim,
    turning_turtles,
)
from coevo.graphs import Strategy
from coevo.grundy import ensure_first_player_win, grundy_values
from helpers import (
    FIXTURE_MARKED,
    BadChar,
    chomp_reference,
    nim_decode,
    silver_dollar_reference,
    subtraction_nim_reference,
    successors,
    turning_turtles_reference,
    validate_strategy,
)


# --- subtraction nim -------------------------------------------------------

def test_nim_shape():
    g = subtraction_nim(7, 2)
    assert g.n == 7
    assert g.root == 6
    assert successors(g, 3) == (2, 1)
    assert g.max_degree == 2


def test_nim_degenerate():
    g = subtraction_nim(1, 5)
    assert g.n == 1
    assert g.interior == ()


def test_nim_isomorphic_to_fig3_top(fig3_top):
    g = subtraction_nim(8, 2)
    # Heap v corresponds to chain vertex 7 - v.
    for v in range(8):
        image = sorted(7 - w for w in successors(g, v))
        assert image == sorted(successors(fig3_top, 7 - v))


@pytest.mark.parametrize("n,k", [(0, 2), (3, 0)])
def test_nim_bad_params(n, k):
    with pytest.raises(BadParams):
        subtraction_nim(n, k)


# --- silver dollar ---------------------------------------------------------

def test_silver_dollar_single_coin():
    g = silver_dollar(3, 1)
    assert g.n == 3
    assert g.max_degree == 2
    root_label = g.label(g.root)
    assert root_label == "3"
    # Coin on square 3 may move to square 2 or square 1.
    assert sorted(g.label(w) for w in successors(g, g.root)) == ["1", "2"]


def test_silver_dollar_full_strip():
    g = silver_dollar(4, 4)
    assert g.n == 1
    assert g.interior == ()


def test_silver_dollar_counts():
    g = silver_dollar(4, 2)
    assert g.n == comb(4, 2)
    assert g.label(g.root) == "3,4"
    ends = np.flatnonzero(np.diff(g.offsets) == 0).tolist()
    assert [g.label(v) for v in ends] == ["1,2"]


def test_silver_dollar_custom_start():
    g = silver_dollar(5, 2, start=(2, 4))
    # Reachable positions are exactly those pointwise <= (2, 4).
    labels = {g.label(v) for v in range(g.n)}
    assert labels == {"1,2", "1,3", "1,4", "2,3", "2,4"}


def test_silver_dollar_bad_params():
    with pytest.raises(BadParams):
        silver_dollar(2, 3)
    with pytest.raises(BadParams):
        silver_dollar(4, 2, start=(4, 2))
    with pytest.raises(BadParams, match="start squares must lie in 1..m"):
        silver_dollar(5, 2, start=(0, 3))


# --- turning turtles -------------------------------------------------------

def test_turtles_single_coin():
    g = turning_turtles(1)
    assert g.n == 2
    assert successors(g, 1) == (0,)


def test_turtles_moves_from_single_high_head():
    g = turning_turtles(3)
    assert g.n == 8
    assert successors(g, 0b100) == (0, 1, 2)


def test_turtles_degree_bound():
    g = turning_turtles(5)
    assert g.n == 32
    assert g.max_degree <= 5 + comb(5, 2)


def test_turtles_masks_decrease():
    g = turning_turtles(4)
    for u, w in g.edges():
        assert w < u


# --- chomp -----------------------------------------------------------------

def test_chomp_poison_only():
    g = chomp(1)
    assert g.n == 1
    assert g.interior == ()


def test_chomp_counts():
    assert chomp(2).n == 5
    assert chomp(3).n == comb(6, 3) - 1


def test_chomp_full_board_moves():
    g = chomp(2)
    labels = sorted(g.label(w) for w in successors(g, g.root))
    assert labels == ["1,1", "2,0", "2,1"]


def test_chomp_rows_monotone():
    g = chomp(4)
    for v in range(g.n):
        rows = [int(x) for x in g.label(v).split(",")]
        assert rows == sorted(rows, reverse=True)
        assert any(rows)


# SHA-256 of each chomp graph's successor lists, root, labels and reverse
# topological order, captured before the successor loop was rewritten.
CHOMP_DIGESTS = {
    1: "65685706ff80c4f114f4c2930871ae54b50154d03d06bb0744526bb63afe7f2b",
    2: "87d73e918ef0124abdf9a6ed612e692f99605cb0e6bc145ea6bf656d6dafcef1",
    3: "5dc68c457ac798a27ee6b6f4cdbdfb6828ff072be5f94b660130bc07847cff22",
    4: "429c1aede39853b29eb6156c72f948cbb863236f134e04c3c4a5c35c616e7d5e",
    5: "c13a408a3075817bae0832ea67b4a484b69952f2ee8e9ac76d48ff339bcb4bb7",
    6: "be5cd1b156563fa5111a0cd20074887a47f1dd79f4bec4e80e65f6dc26a40b3d",
}


@pytest.mark.parametrize("m", sorted(CHOMP_DIGESTS))
def test_chomp_graph_pinned(m):
    g = chomp(m)
    succ = [successors(g, v) for v in range(g.n)]
    payload = {"succ": succ, "root": g.root, "labels": g.labels, "reverse_topo": g.reverse_topo}
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == CHOMP_DIGESTS[m]


# The same digest for the other families and for one forced-start graph,
# captured before their generators were rewritten as array code.
FAMILY_DIGESTS = {
    "subtraction_nim n=64 k=2": "eea37d84b8da7a3eb2f5537aee5a7fb36521f4fda47d24b0dc051ba45504befb",
    "subtraction_nim n=300 k=270": "9103431fbce2a29dbd9aa7bea3b4368929d2ea697e72d812e90e90b6cc30a601",
    "silver_dollar m=9 k=3": "724a70e16dfdb0aca7f5d0bfa0935b9da111ddcee8ca4e22e000d37bd8dcd513",
    "silver_dollar m=7 k=2": "2122b9e7bcbd8474f1c8cdf491aee08359764fc7b94c685ff4785115821308d5",
    "silver_dollar m=8 k=3 start=3,5,8": "c9b0796e31139ee69d653128f60703d942dff69d9d9685870d1e452dfd6d95bf",
    "turning_turtles m=8": "4317b5b4e9643e7cd73e7ecf993d5eacb17bbb7cc6884a4cc6e7cd96d83149ce",
    "forced start subtraction_nim n=64 k=2": "01ec5e33ccea991a7a16d44c9edef83aabe5f8ac1d3a749d58bd5d1fcac06f2d",
}
FAMILY_GRAPHS = {
    "subtraction_nim n=64 k=2": lambda: subtraction_nim(64, 2),
    "subtraction_nim n=300 k=270": lambda: subtraction_nim(300, 270),
    "silver_dollar m=9 k=3": lambda: silver_dollar(9, 3),
    "silver_dollar m=7 k=2": lambda: silver_dollar(7, 2),
    "silver_dollar m=8 k=3 start=3,5,8": lambda: silver_dollar(8, 3, start=(3, 5, 8)),
    "turning_turtles m=8": lambda: turning_turtles(8),
    "forced start subtraction_nim n=64 k=2": lambda: ensure_first_player_win(subtraction_nim(64, 2)),
}


@pytest.mark.parametrize("name", sorted(FAMILY_DIGESTS))
def test_family_graph_pinned(name):
    g = FAMILY_GRAPHS[name]()
    succ = [successors(g, v) for v in range(g.n)]
    payload = {"succ": succ, "root": g.root, "labels": g.labels, "reverse_topo": g.reverse_topo}
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == FAMILY_DIGESTS[name]


REFERENCE_CASES = (
    [(subtraction_nim, subtraction_nim_reference, (n, k)) for n in (1, 2, 9, 40) for k in (1, 3, 50)]
    + [(silver_dollar, silver_dollar_reference, (m, k)) for m in range(1, 10) for k in range(1, m + 1)]
    + [(silver_dollar, silver_dollar_reference, (9, 3, start)) for start in [(1, 2, 3), (2, 6, 7), (4, 5, 9)]]
    + [(turning_turtles, turning_turtles_reference, (m,)) for m in range(1, 10)]
    + [(chomp, chomp_reference, (m,)) for m in range(1, 8)]
)


@pytest.mark.parametrize(
    "make, reference, args",
    [pytest.param(*case, id=f"{case[0].__name__}{case[2]}") for case in REFERENCE_CASES],
)
def test_family_equals_its_loop_reference(make, reference, args):
    g, expected = make(*args), reference(*args)
    succ, expected_succ = ([successors(h, v) for v in range(h.n)] for h in (g, expected))
    assert (succ, g.root, g.labels, g.reverse_topo) == (
        expected_succ, expected.root, expected.labels, expected.reverse_topo
    )
    assert np.array_equal(g.targets, expected.targets) and np.array_equal(g.offsets, expected.offsets)


def test_desk_scale_guard():
    with pytest.raises(BadParams):
        turning_turtles(23)
    with pytest.raises(BadParams):
        turning_turtles(0)


# --- census and degree bounds across parameter sweeps ----------------------

def test_census_and_degree_bounds():
    for n in (2, 5, 9, 16):
        for k in (1, 2, 3):
            g = subtraction_nim(n, k)
            assert g.n == n
            assert g.max_degree <= k
    for m in range(1, 9):
        for k in range(1, m + 1):
            g = silver_dollar(m, k)
            assert g.n == comb(m, k)
            assert g.max_degree <= m - k or m == k
    for m in range(1, 8):
        g = turning_turtles(m)
        assert g.n == 2**m
        assert g.max_degree <= m + comb(m, 2)
    for m in range(1, 5):
        g = chomp(m)
        assert g.n == comb(2 * m, m) - 1
        assert g.max_degree <= m * m


# --- fixtures ---------------------------------------------------------------

def test_fixture_shapes(fig1, fig2, fig3_top, fig3_bottom, fig4):
    assert (fig1.n, fig1.edge_count) == (5, 7)
    assert (fig2.n, fig2.edge_count) == (8, 15)
    assert (fig3_top.n, fig3_top.edge_count) == (8, 13)
    assert (fig3_bottom.n, fig3_bottom.edge_count) == (13, 21)
    assert (fig4.n, fig4.edge_count) == (10, 16)
    assert fig3_bottom.label(FIXTURE_MARKED["fig3_bottom"]) == "v"
    assert fig2.label(FIXTURE_MARKED["fig2"]) == "u"


def test_fixture_fig1_is_first_player_win(fig1):
    assert grundy_values(fig1).values[fig1.root] == 1


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixture("fig9")


def test_gamespec_build_round_trip():
    spec = GameSpec("chomp", {"m": 2})
    assert spec.build().n == 5
    assert spec.params_string() == "m=2"
    with pytest.raises(BadParams, match="unknown family 'checkers'"):
        GameSpec("checkers", {})
    with pytest.raises(BadParams, match="chomp needs parameter m"):
        GameSpec("chomp", {"n": 4})
    with pytest.raises(BadParams, match="chomp takes no parameter k"):
        GameSpec("chomp", {"m": 3, "k": 9})
    with pytest.raises(BadParams, match="subtraction_nim needs parameter k"):
        GameSpec("subtraction_nim", {"n": 4})


def test_every_family_builds_from_the_table():
    examples = {
        "subtraction_nim": ({"n": 7, "k": 2}, subtraction_nim(7, 2)),
        "silver_dollar": ({"m": 5, "k": 2}, silver_dollar(5, 2)),
        "turning_turtles": ({"m": 3}, turning_turtles(3)),
        "chomp": ({"m": 3}, chomp(3)),
        "fixture": ({"name": "fig1"}, fixture("fig1")),
    }
    assert set(examples) == set(FAMILIES)
    for family, (params, expected) in examples.items():
        g = GameSpec(family, params).build()
        succ, expected_succ = ([successors(h, v) for v in range(h.n)] for h in (g, expected))
        assert (succ, g.root, g.labels) == (expected_succ, expected.root, expected.labels)
    with pytest.raises(BadParams):
        GameSpec("chomp", {"m": 0}).build()  # names pass, the value is the constructor's to reject


# --- codec ------------------------------------------------------------------

def test_decode_worked_strategy():
    x = nim_decode("122111", 7, 2)
    assert x.choice == {1: 0, 2: 0, 3: 1, 4: 3, 5: 4, 6: 5}


def test_decode_errors():
    with pytest.raises(BadLength):
        nim_decode("12", 7, 2)
    with pytest.raises(BadChar):
        nim_decode("1221x1", 7, 2)
    with pytest.raises(BadChar):
        nim_decode("322111", 7, 2)
    with pytest.raises(IllegalMove):
        nim_decode("222111", 7, 2)
    # The encoder refuses the same faults: a missing heap, and a move past k.
    with pytest.raises(BadLength):
        nim_encode(Strategy({1: 0}), 4, 2)
    with pytest.raises(IllegalMove):
        nim_encode(Strategy({1: 0, 2: 1, 3: 0}), 4, 2)


def test_codec_round_trip_random():
    rng = np.random.default_rng(29)
    n, k = 9, 3
    for _ in range(1000):
        chars = [str(rng.integers(1, min(i, k) + 1)) for i in range(1, n)]
        payload = "".join(chars)
        assert nim_encode(nim_decode(payload, n, k), n, k) == payload


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=4))
def test_decoded_strategies_are_valid(n, k):
    g = subtraction_nim(n, k)
    payload = "".join(str(min(i, 1)) for i in range(1, n))
    validate_strategy(g, nim_decode(payload, n, k))
