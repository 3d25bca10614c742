import itertools
from dataclasses import replace

import numpy as np
import pytest

from coevo import switchability
from coevo.games import (
    FIXTURE_NAMES,
    chomp,
    fixture,
    silver_dollar,
    subtraction_nim,
    turning_turtles,
)
from coevo.grundy import grundy_values
from coevo.switchability import (
    root_distances,
    switchability_profile,
    switchability_reports,
)
from helpers import (
    FIXTURE_MARKED,
    ForeignEdge,
    depth,
    is_switcher,
    is_switcher_by_enumeration,
    random_game,
    successors,
    upper_bound_switchability_per_vertex,
)

FIG2_SWITCHER = frozenset((b, 6) for b in range(1, 6))


def test_depth_empty(fig1):
    assert depth(fig1, frozenset()) == 0


def test_depth_fig2_layer(fig2):
    assert depth(fig2, FIG2_SWITCHER) == 1


def test_depth_shared_head(fig3_top):
    # Both edges end at the marked vertex, so no path can use them both.
    assert depth(fig3_top, frozenset({(3, 5), (4, 5)})) == 1


def test_depth_stacked(fig1):
    assert depth(fig1, frozenset({(0, 1), (1, 2), (2, 3)})) == 3


def test_foreign_edge(fig1):
    with pytest.raises(ForeignEdge):
        depth(fig1, {(1, 4)})
    with pytest.raises(ForeignEdge):
        is_switcher(fig1, {(4, 0)}, 0)


def test_is_switcher_fig2(fig2):
    assert is_switcher(fig2, FIG2_SWITCHER, 6)
    assert not is_switcher(fig2, FIG2_SWITCHER, 7)


def test_empty_set_switches_only_unavoidable(fig1):
    assert is_switcher(fig1, frozenset(), 0)  # the root is on every path
    assert is_switcher(fig1, frozenset(), 4)  # so is the only sink
    for v in (1, 2, 3):
        assert not is_switcher(fig1, frozenset(), v)


def test_fig3_bottom_blue_set(fig3_bottom):
    blue = frozenset({(0, 3), (5, 9), (6, 9)})
    assert depth(fig3_bottom, blue) == 2
    assert is_switcher(fig3_bottom, blue, 9)
    # Shift the target one column left and the same set fails.
    assert not is_switcher(fig3_bottom, blue, 6)


def test_exact_on_marked_vertices(fig3_top, fig3_bottom):
    top_vertex, bottom_vertex = FIXTURE_MARKED["fig3_top"], FIXTURE_MARKED["fig3_bottom"]
    top = switchability_reports(fig3_top, [top_vertex])[0][top_vertex]
    assert top.exact == 1
    bottom = switchability_reports(fig3_bottom, [bottom_vertex], edge_limit=32)[0][bottom_vertex]
    assert bottom.exact == 2
    for report, g in ((top, fig3_top), (bottom, fig3_bottom)):
        assert report.method == "exact_search"
        assert is_switcher(g, report.witness, report.vertex)
        assert depth(g, report.witness) == report.exact


def test_root_switchability_zero(fig1, fig2):
    for g in (fig1, fig2):
        reports, used = switchability_reports(g, [g.root])
        assert used == "exact_search"
        assert reports[g.root].exact == 0


def test_fig1_profile(fig1):
    profile = switchability_profile(fig1)
    assert {v: r.exact for v, r in profile.reports.items()} == {
        0: 0,
        1: 1,
        2: 1,
        3: 2,
        4: 0,
    }
    assert profile.s_bar == 2
    assert profile.s_hat == 1  # critical positions are the root and b
    assert profile.mode_used == "exact_search"


def test_fig4_chain_growth(fig4):
    profile = switchability_profile(fig4)
    assert profile.mode_used == "exact_search"
    values = {v: r.exact for v, r in profile.reports.items()}
    for i in range(8):
        assert values[i] == i
    assert values[8] == 0  # on every path to the unique sink
    assert values[9] == 0


def test_fig2_marked(fig2):
    marked = FIXTURE_MARKED["fig2"]
    reports, used = switchability_reports(fig2, [marked])
    assert used == "exact_search"
    assert reports[marked].exact == 1


def test_witnesses_valid_across_random_graphs():
    rng = np.random.default_rng(31)
    for _ in range(25):
        g = random_game(rng, n_max=7)
        if g.edge_count > 20:
            continue
        reports, used = switchability_reports(g, range(g.n))
        assert used == "exact_search"
        for v, report in reports.items():
            assert report.exact is not None
            assert report.exact <= report.upper_bound
            assert is_switcher(g, report.witness, v)
            assert depth(g, report.witness) == report.exact


def test_upper_bound():
    g = subtraction_nim(12, 3)
    dist = root_distances(g)
    assert dist[g.root] == 0
    assert dist == [-(-(11 - v) // 3) for v in range(12)]


def test_one_bfs_bounds_match_per_vertex_reference():
    # One root BFS serves every path bound: each of its distances and the
    # reports at edge limit 0 must equal a BFS that runs from the root to that
    # vertex alone.
    rng = np.random.default_rng(59)
    corpus = [fixture(name) for name in FIXTURE_NAMES]
    corpus += [subtraction_nim(8, 2), subtraction_nim(12, 3), subtraction_nim(14, 2)]
    corpus += [subtraction_nim(40, 2), chomp(3), chomp(4), silver_dollar(7, 3), turning_turtles(5)]
    corpus += [random_game(rng) for _ in range(50)]
    for g in corpus:
        expected = [upper_bound_switchability_per_vertex(g, v) for v in range(g.n)]
        assert root_distances(g) == expected
        reports, used = switchability_reports(g, range(g.n), edge_limit=0)
        assert used == "path_bound"
        assert [reports[v].upper_bound for v in range(g.n)] == expected


@pytest.mark.parametrize("vertex", [-1, 5, 99])
def test_vertex_outside_the_graph_is_rejected(fig1, vertex):
    for edge_limit in (0, 20):
        with pytest.raises(ValueError, match=f"vertex {vertex} outside 0..4"):
            switchability_reports(fig1, [0, vertex], edge_limit)


@pytest.mark.parametrize("edge_limit", [-1, True, None, "exact"])
def test_edge_limit_must_be_a_nonnegative_int(fig1, edge_limit):
    # "exact" is what a call written for the removed mode argument passes.
    with pytest.raises(ValueError, match="edge_limit must be an int at least 0"):
        switchability_reports(fig1, [0], edge_limit)
    with pytest.raises(ValueError, match="edge_limit must be an int at least 0"):
        switchability_profile(fig1, edge_limit)


def test_upper_bound_chomp_row_by_row():
    g = chomp(3)
    assert max(root_distances(g)) <= 3


def test_root_path_edges_always_switch():
    # The edge set of any shortest root-to-v path forces a visit to v.
    rng = np.random.default_rng(43)
    for _ in range(30):
        g = random_game(rng)
        v = int(rng.integers(g.n))
        parents = {g.root: None}
        queue = [g.root]
        while queue:
            u = queue.pop(0)
            if u == v:
                break
            for w in successors(g, u):
                if w not in parents:
                    parents[w] = u
                    queue.append(w)
        path_edges = set()
        node = v
        while parents[node] is not None:
            path_edges.add((parents[node], node))
            node = parents[node]
        assert is_switcher(g, frozenset(path_edges), v)
        assert depth(g, path_edges) == len(path_edges) == root_distances(g)[v]


def test_nim_construction_is_depth1_switcher():
    g = subtraction_nim(12, 3)
    for v in range(12):
        literal = frozenset((v + i, v) for i in range(1, 3) if v + i <= 11)
        assert depth(g, literal) <= 1
        assert is_switcher(g, literal, v)
        # The widened window (one more in-edge) also works at depth 1.
        widened = frozenset((v + i, v) for i in range(1, 4) if v + i <= 11)
        assert depth(g, widened) <= 1
        assert is_switcher(g, widened, v)


def test_nim_profile_all_at_most_one():
    g = subtraction_nim(8, 2)
    profile = switchability_profile(g)
    assert profile.mode_used == "exact_search"
    assert all(r.exact <= 1 for r in profile.reports.values())
    assert profile.s_bar <= 1


@pytest.mark.parametrize("n", [8, 40], ids=["smaller", "larger"])
def test_profile_refuses_another_graphs_grundy_data(n):
    g = subtraction_nim(11, 2)
    assert switchability_profile(g, gd=grundy_values(g)) == switchability_profile(g)
    with pytest.raises(ValueError, match=f"gd holds {n} Grundy values for a graph of 11 vertices"):
        switchability_profile(g, gd=grundy_values(subtraction_nim(n, 2)))


@pytest.mark.parametrize("k", [1, 3, 4])
def test_profile_refuses_same_sized_grundy_data_of_another_graph(k):
    with pytest.raises(ValueError, match="Grundy-0 set breaks the win/lose recurrence"):
        switchability_profile(subtraction_nim(11, 2), gd=grundy_values(subtraction_nim(11, k)))


def test_profile_reads_critical_positions_from_the_checked_flags():
    # The critical positions come from gd's checked Grundy-0 flags, never from
    # its critical field, so both branches agree whatever that field holds.
    g = chomp(3)
    gd = grundy_values(g)
    assert switchability_profile(g).s_hat == 2
    assert switchability_profile(g, gd=replace(gd, critical=frozenset())).s_hat == 2
    assert switchability_profile(g, gd=replace(gd, critical=frozenset(range(g.n)))).s_hat == 2


def test_forced_reachability_matches_enumeration():
    rng = np.random.default_rng(37)
    for _ in range(120):
        g = random_game(rng, n_min=3, n_max=9)
        edge_list = list(g.edges())
        for _ in range(3):
            take = rng.random(len(edge_list)) < 0.3
            edges = frozenset(e for e, keep in zip(edge_list, take) if keep)
            v = int(rng.integers(g.n))
            assert is_switcher(g, edges, v) == is_switcher_by_enumeration(g, edges, v)


def test_every_candidate_has_its_reference_depth():
    # The search reads depth order off the candidate matrix: every column's
    # depth is the reference depth of the edges it chooses, in ascending order.
    rng = np.random.default_rng(71)
    fixtures = [fixture(name) for name in FIXTURE_NAMES]
    randoms = [g for g in (random_game(rng, n_max=8) for _ in range(60)) if g.edge_count <= 14]
    games = [g for g in fixtures if g.edge_count <= 20] + randoms
    assert len(randoms) >= 30
    checked = 0
    for g in games:
        picks, rows, slots, depths = switchability._candidates_by_depth(g, edge_limit=20)
        assert (np.diff(depths) >= 0).all()
        chosen = picks[rows] == slots[:, None]  # edges x candidates
        for c in range(picks.shape[1]):
            assert depths[c] == depth(g, itertools.compress(g.edges(), chosen[:, c]))
        checked += picks.shape[1]
    assert checked > 1000


def test_exact_search_is_minimal_over_every_edge_subset():
    # The search tries functional assignments only; on tiny games every edge
    # subset is checked by path enumeration, so no shallower switcher exists and
    # the witness is one of the shallowest.
    rng = np.random.default_rng(61)
    games = [g for g in (random_game(rng, n_max=7) for _ in range(40)) if g.edge_count <= 10]
    assert len(games) >= 10
    for g in games:
        subsets = [
            frozenset(itertools.compress(g.edges(), keep))
            for keep in itertools.product((False, True), repeat=g.edge_count)
        ]
        depths = [depth(g, edges) for edges in subsets]
        reports, used = switchability_reports(g, range(g.n))
        assert used == "exact_search"
        for v, report in reports.items():
            switchers = [
                (d, edges) for d, edges in zip(depths, subsets) if is_switcher_by_enumeration(g, edges, v)
            ]
            least = min(d for d, _ in switchers)
            assert report.exact == least
            assert report.witness in {edges for d, edges in switchers if d == least}


def test_a_vertex_of_switchability_s_costs_at_most_s_plus_one_passes(monkeypatch, fig4):
    # One reachability pass per depth layer, shallowest first, and none after
    # the layer that switches.
    widths = []
    misses = switchability._misses

    def spy(g, v, passable):
        widths.append(passable.shape[1])
        return misses(g, v, passable)

    monkeypatch.setattr(switchability, "_misses", spy)
    rng = np.random.default_rng(67)
    for g in [fig4, subtraction_nim(11, 2), silver_dollar(5, 2)] + [random_game(rng) for _ in range(10)]:
        if g.edge_count > 20:
            continue
        for v in range(g.n):
            widths.clear()
            reports, used = switchability_reports(g, [v])
            assert used == "exact_search"
            report = reports[v]
            assert 1 <= len(widths) <= report.exact + 1
            assert widths[0] == 1  # depth 0 holds only the empty set


def test_too_large(fig3_bottom):
    # 21 edges are over the default budget, so vertex 9 gets its path bound
    # (exact 2 needs a raised budget: test_exact_on_marked_vertices).
    reports, used = switchability_reports(fig3_bottom, [9])
    assert used == "path_bound"
    assert reports[9] == switchability.SwitchabilityReport(9, None, 3, None, "path_bound")


def test_hybrid_profile_falls_back():
    g = subtraction_nim(40, 2)
    profile = switchability_profile(g)
    assert profile.mode_used == "path_bound"
    assert all(r.exact is None for r in profile.reports.values())
    assert profile.s_bar == root_distances(g)[0]


def test_exact_le_bound_everywhere():
    rng = np.random.default_rng(41)
    for _ in range(20):
        g = random_game(rng, n_max=8)
        if g.edge_count > 20:
            continue
        reports, used = switchability_reports(g, range(g.n))
        assert used == "exact_search"
        dist = root_distances(g)
        assert all(reports[v].exact <= dist[v] for v in range(g.n))


def test_vertex_reports_match_profile_in_every_mode(fig1, fig2, fig3_top, fig3_bottom, fig4):
    # One resolver serves the whole-graph profile and single vertices, so
    # both methods and every budget and fallback must agree between them:
    # edge limit 0 gives bounds, the graph's own edge count searches as far
    # as the candidate limit allows. At edge limit 20 fig3_bottom (21 edges)
    # exceeds the edge budget; nim n=14, k=2 at 25 edges exceeds only the
    # candidate limit.
    rng = np.random.default_rng(47)
    corpus = [(g, 20) for g in (fig1, fig2, fig3_top, fig3_bottom, fig4)]
    corpus += [(subtraction_nim(14, 2), 25)]
    corpus += [(random_game(rng), 20) for _ in range(20)]
    methods = set()
    for g, budget in corpus:
        for edge_limit in (0, budget, g.edge_count):
            profile = switchability_profile(g, edge_limit)
            methods.add(profile.mode_used)
            for v in range(g.n):
                reports, used = switchability_reports(g, [v], edge_limit)
                assert used == profile.mode_used
                assert reports == {v: profile.reports[v]}
    assert methods == {"exact_search", "path_bound"}
