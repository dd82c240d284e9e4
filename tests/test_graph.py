import hashlib
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from sparsetn.graph import (
    Graph,
    build_tree,
    compute_diagnostics,
    count_cycles,
    cycle_graph,
    expansion_bruteforce,
    graph_from_json,
    graph_to_json,
    grid_graph,
    is_tree,
    load_graph,
    random_regular,
    save_graph,
)


def k4():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def enumerate_cycles_bruteforce(g, max_len):
    """Independent oracle: check every circular vertex arrangement."""
    counts = {length: 0 for length in range(3, max_len + 1)}
    for length in range(3, max_len + 1):
        seen = set()
        for combo in itertools.combinations(range(g.n), length):
            for perm in itertools.permutations(combo[1:]):
                cyc = (combo[0],) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % length]) for i in range(length)):
                    canon = min(cyc, (combo[0],) + tuple(reversed(perm)))
                    seen.add(canon)
        counts[length] = len(seen)
    return counts


def expansion_oracle(g):
    best = None
    for size in range(1, g.n // 2 + 1):
        for subset in itertools.combinations(range(g.n), size):
            inside = set(subset)
            boundary = sum(1 for a, b in g.edges if (a in inside) != (b in inside))
            ratio = Fraction(boundary, size)
            if best is None or ratio < best:
                best = ratio
    return best


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_adjacency_is_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        for a in range(4):
            assert list(g.neighbors(a)) == sorted(g.neighbors(a))
            for b in g.neighbors(a):
                assert a in g.neighbors(b)

    def test_directed_edge_enumeration_reverse_lookup(self):
        g = k4()
        for idx, (a, b) in enumerate(g.directed_edges):
            assert g.directed_edges[g.reverse_edge_index(idx)] == (b, a)
            assert g.directed_edge_index(a, b) == idx


PINNED_GRAPHS = {
    (10, 3, 1): "61e5e86c4bdd0058b904f6a258ac1cc94f143ade26a4580c432528839f1ac550",
    (16, 3, 0): "67ab3fafafbbf1f95130483373176c3d0917bdb38a5e372e2b87d1f95cb56122",
    (16, 3, 1): "cbbe2f35cc9c6e0a6e64f729edb3fe99af671ec91f4cfa35877655297c0dd73b",
    (16, 3, 2): "f98efc5bcdd57f8d1448ddb01ec34093d25eb755c62257f4ccfd3be0728dee43",
    (16, 3, 3): "b5def4924932cc9bedb8a78e5587d1972b1e6d139002f9b89d8b845909784a1a",
    (16, 3, 4): "5c29ed915af23d48c32cd092b9789628828afb15fc965e5a599d264ad859634a",
    (16, 3, 5): "045b15a493276fe3ee43b2928dbc2e9ad1fb702eb81f96e9d5bf948b5b3d3258",
    (16, 3, 6): "bc7bc4215865f0e5660c1fb663420737ff13499435d45dcc2197af6ba1c43eb3",
    (40, 3, 0): "8e8b25e776802de288473acc6f5c450abc9bb4c8a65c06488eb82474c8cbf3a3",
    (40, 3, 1): "47d75cb602939a2f53e559125b92857a60e007c2674bbbf14fbe38e9977c7f37",
    (40, 3, 2): "1915de7765b311e7bd905f2af20e2bbd6858c65f4e3d9903baac93e6c436bf28",
    (40, 3, 3): "4d2d37c5986d30a0cb2b9703261a0682bb8def00b1758a4ff6e68e4f6fcc8cb3",
    (40, 3, 4): "618b7183c1acfe6fdab90e203bc2ea79cfb2ad442ebb5517b342e5045b28eadd",
    (40, 3, 5): "c0f10a06c1214c7cc5e297997ec74cf1e38bab10bbe2c653ce5c82343e2ca5de",
    (40, 3, 6): "70cd4f3a6e6a881d963be7a5824b3e5efdd42a4b4542f57be39e210784452b73",
    (1000, 3, 0): "1f577d433336c738abf103f6954eceff511760c7df8441cdc7478abece48ec40",
    (1000, 5, 0): "bd6b0678631eeea966a391f6fe084eda8fa25794c08b7bfe2b26fb1ba836b1c8",
}


class TestRandomRegular:
    def test_counts_and_degrees(self):
        g = random_regular(10, 3, seed=0)
        assert len(g.edges) == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_k4_is_unique_cubic_graph_on_4(self):
        g = random_regular(4, 3, seed=123)
        assert g == k4()

    def test_deterministic(self):
        assert random_regular(40, 3, seed=5) == random_regular(40, 3, seed=5)

    def test_infeasible_inputs(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, seed=0)
        with pytest.raises(ValueError):
            random_regular(4, 5, seed=0)

    def test_degree_histogram_is_single_point(self):
        for seed in range(5):
            g = random_regular(12, 3, seed=seed)
            hist = compute_diagnostics(g, max_cycle_len=3).degree_histogram
            assert hist == {3: 12}

    def test_triangle_count_matches_poisson_mean(self):
        # mean number of 3-cycles in the large-n 3-regular ensemble is (r-1)^3/6
        counts = []
        for seed in range(200):
            g = random_regular(200, 3, seed=seed)
            counts.append(count_cycles(g, 3)[3])
        counts = np.array(counts, dtype=float)
        mean = counts.mean()
        se = counts.std(ddof=1) / np.sqrt(len(counts))
        assert abs(mean - 4.0 / 3.0) <= 3 * se

    def test_pinned_graphs_are_unchanged(self):
        # SHA-256 of graph_to_json for the benchmark's input graphs (n = 10, 16, 40) and two large ones
        for (n, r, seed), digest in PINNED_GRAPHS.items():
            data = json.dumps(graph_to_json(random_regular(n, r, seed)))
            assert hashlib.sha256(data.encode()).hexdigest() == digest, (n, r, seed)


class TestTrees:
    def test_complete_binary_tree(self):
        g = build_tree(7, 2)
        assert len(g.edges) == 6
        assert is_tree(g)
        assert sorted(g.neighbors(0)) == [1, 2]

    def test_single_vertex(self):
        g = build_tree(1, 5)
        assert g.n == 1 and len(g.edges) == 0

    def test_branching_one_is_path(self):
        g = build_tree(5, 1)
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_is_tree_examples(self):
        assert is_tree(build_tree(5, 1))
        assert not is_tree(cycle_graph(4))
        assert not is_tree(k4())


class TestCycles:
    def test_k4_counts(self):
        expected = enumerate_cycles_bruteforce(k4(), 4)
        assert expected == {3: 4, 4: 3}
        assert count_cycles(k4(), 4) == expected

    def test_tree_has_no_cycles(self):
        assert all(v == 0 for v in count_cycles(build_tree(9, 2), 8).values())

    def test_single_cycle(self):
        counts = count_cycles(cycle_graph(8), 8)
        assert counts[8] == 1
        assert all(counts[k] == 0 for k in range(3, 8))

    def test_matches_bruteforce_on_random_graphs(self):
        for seed in (1, 2, 3):
            g = random_regular(8, 3, seed=seed)
            assert count_cycles(g, 6) == enumerate_cycles_bruteforce(g, 6)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            count_cycles(k4(), 13)


class TestExpansion:
    def test_cycle8(self):
        assert expansion_bruteforce(cycle_graph(8)) == Fraction(1, 2)

    def test_k4(self):
        assert expansion_bruteforce(k4()) == Fraction(2, 1)

    def test_star(self):
        # minimum over |S| <= n/2: a single leaf (or two leaves) gives ratio 1
        star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        oracle = expansion_oracle(star)
        assert oracle == Fraction(1, 1)
        assert expansion_bruteforce(star) == oracle

    def test_matches_subset_oracle(self):
        for seed in (0, 4):
            g = random_regular(10, 3, seed=seed)
            assert expansion_bruteforce(g) == expansion_oracle(g)
        rng = np.random.default_rng(11)
        trees = [Graph(n, [(int(rng.integers(v)), v) for v in range(1, n)]) for n in (2, 5, 9, 12)]
        for g in [Graph(2, []), Graph(7, [])] + trees:
            assert expansion_bruteforce(g) == expansion_oracle(g)

    def test_positive_for_connected(self):
        for g in (cycle_graph(6), build_tree(9, 2), random_regular(12, 3, seed=7)):
            assert expansion_bruteforce(g) > 0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            expansion_bruteforce(random_regular(22, 3, seed=0))


class TestDiagnostics:
    def test_diameter_of_path(self):
        assert compute_diagnostics(build_tree(5, 1)).diameter == 4

    def test_disconnected_marker(self):
        g = Graph(4, [(0, 1), (2, 3)])
        diag = compute_diagnostics(g)
        assert not diag.connected
        assert diag.diameter is None

    def test_expansion_only_when_requested(self):
        g = cycle_graph(6)
        assert compute_diagnostics(g).expansion is None
        assert compute_diagnostics(g, include_expansion=True).expansion == Fraction(2, 3)

    def test_grid_graph(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert len(g.edges) == 3 * 3 + 2 * 4
        assert compute_diagnostics(g).diameter == 5


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        g = random_regular(14, 3, seed=9)
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_json_shape(self):
        g = Graph(3, [(2, 1), (0, 2)])
        data = graph_to_json(g)
        assert data == {"n": 3, "edges": [[0, 2], [1, 2]]}
        assert graph_from_json(json.loads(json.dumps(data))) == g

    @pytest.mark.parametrize("data,bad", [
        ({"n": 4.7, "edges": [[0.9, 1], [1, 2.2], [2, 3]]}, "4.7"),
        ({"n": 4, "edges": [[0, 1], [1, 2.0]]}, "2.0"),
        ({"n": True, "edges": []}, "True"),
        ({"n": 3, "edges": [[0, False]]}, "False"),
    ])
    def test_rejects_non_integer_values(self, data, bad):
        with pytest.raises(ValueError, match=rf"^graph JSON value {bad} is not an integer$"):
            graph_from_json(json.loads(json.dumps(data)))

    @pytest.mark.parametrize("data,error", [
        ({"edges": [[0, 1]]}, 'graph JSON needs an object with "n" and an "edges" list'),
        ({"n": 4}, 'graph JSON needs an object with "n" and an "edges" list'),
        ({"n": 4, "edges": 5}, 'graph JSON needs an object with "n" and an "edges" list'),
        ([4, [[0, 1]]], 'graph JSON needs an object with "n" and an "edges" list'),
        ({"n": 4, "edges": [5]}, "graph JSON edge 5 is not a 2-element list"),
        ({"n": 4, "edges": [[0, 1, 2]]}, "graph JSON edge [0, 1, 2] is not a 2-element list"),
        ({"n": 4, "edges": [{"a": 0}]}, "graph JSON edge {'a': 0} is not a 2-element list"),
    ])
    def test_rejects_malformed_structure(self, data, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            graph_from_json(json.loads(json.dumps(data)))


@pytest.mark.parametrize("build,error", [
    (lambda: Graph(0, []), "graph needs at least one vertex"),
    (lambda: Graph(3, [(0, 3)]), "edge (0, 3) out of range for n=3"),
    (lambda: random_regular(0, 3, seed=0), "n and r must be positive"),
    (lambda: random_regular(4, 0, seed=0), "n and r must be positive"),
    (lambda: build_tree(0, 2), "n must be >= 1"),
    (lambda: build_tree(3, 0), "branching must be >= 1"),
    (lambda: cycle_graph(2), "cycle needs n >= 3"),
    (lambda: grid_graph(0, 3), "rows and cols must be >= 1"),
    (lambda: expansion_bruteforce(Graph(1, [])), "expansion needs at least two vertices"),
], ids=["no-vertex", "edge-range", "regular-n", "regular-r", "tree-n", "tree-branching", "cycle", "grid",
        "expansion"])
def test_input_checks_name_the_problem(build, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        build()


def test_cycle_counts_below_length_three_are_empty():
    assert count_cycles(cycle_graph(3), 2) == {}
