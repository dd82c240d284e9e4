import itertools
import re
import tracemalloc

import numpy as np
import pytest

from sparsetn.graph import Graph, build_tree, cycle_graph, grid_graph, random_regular
from sparsetn.oracles import classical_exact_expectations, statevector_rdm
from sparsetn.states import (
    TensorNetworkState,
    generalized_graph_state,
    graph_state,
    load_state,
    product_state,
    random_state,
    save_state,
    square_root_state,
    state_from_json,
    state_to_json,
    to_statevector,
)
from sparsetn.tensor import PAULI_X, PAULI_Z


def p2():
    return Graph(2, [(0, 1)])


def amplitude_product(g, m, normalize=True):
    """Oracle: raw amplitudes prod_edges m[s_a, s_b] over all configurations."""
    d = m.shape[0]
    amps = np.zeros(d**g.n, dtype=complex)
    for idx, config in enumerate(itertools.product(range(d), repeat=g.n)):
        val = 1.0 + 0.0j
        for a, b in g.edges:
            val *= m[config[a], config[b]]
        amps[idx] = val
    if normalize:
        amps = amps / np.linalg.norm(amps)
    return amps


def match_up_to_phase(u, v, atol=1e-10):
    k = int(np.argmax(np.abs(u)))
    assert abs(v[k]) > 0
    phase = u[k] / v[k]
    np.testing.assert_allclose(u, phase * v, atol=atol)


class TestGeneralizedGraphState:
    def test_single_edge_hadamard_matrix(self):
        m = np.array([[1.0, 1.0], [1.0, -1.0]])
        v = to_statevector(generalized_graph_state(p2(), m))
        match_up_to_phase(v, np.array([1, 1, 1, -1]) / 2.0)

    def test_triangle_identity_matrix_gives_ghz(self):
        v = to_statevector(generalized_graph_state(cycle_graph(3), np.eye(2)))
        expected = np.zeros(8)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        match_up_to_phase(v, expected)

    def test_path_amplitudes_match_product_formula(self):
        g = build_tree(3, 1)
        k = 0.25  # beta j / 2 at beta = 0.5
        m = np.array([[np.exp(k), np.exp(-k)], [np.exp(-k), np.exp(k)]])
        v = to_statevector(generalized_graph_state(g, m))
        match_up_to_phase(v, amplitude_product(g, m))

    def test_bond_dimension_equals_phys_dim(self):
        state = generalized_graph_state(cycle_graph(4), np.eye(3))
        assert state.phys_dim == 3
        assert all(chi == 3 for chi in state.bond_dims.values())
        assert repr(state) == "TensorNetworkState(n=4, d=3, chi=[3])"

    @pytest.mark.parametrize("d", [2, 3])
    def test_isolated_vertex_is_uniform(self, d):
        g = Graph(4, [(0, 1), (1, 2)])  # vertex 3 has no edge
        m = np.random.default_rng(d).standard_normal((d, d))
        m = m + m.T
        state = generalized_graph_state(g, m)
        assert state.site_tensors[3].shape == (d,)
        match_up_to_phase(to_statevector(state), amplitude_product(g, m))

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            generalized_graph_state(p2(), np.array([[1.0, 2.0], [0.0, 1.0]]))


def random_complex_symmetric(d, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return c + c.T


ORACLE_EDGE_MATRICES = {
    "cz": np.array([[1.0, 1.0], [1.0, -1.0]]),
    # nilpotent (m @ m = 0): equal to v v^T for v = (1, i), and no matrix square root
    "nilpotent": np.array([[1.0, 1.0j], [1.0j, -1.0]]),
    "random-complex": random_complex_symmetric(2, seed=7),
    "real-3x3": np.array([[0.5, -1.2, 0.7], [-1.2, 0.1, 2.0], [0.7, 2.0, -0.9]]),
    "ising": np.exp(0.4 * np.array([[1.0, -1.0], [-1.0, 1.0]])),
}
ORACLE_GRAPHS = {
    "regular-n10": lambda: random_regular(10, 3, seed=4),
    # degrees 3, 2, 2, 2, 2, 1 and the isolated vertex 6
    "mixed-degree": lambda: Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)]),
    "cycle-5": lambda: cycle_graph(5),
}


@pytest.mark.parametrize("graph", ORACLE_GRAPHS)
@pytest.mark.parametrize("matrix", ORACLE_EDGE_MATRICES)
def test_generalized_graph_state_matches_amplitude_product(matrix, graph):
    m, g = ORACLE_EDGE_MATRICES[matrix], ORACLE_GRAPHS[graph]()
    state = generalized_graph_state(g, m)
    match_up_to_phase(to_statevector(state), amplitude_product(g, m), atol=1e-12)
    if np.isrealobj(m):
        assert all(not np.any(t.imag) for t in state.site_tensors)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_edge_matrix_scale_changes_only_the_norm(scale):
    # at degree 4 the unscaled tensors would hold the fourth power of the scale, beyond the float range
    g = random_regular(10, 4, seed=1)
    m = ORACLE_EDGE_MATRICES["random-complex"]
    match_up_to_phase(to_statevector(generalized_graph_state(g, scale * m)), amplitude_product(g, m), atol=1e-12)


class TestSquareRootState:
    def test_beta_zero_is_uniform_superposition(self):
        g = random_regular(6, 3, seed=1)
        v = to_statevector(square_root_state(g, 0.0, 1.0))
        match_up_to_phase(v, np.full(2**6, 1 / 2**3))
        for a in range(g.n):
            rho = statevector_rdm(v, g.n, (a,))
            assert abs(np.trace(rho @ PAULI_X).real - 1.0) < 1e-10
            assert abs(np.trace(rho @ PAULI_Z).real) < 1e-10

    def test_single_edge_amplitudes(self):
        v = to_statevector(square_root_state(p2(), 1.0, 1.0))
        raw = np.array([np.exp(0.5), np.exp(-0.5), np.exp(-0.5), np.exp(0.5)])
        match_up_to_phase(v, raw / np.linalg.norm(raw))

    def test_amplitudes_match_product_formula_on_random_graph(self):
        g = random_regular(10, 3, seed=2)
        beta = 0.6
        k = 0.5 * beta
        m = np.array([[np.exp(k), np.exp(-k)], [np.exp(-k), np.exp(k)]])
        v = to_statevector(square_root_state(g, beta, 1.0))
        match_up_to_phase(v, amplitude_product(g, m))

    def test_z_expectations_match_gibbs_enumeration(self):
        g = random_regular(12, 3, seed=3)
        beta = 0.4
        v = to_statevector(square_root_state(g, beta, 1.0))
        exact = classical_exact_expectations(g, beta, 1.0)
        for a in range(g.n):
            rho = statevector_rdm(v, g.n, (a,))
            z = np.trace(rho @ PAULI_Z).real
            assert abs(z - exact.z[a]) < 1e-10

    def test_zz_products_match_gibbs_enumeration(self):
        g = random_regular(10, 3, seed=5)
        beta = 0.7
        v = to_statevector(square_root_state(g, beta, 1.0))
        # test-local Gibbs oracle for the two-point function
        n = g.n
        idx = np.arange(1 << n)
        spins = 1.0 - 2.0 * ((idx[:, None] >> (n - 1 - np.arange(n))) & 1)
        bond = sum(spins[:, a] * spins[:, b] for a, b in g.edges)
        w2 = np.exp(beta * bond - beta * bond.max())
        zz_op = np.kron(PAULI_Z, PAULI_Z)
        for a, b in g.edges:
            gibbs = float((spins[:, a] * spins[:, b] * w2).sum() / w2.sum())
            rho = statevector_rdm(v, n, (a, b))
            assert abs(np.trace(rho @ zz_op).real - gibbs) < 1e-10


class TestGraphState:
    @staticmethod
    def cz_oracle(g):
        n = g.n
        v = np.full(2**n, 2 ** (-n / 2), dtype=complex)
        for idx in range(2**n):
            bits = [(idx >> (n - 1 - a)) & 1 for a in range(n)]
            phase = sum(bits[a] * bits[b] for a, b in g.edges)
            v[idx] *= (-1) ** phase
        return v

    def test_single_edge(self):
        match_up_to_phase(to_statevector(graph_state(p2())), self.cz_oracle(p2()))

    def test_triangle_matches_gate_application(self):
        g = cycle_graph(3)
        match_up_to_phase(to_statevector(graph_state(g)), self.cz_oracle(g), atol=1e-10)

    def test_stabilizers(self):
        for g in (build_tree(9, 2), random_regular(10, 3, seed=2)):
            v = to_statevector(graph_state(g))
            for a in range(g.n):
                sites = (a,) + tuple(g.neighbors(a))
                rho = statevector_rdm(v, g.n, sites)
                op = PAULI_X
                for _ in g.neighbors(a):
                    op = np.kron(op, PAULI_Z)
                assert abs(np.trace(rho @ op).real - 1.0) < 1e-9


class TestProductState:
    def test_all_zero(self):
        g = build_tree(4, 2)
        v = to_statevector(product_state(g, [1.0, 0.0]))
        expected = np.zeros(16)
        expected[0] = 1.0
        np.testing.assert_allclose(np.abs(v), expected, atol=1e-12)

    def test_z_expectation_at_angle(self):
        theta = 0.3
        g = cycle_graph(4)
        v = to_statevector(product_state(g, [np.cos(theta), np.sin(theta)]))
        want = np.cos(theta) ** 2 - np.sin(theta) ** 2
        for a in range(g.n):
            z = np.trace(statevector_rdm(v, g.n, (a,)) @ PAULI_Z).real
            assert abs(z - want) < 1e-12

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            product_state(p2(), [0.0, 0.0])


class TestRandomState:
    def test_deterministic(self):
        g = random_regular(8, 3, seed=0)
        s1 = random_state(g, 2, seed=42)
        s2 = random_state(g, 2, seed=42)
        for t1, t2 in zip(s1.site_tensors, s2.site_tensors):
            np.testing.assert_array_equal(t1, t2)

    def test_chi_one_is_product(self):
        g = cycle_graph(5)
        s = random_state(g, 1, seed=7)
        assert all(chi == 1 for chi in s.bond_dims.values())

    def test_statevector_norm_finite_nonzero(self):
        g = random_regular(8, 3, seed=4)
        s = random_state(g, 2, seed=11)
        v = to_statevector(s)
        assert np.isfinite(np.linalg.norm(v))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


class TestStatevector:
    def test_size_guard(self):
        g = build_tree(17, 2)
        with pytest.raises(ValueError):
            to_statevector(product_state(g, [1.0, 0.0]))

    def test_vertex_zero_most_significant(self):
        g = p2()
        s = product_state(g, [1.0, 0.0]).with_site_tensors(
            [np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]])]
        )
        v = to_statevector(s)
        assert abs(abs(v[2]) - 1.0) < 1e-12  # |10> has index 2


class TestStateSerialization:
    def test_round_trip(self, tmp_path):
        g = random_regular(6, 3, seed=9)
        s = random_state(g, 2, seed=1)
        path = tmp_path / "state.json"
        save_state(s, path)
        back = load_state(path)
        assert back.graph == s.graph
        assert back.phys_dim == s.phys_dim
        for t1, t2 in zip(back.site_tensors, s.site_tensors):
            np.testing.assert_array_equal(t1, t2)

    def test_records_bond_dims(self):
        s = graph_state(cycle_graph(3))
        data = state_to_json(s)
        assert set(data["bond_dims"].values()) == {2}
        back = state_from_json(data)
        assert back.bond_dims == s.bond_dims

    def test_shape_validation(self):
        g = p2()
        with pytest.raises(ValueError):
            product_state(g, [1.0, 0.0]).with_site_tensors(
                [np.ones((2, 1, 1)), np.ones((2, 1))]
            )


def einsum_statevector(state):
    """Oracle: the whole network as one integer-label einsum, vertex 0 most significant."""
    g = state.graph
    bond = {e: g.n + k for k, e in enumerate(g.edges)}
    operands = []
    for v in range(g.n):
        operands += [state.site_tensors[v], [v] + [bond[(min(v, u), max(v, u))] for u in g.neighbors(v)]]
    vec = np.einsum(*operands, list(range(g.n)), optimize="greedy").reshape(-1)
    return vec / np.linalg.norm(vec)


def mixed_chi_state(g, seed, max_chi=4, phys_dim=2):
    """Complex Gaussian site tensors with an independent bond dimension on every edge."""
    rng = np.random.default_rng(seed)
    chis = {e: int(rng.integers(1, max_chi + 1)) for e in g.edges}
    tensors = []
    for v in range(g.n):
        shape = (phys_dim,) + tuple(chis[(min(v, u), max(v, u))] for u in g.neighbors(v))
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return TensorNetworkState(g, tensors, phys_dim)


def traced_peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


CONTRACTION_CASES = {
    "regular-n6-chi4": lambda: random_state(random_regular(6, 3, seed=0), 4, seed=1),
    "regular-n8-chi3": lambda: random_state(random_regular(8, 3, seed=2), 3, seed=2),
    "regular-n10-chi4": lambda: random_state(random_regular(10, 3, seed=1), 4, seed=0),
    "regular-n10-r4-chi2": lambda: random_state(random_regular(10, 4, seed=3), 2, seed=3),
    "regular-n12-chi2": lambda: random_state(random_regular(12, 3, seed=0), 2, seed=4),
    "grid-3x4-chi2": lambda: random_state(grid_graph(3, 4), 2, seed=5),
    "grid-3x3-chi3": lambda: random_state(grid_graph(3, 3), 3, seed=6),
    "tree-n10-chi3": lambda: random_state(build_tree(10, 2), 3, seed=7),
    # vertices 2 and 6 isolated, and a triangle whose labels are not adjacent
    "isolated-vertices": lambda: mixed_chi_state(Graph(8, [(0, 5), (0, 7), (5, 7), (1, 3), (3, 4)]), seed=8),
    "mixed-chi-n10": lambda: mixed_chi_state(random_regular(10, 3, seed=4), seed=9),
    "phys-dim-3": lambda: random_state(random_regular(6, 3, seed=5), 2, seed=10, phys_dim=3),
    "mixed-chi-phys-dim-3": lambda: mixed_chi_state(cycle_graph(6), seed=11, max_chi=3, phys_dim=3),
}


class TestFrontierContraction:
    @pytest.mark.parametrize("name", sorted(CONTRACTION_CASES))
    def test_matches_einsum_contraction(self, name):
        state = CONTRACTION_CASES[name]()
        v = to_statevector(state)
        assert v.shape == (state.phys_dim**state.graph.n,)
        np.testing.assert_allclose(v, einsum_statevector(state), rtol=0, atol=1e-12)

    def test_vertex_labels_do_not_set_memory_n10(self):
        # vertex order made this contraction's peak about 1 GB
        state = random_state(random_regular(10, 3, seed=1), 4, seed=0)
        assert traced_peak_mb(to_statevector, state) < 64

    def test_chi4_n14_fits(self):
        state = random_state(random_regular(14, 3, seed=0), 4, seed=0)
        assert traced_peak_mb(to_statevector, state) < 256


EDGE = Graph(2, [(0, 1)])


@pytest.mark.parametrize("build,error", [
    (lambda: TensorNetworkState(EDGE, [np.ones((2, 1))], 2), "one site tensor per vertex required"),
    (lambda: TensorNetworkState(Graph(1, []), [np.ones(3)], 2), "site 0: physical extent 3 != 2"),
    (lambda: TensorNetworkState(EDGE, [np.ones((2, 2)), np.ones((2, 3))], 2),
     "edge (0, 1): bond extents differ (2 vs 3)"),
    (lambda: generalized_graph_state(EDGE, np.ones((2, 3))), "edge matrix must be square"),
    (lambda: product_state(EDGE, np.ones((2, 2))), "local state must be a vector"),
    (lambda: random_state(EDGE, 0, seed=0), "chi must be >= 1"),
    (lambda: to_statevector(TensorNetworkState(EDGE, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 2)),
     "state has zero norm"),
    (lambda: generalized_graph_state(EDGE, [[np.inf, 1.0], [1.0, 1.0]]), "edge matrix must be finite"),
    (lambda: generalized_graph_state(EDGE, [[1.0, np.nan], [1.0, 1.0]]), "edge matrix must be finite"),
], ids=["tensor-count", "phys-extent", "bond-extents", "square", "vector", "chi", "zero-norm", "edge-inf",
        "edge-nan"])
def test_input_checks_name_the_problem(build, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        build()
