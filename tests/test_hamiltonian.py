import re

import numpy as np
import pytest

from sparsetn.graph import Graph, build_tree, cycle_graph, random_regular
from sparsetn.hamiltonian import (
    Hamiltonian,
    build_model,
    mixed_field_ising,
    sqrt_parent_hamiltonian,
    transverse_field_ising,
)
from reference_kernels import hamiltonian_matrix, term_list_matrix
from sparsetn.oracles import exact_diagonalize
from sparsetn.states import square_root_state, to_statevector
from sparsetn.tensor import PAULI_X, PAULI_Z


def p2():
    return Graph(2, [(0, 1)])


class TestMixedFieldIsing:
    def test_benchmark_parameter_terms(self):
        g = cycle_graph(3)
        h = mixed_field_ising(g, -1.0, -2.0, -0.5)
        np.testing.assert_allclose(h.edge_terms[(0, 1)], -np.kron(PAULI_Z, PAULI_Z))
        np.testing.assert_allclose(h.vertex_terms[0], -2.0 * PAULI_X - 0.5 * PAULI_Z)

    def test_zero_model_is_zero_matrix(self):
        g = p2()
        h = mixed_field_ising(g, 0.0, 0.0, 0.0)
        assert np.count_nonzero(hamiltonian_matrix(h).toarray()) == 0

    def test_classical_limit_ground_energy(self):
        g = random_regular(8, 3, seed=1)
        h = mixed_field_ising(g, -1.0, 0.0, 0.0)
        ed = exact_diagonalize(h)
        assert ed.e0 == pytest.approx(-len(g.edges), abs=1e-10)

    def test_energy_of_any_state_is_real(self):
        g = cycle_graph(4)
        h = mixed_field_ising(g, -1.0, -2.0, -0.5)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        v /= np.linalg.norm(v)
        val = np.vdot(v, hamiltonian_matrix(h) @ v)
        assert abs(val.imag) < 1e-10


class TestTransverseFieldIsing:
    def test_classical_limit(self):
        g = random_regular(8, 3, seed=2)
        h = transverse_field_ising(g, 0.0)
        ed = exact_diagonalize(h)
        assert ed.e0 == pytest.approx(-len(g.edges), abs=1e-10)
        assert ed.e1 == pytest.approx(-len(g.edges), abs=1e-10)

    def test_single_edge_ground_energy(self):
        ed = exact_diagonalize(transverse_field_ising(p2(), 1.0))
        assert ed.e0 == pytest.approx(-np.sqrt(5.0), abs=1e-10)

    def test_large_field_bounds(self):
        g = random_regular(6, 3, seed=3)
        hx = 50.0
        ed = exact_diagonalize(transverse_field_ising(g, hx))
        assert -g.n * hx - len(g.edges) <= ed.e0 <= -g.n * hx

    def test_z2_symmetry(self):
        g = random_regular(8, 3, seed=4)
        h = transverse_field_ising(g, 1.3)
        mat = hamiltonian_matrix(h).toarray()
        flip = term_list_matrix([(tuple(range(g.n)), self._x_string(g.n))], g.n).toarray()
        np.testing.assert_allclose(mat @ flip, flip @ mat, atol=1e-10)

    @staticmethod
    def _x_string(n):
        op = PAULI_X
        for _ in range(n - 1):
            op = np.kron(op, PAULI_X)
        return op


class TestSqrtParentHamiltonian:
    def test_beta_zero_annihilates_plus_state(self):
        g = random_regular(8, 3, seed=5)
        terms = sqrt_parent_hamiltonian(g, 0.0, 1.0)
        for sites, mat in terms:
            np.testing.assert_allclose(
                mat, -np.kron(PAULI_X, np.eye(2 ** (len(sites) - 1))) + np.eye(2 ** len(sites)),
                atol=1e-12,
            )
        mat = term_list_matrix(terms, g.n)
        plus = np.full(2**g.n, 2 ** (-g.n / 2), dtype=complex)
        assert np.linalg.norm(mat @ plus) < 1e-10

    def test_each_star_term_is_psd(self):
        g = random_regular(10, 3, seed=6)
        for _, mat in sqrt_parent_hamiltonian(g, 0.45, 1.0):
            w = np.linalg.eigvalsh(mat)
            assert w.min() >= -1e-10

    @pytest.mark.parametrize("n,seed", [(10, 7), (12, 8)])
    def test_square_root_state_is_zero_eigenvector(self, n, seed):
        g = random_regular(n, 3, seed=seed)
        beta = 0.4
        terms = sqrt_parent_hamiltonian(g, beta, 1.0)
        mat = term_list_matrix(terms, g.n)
        v = to_statevector(square_root_state(g, beta, 1.0))
        assert np.linalg.norm(mat @ v) < 1e-8


class TestValidation:
    def test_rejects_non_hermitian_edge_term(self):
        g = p2()
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            Hamiltonian(graph=g, edge_terms={(0, 1): bad}, vertex_terms={})

    def test_requires_every_edge(self):
        g = cycle_graph(3)
        zz = np.kron(PAULI_Z, PAULI_Z)
        with pytest.raises(ValueError):
            Hamiltonian(graph=g, edge_terms={(0, 1): zz}, vertex_terms={})


class TestBuildModel:
    def test_mixed_field(self):
        g = random_regular(6, 3, seed=9)
        h = build_model("mixed_field_ising", g, {"jzz": -1.0, "hx": -2.0, "hz": -0.5})
        np.testing.assert_allclose(h.edge_terms[g.edges[0]], -np.kron(PAULI_Z, PAULI_Z))

    def test_tfim(self):
        g = cycle_graph(4)
        h = build_model("tfim", g, {"hx": 2.5})
        np.testing.assert_allclose(h.vertex_terms[0], -2.5 * PAULI_X)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            build_model("heisenberg", p2(), {})


@pytest.mark.parametrize("edge_terms,vertex_terms,error", [
    ({(0, 1): np.eye(4), (1, 2): np.eye(4), (0, 2): np.eye(4)}, {}, "edge term key (0, 2) is not a sorted graph edge"),
    ({(0, 1): np.eye(2), (1, 2): np.eye(4)}, {}, "edge term (0, 1) must be 4x4"),
    ({(0, 1): np.eye(4), (1, 2): np.eye(4)}, {0: np.eye(4)}, "vertex term 0 must be 2x2"),
    ({(0, 1): np.eye(4), (1, 2): np.eye(4)}, {2: [[0, 1], [0, 0]]}, "vertex term 2 is not Hermitian within 1e-12"),
    ({(0, 1): np.eye(4), (1, 2): np.eye(4)}, {-1: PAULI_X}, "vertex term key -1 is not a vertex of the graph"),
    ({(0, 1): np.eye(4), (1, 2): np.eye(4)}, {3: PAULI_X}, "vertex term key 3 is not a vertex of the graph"),
    ({(0, 1): np.eye(4), (1, 2): np.eye(4)}, {1.0: PAULI_X}, "vertex term key 1.0 is not a vertex of the graph"),
], ids=["edge-key", "edge-shape", "vertex-shape", "vertex-hermitian", "vertex-key-negative", "vertex-key-too-large",
        "vertex-key-float"])
def test_input_checks_name_the_problem(edge_terms, vertex_terms, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        Hamiltonian(graph=build_tree(3, 1), edge_terms=edge_terms, vertex_terms=vertex_terms)
