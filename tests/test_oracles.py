import numpy as np
import pytest

from sparsetn.bp import BpConfig, expectation, rdm, run_bp
from sparsetn.graph import Graph, build_tree, cycle_graph, random_regular
from sparsetn.hamiltonian import mixed_field_ising, transverse_field_ising
from sparsetn.oracles import (
    classical_exact_expectations,
    classical_ising_mc,
    exact_diagonalize,
    fidelity,
    ground_space_overlap,
    hamiltonian_matrix,
    statevector_rdm,
)
from sparsetn.states import graph_state, product_state, square_root_state, to_statevector
from sparsetn.tensor import PAULI_X, PAULI_Z


def p2():
    return Graph(2, [(0, 1)])


class TestExactDiagonalize:
    def test_single_edge_tfim(self):
        ed = exact_diagonalize(transverse_field_ising(p2(), 1.0))
        assert ed.e0 == pytest.approx(-np.sqrt(5.0), abs=1e-10)
        assert ed.e0 <= ed.e1

    def test_degenerate_classical_limit(self):
        g = random_regular(8, 3, seed=1)
        ed = exact_diagonalize(transverse_field_ising(g, 0.0))
        assert ed.e0 == pytest.approx(-12.0, abs=1e-10)
        assert ed.e1 == pytest.approx(-12.0, abs=1e-10)

    def test_residuals_and_normalization(self):
        g = random_regular(10, 3, seed=2)
        h = mixed_field_ising(g, -1.0, -2.0, -0.5)
        ed = exact_diagonalize(h)
        mat = hamiltonian_matrix(h)
        for e, v in ((ed.e0, ed.v0), (ed.e1, ed.v1)):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert np.linalg.norm(mat @ v - e * v) < 1e-9

    def test_lanczos_branch_matches_block_decomposition(self):
        # 13 sites exercises the sparse two-eigenpair solver; a disconnected
        # graph makes the spectrum the sum of small dense-solvable blocks
        edges_cycle = [(i, (i + 1) % 8) for i in range(8)]
        edges_path = [(8 + i, 9 + i) for i in range(4)]
        g = Graph(13, edges_cycle + edges_path)
        ed = exact_diagonalize(transverse_field_ising(g, 2.0))
        ed_a = exact_diagonalize(transverse_field_ising(Graph(8, edges_cycle), 2.0))
        ed_b = exact_diagonalize(transverse_field_ising(Graph(5, [(i, i + 1) for i in range(4)]), 2.0))
        assert ed.e0 == pytest.approx(ed_a.e0 + ed_b.e0, abs=1e-8)
        assert ed.e1 == pytest.approx(min(ed_a.e0 + ed_b.e1, ed_a.e1 + ed_b.e0), abs=1e-8)

    def test_size_guard(self):
        g = build_tree(15, 1)
        with pytest.raises(ValueError):
            exact_diagonalize(transverse_field_ising(g, 1.0))


class TestEigenpairTail:
    """The 13-cycle TFIM goes through the Lanczos solver, the 8-vertex graph through
    the dense one. The two lowest levels are exactly degenerate at hx = 0 and split
    by about hx^13 on the cycle otherwise."""

    @pytest.fixture(scope="class", params=[(13, 0.0), (13, 0.05), (8, 0.0)],
                    ids=["lanczos-0", "lanczos-0.05", "dense-0"])
    def ground_pair(self, request):
        n, hx = request.param
        g = cycle_graph(13) if n == 13 else random_regular(8, 3, seed=1)
        h = transverse_field_ising(g, hx)
        return hx, h, exact_diagonalize(h)

    def test_pair_is_orthonormal(self, ground_pair):
        _, _, ed = ground_pair
        assert abs(np.vdot(ed.v0, ed.v1)) <= 1e-10
        assert abs(np.linalg.norm(ed.v0) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(ed.v1) - 1.0) <= 1e-12

    def test_all_up_ground_space_overlap(self, ground_pair):
        hx, h, ed = ground_pair
        overlap = ground_space_overlap(product_state(h.graph, [1.0, 0.0]), ed)
        assert overlap <= 1.0 + 1e-12
        if hx == 0.0:
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_rerun_is_bit_identical(self, ground_pair):
        _, h, ed = ground_pair
        again = exact_diagonalize(h)
        assert (again.e0, again.e1) == (ed.e0, ed.e1)
        np.testing.assert_array_equal(again.v0, ed.v0)
        np.testing.assert_array_equal(again.v1, ed.v1)


class TestOverlaps:
    def test_fidelity_self_is_one(self):
        g = random_regular(6, 3, seed=3)
        s = graph_state(g)
        assert fidelity(s, to_statevector(s)) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_zero_vs_plus(self):
        g = build_tree(6, 2)
        s = product_state(g, [1.0, 0.0])
        plus = np.full(2**6, 2 ** (-3.0))
        assert fidelity(s, plus) == pytest.approx(2.0**-6, abs=1e-12)

    def test_fidelity_phase_invariance(self):
        g = build_tree(5, 2)
        s = product_state(g, [1.0, 1.0j])
        v = to_statevector(s)
        assert fidelity(s, np.exp(0.7j) * v) == pytest.approx(fidelity(s, v), abs=1e-14)

    def test_ground_space_overlap(self):
        g = p2()
        ed = exact_diagonalize(transverse_field_ising(g, 0.0))
        all_up = product_state(g, [1.0, 0.0])
        plus = product_state(g, np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert ground_space_overlap(all_up, ed) == pytest.approx(1.0, abs=1e-10)
        assert ground_space_overlap(plus, ed) == pytest.approx(0.5, abs=1e-10)


class TestMonteCarlo:
    def test_infinite_temperature(self):
        g = random_regular(10, 3, seed=4)
        mc = classical_ising_mc(g, 0.0, 1.0, sweeps=3000, burn_in=500, seed=1)
        assert mc.mean_abs_z <= 3 * mc.mean_abs_z_error

    def test_single_edge_correlation_matches_tanh(self):
        g = p2()
        mc = classical_ising_mc(g, 0.5, 1.0, sweeps=20000, burn_in=2000, seed=2)
        corr = mc.edge_correlations[0]
        err = mc.edge_errors[0]
        assert abs(corr - np.tanh(0.5)) <= 3 * err

    def test_deterministic_per_seed(self):
        g = random_regular(8, 3, seed=5)
        m1 = classical_ising_mc(g, 0.6, 1.0, sweeps=1000, burn_in=200, seed=9)
        m2 = classical_ising_mc(g, 0.6, 1.0, sweeps=1000, burn_in=200, seed=9)
        np.testing.assert_array_equal(m1.site_means, m2.site_means)
        assert m1.sector_flips == m2.sector_flips

    def test_magnetizations_match_enumeration_in_ergodic_regime(self):
        g = random_regular(12, 3, seed=6)
        hits = 0
        total = 0
        for i, beta in enumerate((0.2, 0.35, 0.5)):
            exact = classical_exact_expectations(g, beta, 1.0)
            mc = classical_ising_mc(g, beta, 1.0, sweeps=8000, burn_in=1000, seed=20 + i)
            for a in range(g.n):
                total += 1
                if abs(mc.site_means[a] - exact.z[a]) <= 3 * mc.site_errors[a]:
                    hits += 1
        assert hits / total >= 0.95

    def test_trapped_regime_sign_referenced_estimator(self):
        g = random_regular(12, 3, seed=6)
        mc = classical_ising_mc(g, 1.2, 1.0, sweeps=4000, burn_in=500, seed=3)
        assert mc.sector_flips == 0
        assert mc.mean_signed_z > 0.95

    def test_parameter_validation(self):
        g = p2()
        with pytest.raises(ValueError):
            classical_ising_mc(g, 0.5, 1.0, sweeps=100, burn_in=100, seed=0)


class TestExactEnumeration:
    def test_infinite_temperature_values(self):
        g = random_regular(10, 3, seed=7)
        exact = classical_exact_expectations(g, 0.0, 1.0)
        np.testing.assert_allclose(exact.z, 0.0, atol=1e-12)
        np.testing.assert_allclose(exact.x, 1.0, atol=1e-12)

    def test_z_vanishes_by_symmetry(self):
        g = random_regular(12, 3, seed=8)
        exact = classical_exact_expectations(g, 0.8, 1.0)
        np.testing.assert_allclose(exact.z, 0.0, atol=1e-12)

    def test_single_edge_cross_check_vs_statevector(self):
        g = p2()
        beta = 0.7
        exact = classical_exact_expectations(g, beta, 1.0)
        v = to_statevector(square_root_state(g, beta, 1.0))
        for a in range(2):
            rho = statevector_rdm(v, 2, (a,))
            assert abs(np.trace(rho @ PAULI_X).real - exact.x[a]) < 1e-12
            assert abs(np.trace(rho @ PAULI_Z).real - exact.z[a]) < 1e-12

    def test_bp_on_single_edge_matches_enumeration(self):
        g = p2()
        beta = 0.9
        s = square_root_state(g, beta, 1.0)
        msgs, _ = run_bp(s, BpConfig(max_steps=50, rdm_tolerance=1e-12))
        exact = classical_exact_expectations(g, beta, 1.0)
        for a in range(2):
            rho = rdm(s, msgs, (a,))
            assert abs(expectation(rho, PAULI_X) - exact.x[a]) < 1e-10
            assert abs(expectation(rho, PAULI_Z) - exact.z[a]) < 1e-10

    def test_size_guard(self):
        g = build_tree(17, 2)
        with pytest.raises(ValueError):
            classical_exact_expectations(g, 0.5, 1.0)


class TestStatevectorRdm:
    def test_product_state(self):
        g = build_tree(4, 2)
        v = to_statevector(product_state(g, [0.0, 1.0]))
        rho = statevector_rdm(v, 4, (2,))
        np.testing.assert_allclose(rho, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_site_order_is_most_significant_first(self):
        g = p2()
        s = product_state(g, [1.0, 0.0]).with_site_tensors(
            [np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]])]
        )
        v = to_statevector(s)  # |10>
        rho = statevector_rdm(v, 2, (0, 1))
        assert rho[2, 2] == pytest.approx(1.0)
        rho_swapped = statevector_rdm(v, 2, (1, 0))
        assert rho_swapped[1, 1] == pytest.approx(1.0)
