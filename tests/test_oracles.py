import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import reference_kernels as ref
import sparsetn

from sparsetn.bp import BpConfig, expectation, rdm, run_bp
from sparsetn.graph import Graph, build_tree, cycle_graph, random_regular
from sparsetn.hamiltonian import Hamiltonian, mixed_field_ising, transverse_field_ising
from sparsetn.oracles import (
    classical_exact_expectations,
    classical_ising_mc,
    exact_diagonalize,
    fidelity,
    ground_space_overlap,
    hamiltonian_matrix,
    hamiltonian_terms,
    statevector_rdm,
    term_list_matrix,
)
from sparsetn.states import graph_state, product_state, square_root_state, to_statevector
from sparsetn.tensor import PAULI_X, PAULI_Y, PAULI_Z


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

    def test_rejects_non_qubit_terms(self):
        # a qutrit term has no place on a qubit register; reading its 4x4 corner gave a wrong spectrum
        a = np.random.default_rng(0).standard_normal((9, 9))
        g = cycle_graph(3)
        h = Hamiltonian(graph=g, edge_terms={e: a + a.T for e in g.edges}, phys_dim=3)
        with pytest.raises(ValueError, match=r"^operator on sites \(0, 1\) has shape \(9, 9\)"):
            exact_diagonalize(h)
        with pytest.raises(ValueError, match=r"^operator on sites \(1, 2\) has shape \(9, 9\)"):
            term_list_matrix([((1, 2), a + a.T)], 3)


def dense_embedding(op, sites, n):
    """Independent reference: op (x) identity on the other qubits, axes transposed into vertex order."""
    k = len(sites)
    full = np.kron(op, np.eye(2 ** (n - k)))
    perm = list(np.argsort(list(sites) + [v for v in range(n) if v not in sites]))
    return full.reshape((2,) * (2 * n)).transpose(perm + [n + p for p in perm]).reshape(1 << n, 1 << n)


class TestTermListMatrix:
    @pytest.mark.parametrize("n,sites", [(1, (0,)), (4, (2,)), (3, (2, 0)), (5, (3, 1)), (5, (4, 0, 2)),
                                         (2, (1, 0)), (3, (1, 2, 0))])
    def test_matches_dense_kron_construction(self, n, sites):
        rng = np.random.default_rng(n + 10 * len(sites))
        dim = 1 << len(sites)
        terms = []
        for _ in range(3):
            op = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            op[rng.random((dim, dim)) < 0.3] = 0
            terms.append((tuple(int(v) for v in rng.permutation(sites)), op))
        expected = np.zeros((1 << n, 1 << n), dtype=complex)
        for sites_k, op in terms:
            dense = dense_embedding(op, sites_k, n)
            np.testing.assert_array_equal(term_list_matrix([(sites_k, op)], n).toarray(), dense)
            expected = expected + dense
        np.testing.assert_array_equal(term_list_matrix(terms, n).toarray(), expected)


class TestEigenpairTail:
    """The 13-cycle TFIM and the 8-vertex graph both go through the Lanczos solver.
    The two lowest levels are exactly degenerate at hx = 0 and split by about
    hx^13 on the cycle otherwise."""

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


class TestLanczosRange:
    """Random 3-regular TFIMs at n = 10 and 12 go through the Lanczos solver. At
    hx = 0 the two lowest levels are the exactly degenerate all-up/all-down pair."""

    @pytest.fixture(scope="class", params=[(10, 0.0), (10, 1.0), (12, 0.0), (12, 1.0)],
                    ids=["n10-hx0", "n10-hx1", "n12-hx0", "n12-hx1"])
    def solved(self, request):
        n, hx = request.param
        h = transverse_field_ising(random_regular(n, 3, seed=n), hx)
        return n, hx, h, exact_diagonalize(h)

    def test_pair_is_orthonormal(self, solved):
        _, _, _, ed = solved
        gram = np.array([[np.vdot(a, b) for b in (ed.v0, ed.v1)] for a in (ed.v0, ed.v1)])
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-10

    def test_zero_field_pair_is_degenerate(self, solved):
        _, hx, _, ed = solved
        if hx == 0.0:
            assert abs(ed.e0 - ed.e1) <= 1e-10
        else:
            assert ed.e1 - ed.e0 > 1e-10


@pytest.mark.parametrize("hx", [0.0, 1.0])
def test_lanczos_levels_match_dense(hx):
    h = transverse_field_ising(random_regular(10, 3, seed=10), hx)
    ed = exact_diagonalize(h)
    w = np.linalg.eigvalsh(hamiltonian_matrix(h).toarray())
    assert abs(ed.e0 - w[0]) <= 1e-10
    assert abs(ed.e1 - w[1]) <= 1e-10


def _y_model(n):
    """A complex Hamiltonian: Y terms on a cycle, with site-dependent fields so no symmetry pairs the levels."""
    g = cycle_graph(n)
    edge = np.kron(PAULI_Z, PAULI_Z) + 0.6 * np.kron(PAULI_Y, PAULI_X)
    return Hamiltonian(graph=g, edge_terms={e: edge for e in g.edges},
                       vertex_terms={a: (0.5 + 0.1 * a) * PAULI_Y + 0.3 * PAULI_Z for a in range(n)})


def _stiff_model(seed):
    """ZZ on each edge and X plus Z on each site, each coefficient 10^U(-3, 3), with random signs on ZZ and Z."""
    g, rng = random_regular(10, 3, seed=seed), np.random.default_rng(seed)
    size = lambda k: 10.0 ** rng.uniform(-3.0, 3.0, k)  # noqa: E731
    sign = lambda k: rng.choice([-1.0, 1.0], k)  # noqa: E731
    zz, x, z = sign(len(g.edges)) * size(len(g.edges)), size(g.n), sign(g.n) * size(g.n)
    return Hamiltonian(graph=g, edge_terms={e: c * np.kron(PAULI_Z, PAULI_Z) for e, c in zip(g.edges, zz)},
                       vertex_terms={a: x[a] * PAULI_X + z[a] * PAULI_Z for a in range(g.n)})


LANCZOS_EDGE_CASES = {
    "complex-y-n9": lambda: _y_model(9),
    "complex-y-n11": lambda: _y_model(11),
    # breaks down at once: H q = 0 for every start vector
    "zero-n9": lambda: Hamiltonian(graph=cycle_graph(9), edge_terms={e: 0 * np.eye(4) for e in cycle_graph(9).edges}),
    # two levels, each 512-fold: the Krylov space is exhausted after two blocks
    "edgeless-two-levels": lambda: Hamiltonian(graph=Graph(10, []), vertex_terms={4: 0.7 * PAULI_X + 0.2 * PAULI_Z}),
    # eleven levels with a simple lowest one, so a block loses rank before the space is exhausted
    "edgeless-sum-z": lambda: Hamiltonian(graph=Graph(10, []), vertex_terms={a: PAULI_Z for a in range(10)}),
    "first-lanczos-size-n9": lambda: mixed_field_ising(random_regular(9, 4, seed=9), -1.0, -2.0, -0.5),
    # classical Ising paths in a longitudinal field have few distinct levels, so a block vanishes while H is not
    # zero, two or three times per run, and fresh random directions must take its place
    "breakdown-path-n9": lambda: mixed_field_ising(build_tree(9, 1), jzz=-1.0, hx=0.0, hz=0.5),
    "breakdown-path-n10": lambda: mixed_field_ising(build_tree(10, 1), jzz=-1.0, hx=0.0, hz=1.0),
    "breakdown-path-n4": lambda: mixed_field_ising(build_tree(4, 1), jzz=-1.0, hx=0.0, hz=1.0),
    # coefficients over six decades: on seed 38, one Gram-Schmidt pass against the whole basis, without the
    # three-term recurrence before it, loses orthogonality and fails the residual check at the 1024-vector cap
    "stiff-n10": lambda: _stiff_model(1),
    "stiff-n10-seed38": lambda: _stiff_model(38),
    # a frustrated antiferromagnet in a weak field: e1 - e0 is about 1.3e-9
    "frustrated-afm-n10": lambda: mixed_field_ising(random_regular(10, 3, seed=1), 1.0, 0.05, 0.0),
}


@pytest.mark.parametrize("name", list(LANCZOS_EDGE_CASES))
def test_lanczos_edge_cases_match_dense(name):
    h = LANCZOS_EDGE_CASES[name]()
    ed = exact_diagonalize(h)
    w = np.linalg.eigvalsh(term_list_matrix(hamiltonian_terms(h), h.graph.n).toarray())
    assert abs(ed.e0 - w[0]) <= 1e-10
    assert abs(ed.e1 - w[1]) <= 1e-10
    gram = np.array([[np.vdot(a, b) for b in (ed.v0, ed.v1)] for a in (ed.v0, ed.v1)])
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-10
    if name == "zero-n9":
        assert (ed.e0, ed.e1) == (0.0, 0.0)


def test_lanczos_bits_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(sparsetn.__file__))
    code = ("from sparsetn.graph import random_regular; from sparsetn.hamiltonian import mixed_field_ising; "
            "from sparsetn.oracles import exact_diagonalize; "
            "ed = exact_diagonalize(mixed_field_ising(random_regular(10, 3, seed=2), -1.0, -2.0, -0.5)); "
            "print(ed.e0.hex(), ed.e1.hex(), ed.v0.tobytes().hex(), ed.v1.tobytes().hex())")
    outs = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=t, OMP_NUM_THREADS=t)).stdout
            for t in ("1", "2")]
    assert outs[0] == outs[1]
    assert len(outs[0].split()) == 4


def test_residual_guard_rejects_a_wrong_pair(monkeypatch):
    lanczos = sparsetn.oracles._block_lanczos

    def shifted(h, dim):
        w, v = lanczos(h, dim)
        return w + np.array([1e-6, 0.0]), v

    monkeypatch.setattr(sparsetn.oracles, "_block_lanczos", shifted)
    with pytest.raises(RuntimeError, match="eigenpair residual"):
        exact_diagonalize(transverse_field_ising(random_regular(8, 3, seed=1), 1.0))


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

    @pytest.mark.parametrize("batches", [0, 1, -3])
    def test_rejects_fewer_than_two_batches(self, batches):
        with pytest.raises(ValueError, match=f"got {batches}$"):
            classical_ising_mc(p2(), 0.5, 1.0, sweeps=100, burn_in=10, seed=0, batches=batches)

    def test_edgeless_graph(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = classical_ising_mc(Graph(5, []), 0.5, 1.0, sweeps=600, burn_in=100, seed=4)
        assert mc.edge_correlations.shape == mc.edge_errors.shape == (0,)
        assert np.all(np.isfinite(mc.site_means)) and np.all(np.isfinite(mc.site_errors))
        assert np.isfinite(mc.mean_abs_z)

    @pytest.mark.parametrize("graph,beta,j,seed", [
        (random_regular(10, 3, seed=4), 0.0, 1.0, 1),
        (random_regular(12, 3, seed=6), 0.5, 1.0, 2),
        (Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]), 0.7, -1.3, 3),
    ], ids=["beta0", "ferro", "antiferro-isolated"])
    def test_chain_matches_reference(self, graph, beta, j, seed):
        new = classical_ising_mc(graph, beta, j, sweeps=3000, burn_in=200, seed=seed, batches=10)
        old = ref.classical_ising_mc(graph, beta, j, sweeps=3000, burn_in=200, seed=seed, batches=10)
        for name, value in vars(old).items():
            np.testing.assert_array_equal(getattr(new, name), value, err_msg=name)

    @pytest.mark.parametrize("graph,beta,j,sweeps,burn_in,batches,seed", [
        (random_regular(12, 3, seed=6), 0.4, 1.0, 1003, 200, 7, 11),
        (random_regular(10, 3, seed=4), 0.6, 1.0, 800, 0, 9, 12),
        (Graph(7, [(0, k) for k in range(1, 7)]), 1.5, -0.4, 1500, 100, 10, 13),
        (cycle_graph(6), 0.1, 1.0, 2200, 200, 200, 14),
        (Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]), 400.0, -1.0, 600, 100, 5, 15),
    ], ids=["uneven-batches", "no-burn-in", "star-degree-6", "sign-carry-across-batches", "exp-underflow"])
    def test_chain_matches_reference_edge_cases(self, graph, beta, j, sweeps, burn_in, batches, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = classical_ising_mc(graph, beta, j, sweeps=sweeps, burn_in=burn_in, seed=seed, batches=batches)
        old = ref.classical_ising_mc(graph, beta, j, sweeps=sweeps, burn_in=burn_in, seed=seed, batches=batches)
        for name, value in vars(old).items():
            np.testing.assert_array_equal(getattr(new, name), value, err_msg=name)


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


@pytest.mark.parametrize("run,error", [
    (lambda: fidelity(graph_state(build_tree(2, 1)), np.ones(3)), "statevector dimensions do not match"),
    (lambda: statevector_rdm(np.ones(3), 2, (0,)), "statevector length does not match qubit count"),
], ids=["fidelity", "statevector-rdm"])
def test_input_checks_name_the_problem(run, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        run()
