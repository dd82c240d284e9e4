import re

import numpy as np
import pytest

from sparsetn.bp import (
    BpConfig,
    Rdm,
    _site_averages,
    bp_diagnostics_to_csv,
    bp_step,
    entanglement_entropy,
    expectation,
    init_messages,
    messages_from_json,
    messages_to_json,
    rdm,
    rdm_trace_distance,
    run_bp,
    site_averaged_observables,
)
from sparsetn.env import Environment
from sparsetn.graph import Graph, build_tree, compute_diagnostics, cycle_graph, grid_graph, random_regular
from sparsetn.oracles import statevector_rdm
from sparsetn.states import (
    graph_state,
    product_state,
    random_state,
    square_root_state,
    to_statevector,
)
from sparsetn.tensor import PAULI_X, PAULI_Z


def random_tree(n, seed):
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return Graph(n, edges)


def plus_state(g):
    return product_state(g, np.array([1.0, 1.0]) / np.sqrt(2.0))


class TestInitMessages:
    def test_identity_gives_normalized_identity(self):
        s = graph_state(random_regular(6, 3, seed=0))
        msgs = init_messages(s, "identity")
        for m in msgs.values():
            np.testing.assert_allclose(m, np.eye(2) / 2)

    def test_random_is_psd_unit_trace_and_deterministic(self):
        s = graph_state(random_regular(6, 3, seed=0))
        m1 = init_messages(s, "random", seed=5)
        m2 = init_messages(s, "random", seed=5)
        for key in m1:
            np.testing.assert_array_equal(m1[key], m2[key])
            w = np.linalg.eigvalsh(m1[key])
            assert w.min() >= -1e-12
            assert abs(np.trace(m1[key]).real - 1.0) < 1e-12

    @pytest.mark.parametrize("g", [Graph(3, []), random_regular(6, 3, seed=0)], ids=["edgeless", "3-regular"])
    def test_rejects_unknown_init(self, g):
        with pytest.raises(ValueError, match="init must be 'identity' or 'random'"):
            init_messages(product_state(g, np.array([1.0, 0.0])), "bogus")


class TestBpStep:
    def test_leaf_message_is_traced_site_tensor(self):
        g = build_tree(3, 1)  # path 0-1-2
        s = random_state(g, 2, seed=1)
        msgs = init_messages(s, "random", seed=2)
        out = bp_step(s, msgs)
        t = s.site_tensors[0]
        raw = np.einsum(t, [0, 1], t.conj(), [0, 2], [1, 2])
        raw = 0.5 * (raw + raw.conj().T)
        np.testing.assert_allclose(out[(0, 1)], raw / np.trace(raw).real, atol=1e-13)

    def test_chi_one_messages_are_scalar_one(self):
        g = Graph(2, [(0, 1)])
        s = plus_state(g)
        msgs = bp_step(s, init_messages(s, "identity"))
        for m in msgs.values():
            np.testing.assert_allclose(m, np.array([[1.0]]))

    def test_tree_messages_stationary_after_diameter_steps(self):
        g = random_tree(10, seed=3)
        diameter = compute_diagnostics(g).diameter
        s = random_state(g, 2, seed=4)
        msgs = init_messages(s, "identity")
        for _ in range(diameter):
            msgs = bp_step(s, msgs)
        after = bp_step(s, msgs)
        worst = max(np.max(np.abs(after[k] - msgs[k])) for k in msgs)
        assert worst <= 1e-12

    def test_outputs_hermitian_psd_unit_trace(self):
        g = random_regular(12, 3, seed=5)
        s = square_root_state(g, 0.7, 1.0)
        msgs = init_messages(s, "random", seed=6)
        for _ in range(10):
            msgs = bp_step(s, msgs)
            for m in msgs.values():
                np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(m).min() >= -1e-10
                assert abs(np.trace(m).real - 1.0) < 1e-12

    def test_damping_is_convex_mix(self):
        g = build_tree(4, 1)
        s = random_state(g, 2, seed=7)
        msgs = init_messages(s, "identity")
        plain = bp_step(s, msgs, damping=0.0)
        damped = bp_step(s, msgs, damping=0.25)
        for k in msgs:
            np.testing.assert_allclose(damped[k], 0.75 * plain[k] + 0.25 * msgs[k], atol=1e-13)


class TestRunBp:
    def test_tree_converges_within_diameter_plus_one(self):
        g = random_tree(12, seed=10)
        diameter = compute_diagnostics(g).diameter
        s = random_state(g, 3, seed=11)
        _, diag = run_bp(s, BpConfig(max_steps=50, rdm_tolerance=1e-10))
        assert diag.converged
        assert diag.steps_run <= diameter + 1

    def test_convergence_judged_on_rdms(self):
        g = random_regular(20, 3, seed=8)
        s = square_root_state(g, 0.4, 1.0)
        msgs, diag = run_bp(s, BpConfig(max_steps=300, rdm_tolerance=1e-8, init="random", init_seed=3))
        assert diag.converged
        assert diag.rdm_deltas[-1] <= 1e-8
        assert len(diag.rdm_deltas) == diag.steps_run == len(diag.message_deltas)

    def test_non_convergence_is_reported_not_raised(self):
        g = random_regular(20, 3, seed=8)
        s = square_root_state(g, 0.6, 1.0)
        _, diag = run_bp(s, BpConfig(max_steps=3, rdm_tolerance=1e-12, init="random", init_seed=1))
        assert not diag.converged
        assert diag.steps_run == 3

    def test_warm_start_resumes(self):
        g = random_regular(12, 3, seed=2)
        s = square_root_state(g, 0.3, 1.0)
        msgs, diag1 = run_bp(s, BpConfig(max_steps=200, rdm_tolerance=1e-10, init="random", init_seed=4))
        assert diag1.converged
        _, diag2 = run_bp(s, BpConfig(max_steps=200, rdm_tolerance=1e-10), msgs=msgs)
        assert diag2.steps_run <= 2

    def test_failures_name_their_step(self):
        s = random_state(random_regular(12, 3, seed=2), 2, seed=5)
        dead = {key: np.zeros_like(m) for key, m in init_messages(s).items()}
        with pytest.raises(RuntimeError, match=r"^BP step 1: message 0->\d+ lost positivity \(trace=0\.0\)$"):
            run_bp(s, BpConfig(max_steps=5), msgs=dead)

    @pytest.mark.parametrize("state", [
        square_root_state(random_regular(20, 3, seed=8), 0.4, 1.0),
        random_state(grid_graph(3, 4), 3, seed=6),  # degrees 2, 3 and 4
    ])
    def test_hands_on_its_environment(self, state):
        msgs, diag = run_bp(state, BpConfig(max_steps=30, rdm_tolerance=1e-10, init="random", init_seed=3))
        assert list(diag.env.msgs) == list(msgs)
        for key, m in msgs.items():
            np.testing.assert_array_equal(diag.env.msgs[key], m)
        assert _site_averages(diag.env) == site_averaged_observables(state, msgs)


class TestRdm:
    @pytest.mark.parametrize("sites,bad", [((99,), 99), ((-1,), -1), ((0, 5), 5)])
    def test_rejects_sites_out_of_range(self, sites, bad):
        g = cycle_graph(5)
        s = random_state(g, 2, seed=1)
        with pytest.raises(ValueError, match=rf"^site {bad} out of range for n=5$"):
            rdm(s, init_messages(s, "identity"), sites)

    def test_product_state_site(self):
        g = build_tree(5, 2)
        s = product_state(g, [1.0, 0.0])
        msgs = init_messages(s, "identity")
        rho = rdm(s, msgs, (2,))
        np.testing.assert_allclose(rho.matrix, [[1.0, 0.0], [0.0, 0.0]], atol=1e-13)

    def test_graph_state_edge_is_maximally_mixed(self):
        g = random_regular(50, 3, seed=1)
        s = graph_state(g)
        msgs, diag = run_bp(s, BpConfig(max_steps=20, rdm_tolerance=1e-10))
        assert diag.converged
        rho = rdm(s, msgs, g.edges[0])
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4, atol=1e-9)
        assert abs(entanglement_entropy(rho) - 2 * np.log(2)) < 1e-9

    def test_tree_edge_matches_statevector(self):
        g = random_tree(9, seed=12)
        s = square_root_state(g, 0.6, 1.0)
        msgs, _ = run_bp(s, BpConfig(max_steps=50, rdm_tolerance=1e-12))
        v = to_statevector(s)
        for e in g.edges:
            np.testing.assert_allclose(rdm(s, msgs, e).matrix, statevector_rdm(v, g.n, e), atol=1e-10)

    def test_three_site_path_on_tree(self):
        g = build_tree(7, 2)
        s = random_state(g, 2, seed=13)
        msgs, _ = run_bp(s, BpConfig(max_steps=50, rdm_tolerance=1e-12))
        v = to_statevector(s)
        sites = (1, 0, 2)
        np.testing.assert_allclose(rdm(s, msgs, sites).matrix, statevector_rdm(v, g.n, sites), atol=1e-9)

    def test_rejects_disconnected_sites(self):
        g = build_tree(5, 1)
        s = plus_state(g)
        msgs = init_messages(s, "identity")
        with pytest.raises(ValueError):
            rdm(s, msgs, (0, 2))
        with pytest.raises(ValueError):
            rdm(s, msgs, (0, 1, 2, 3))

    def test_message_scalar_rescale_is_exact_noop(self):
        g = random_regular(10, 3, seed=3)
        s = square_root_state(g, 0.5, 1.0)
        msgs, _ = run_bp(s, BpConfig(max_steps=50, rdm_tolerance=1e-9, init="random", init_seed=7))
        key = next(iter(msgs))
        scaled = dict(msgs)
        scaled[key] = 4.0 * msgs[key]  # power of two keeps the no-op exact in floating point
        for sites in [(key[1],), key, g.edges[0]]:
            a = rdm(s, msgs, sites).matrix
            b = rdm(s, scaled, sites).matrix
            np.testing.assert_array_equal(a, b)

    def test_message_scalar_rescale_is_exact_across_seeds(self):
        # 240 (graph, init seed, message) triples; BP leaves no subnormal message entry,
        # whose product with a rescaled message could round differently
        for graph_seed in range(20):
            g = random_regular(10, 3, seed=graph_seed)
            s = square_root_state(g, 0.5, 1.0)
            for init_seed in (1, 2, 3, 7):
                msgs, _ = run_bp(s, BpConfig(max_steps=50, rdm_tolerance=1e-9, init="random", init_seed=init_seed))
                for key in list(msgs)[:3]:
                    scaled = dict(msgs)
                    scaled[key] = 4.0 * msgs[key]
                    for sites in [(key[1],), key, g.edges[0]]:
                        np.testing.assert_array_equal(rdm(s, msgs, sites).matrix, rdm(s, scaled, sites).matrix)

    def test_contracts_only_its_own_sites(self, monkeypatch):
        g = random_regular(20, 3, seed=8)
        s = random_state(g, 2, seed=5)
        msgs = init_messages(s, "random", seed=1)
        env = Environment(s, msgs)
        site_rdms, edge_rdms = env.site_rdms(), env.edge_rdms()

        def whole_graph(*args, **kwargs):
            raise AssertionError("rdm built an Environment of the whole graph")

        monkeypatch.setattr("sparsetn.bp.Environment", whole_graph)
        a, b = g.edges[0]
        c = next(u for u in g.neighbors(b) if u != a)
        np.testing.assert_allclose(rdm(s, msgs, (a,)).matrix, site_rdms[a], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rdm(s, msgs, (a, b)).matrix, edge_rdms[0], rtol=0, atol=1e-12)
        rho3 = rdm(s, msgs, (a, b, c)).matrix
        assert rho3.shape == (8, 8)
        assert abs(np.trace(rho3) - 1.0) < 1e-12


class TestObservables:
    def test_expectation_examples(self):
        rho0 = Rdm((0,), np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
        assert expectation(rho0, PAULI_Z) == pytest.approx(1.0)
        mixed = Rdm((0,), np.eye(2, dtype=complex) / 2)
        assert expectation(mixed, PAULI_X) == pytest.approx(0.0)
        assert expectation(mixed, np.eye(2)) == pytest.approx(1.0)

    def test_expectation_dim_mismatch(self):
        rho = Rdm((0,), np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            expectation(rho, np.eye(4))

    def test_entropy_examples(self):
        pure = Rdm((0,), np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
        assert entanglement_entropy(pure) == pytest.approx(0.0, abs=1e-12)
        mixed = Rdm((0, 1), np.eye(4, dtype=complex) / 4)
        assert entanglement_entropy(mixed) == pytest.approx(2 * np.log(2))

    def test_entropy_warns_on_large_negative_eigenvalue(self):
        mat = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.warns(UserWarning):
            entanglement_entropy(Rdm((0, 1), mat))

    def test_trace_distance_examples(self):
        a = Rdm((0,), np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
        b = Rdm((0,), np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
        c = Rdm((0,), np.eye(2, dtype=complex) / 2)
        assert rdm_trace_distance(a, a) == pytest.approx(0.0)
        assert rdm_trace_distance(a, b) == pytest.approx(1.0)
        assert rdm_trace_distance(a, c) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            rdm_trace_distance(a, Rdm((1,), c.matrix))

    def test_site_averages_plus_product(self):
        g = random_regular(8, 3, seed=4)
        s = plus_state(g)
        msgs, _ = run_bp(s, BpConfig(max_steps=10))
        obs = site_averaged_observables(s, msgs)
        assert obs.mean_x == pytest.approx(1.0, abs=1e-10)
        assert obs.mean_abs_z == pytest.approx(0.0, abs=1e-10)

    def test_site_averages_ordered_square_root_state(self):
        g = random_regular(14, 3, seed=5)
        s = square_root_state(g, 1.5, 1.0)
        msgs, _ = run_bp(s, BpConfig(max_steps=300, rdm_tolerance=1e-9, init="random", init_seed=8))
        obs = site_averaged_observables(s, msgs)
        assert obs.mean_abs_z > 0.95

    def test_site_averages_reject_qudits(self):
        s = random_state(cycle_graph(6), 2, 0, phys_dim=3)
        with pytest.raises(ValueError, match="requires qubits"):
            site_averaged_observables(s, init_messages(s, "identity"))


class TestSerialization:
    def test_messages_round_trip(self):
        g = random_regular(6, 3, seed=6)
        s = graph_state(g)
        msgs = init_messages(s, "random", seed=3)
        back = messages_from_json(messages_to_json(msgs))
        assert set(back) == set(msgs)
        for k in msgs:
            np.testing.assert_array_equal(back[k], msgs[k])

    def test_diagnostics_csv(self, tmp_path):
        g = build_tree(6, 2)
        s = random_state(g, 2, seed=2)
        _, diag = run_bp(s, BpConfig(max_steps=20, rdm_tolerance=1e-10))
        path = tmp_path / "diag.csv"
        bp_diagnostics_to_csv(diag, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,max_rdm_trace_distance,max_message_delta"
        assert len(lines) == diag.steps_run + 1


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BpConfig(max_steps=0)
        with pytest.raises(ValueError):
            BpConfig(rdm_tolerance=0.0)
        with pytest.raises(ValueError):
            BpConfig(damping=1.0)
        with pytest.raises(ValueError):
            BpConfig(init="zeros")


PATH = build_tree(3, 1)


@pytest.mark.parametrize("run,error", [
    (lambda: BpConfig(workers=0), "workers must be >= 1"),
    (lambda: rdm(graph_state(PATH), init_messages(graph_state(PATH)), (0, 1, 0)), "sites must be distinct"),
    (lambda: expectation(Rdm((0,), np.diag([1.0, 0.0])), np.diag([1j, 0.0])),
     "expectation value has imaginary part 1.000e+00"),
    (lambda: rdm_trace_distance(Rdm((0,), np.eye(2) / 2), Rdm((0,), np.eye(4) / 4)), "rdm dimensions do not match"),
], ids=["workers", "distinct-sites", "imaginary-expectation", "rdm-dimensions"])
def test_input_checks_name_the_problem(run, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        run()
