import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsetn.bp import (
    BpConfig,
    Rdm,
    _expectations,
    _pauli_means,
    _site_averages,
    _trace_distances,
    bp_diagnostics_to_csv,
    bp_iterate,
    bp_step,
    entanglement_entropy,
    expectation,
    init_messages,
    messages_from_json,
    messages_to_json,
    rdm,
    rdm_trace_distance,
    run_bp,
    run_bp_stacked,
    site_averaged_observables,
)
from sparsetn.env import Environment
from sparsetn.graph import Graph, build_tree, compute_diagnostics, cycle_graph, grid_graph, random_regular
from sparsetn.oracles import statevector_rdm
from sparsetn.states import (
    TensorNetworkState,
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

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_one_draw_matches_a_draw_per_edge(self, seed):
        g = random_regular(10, 3, seed=seed)
        rng = np.random.default_rng(seed)
        chis = {e: k % 3 + 1 for k, e in enumerate(g.edges)}
        tensors = []
        for v in range(g.n):
            shape = (2,) + tuple(chis[(min(v, u), max(v, u))] for u in g.neighbors(v))
            tensors.append(rng.standard_normal(shape))
        s = TensorNetworkState(g, tensors, 2)
        assert set(s.bond_dims.values()) == {1, 2, 3}

        rng = np.random.default_rng(seed + 1)
        expected = {}
        for a, b in g.directed_edges:
            chi = s.bond_dim(a, b)
            gmat = rng.standard_normal((chi, chi)) + 1j * rng.standard_normal((chi, chi))
            m = gmat.conj().T @ gmat
            expected[(a, b)] = m / np.trace(m).real
        identity = {e: np.eye(len(m)) / len(m) for e, m in expected.items()}
        for init, want in (("random", expected), ("identity", identity)):
            got = init_messages(s, init, seed=seed + 1)
            assert list(got) == sorted(g.directed_edges)
            for key, m in want.items():
                assert got[key].dtype == np.complex128
                np.testing.assert_array_equal(got[key], m, err_msg=f"{init} {key}")

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

    @pytest.mark.parametrize("n", [16, 1000])
    def test_pauli_means_per_copy_equal_one_call_per_slice(self, n):
        """Three copies reduced together give the bits of the lone reduction of each ``np.split`` slice; at
        n = 1000 numpy sums pairwise."""
        rng = np.random.default_rng(n)

        def densities(count, dim):
            a = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
            rho = a @ a.conj().swapaxes(1, 2)
            return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]

        sites, edges = densities(3 * n, 2), densities(3 * (3 * n // 2), 4)
        slices = list(zip(np.split(sites, 3), np.split(edges, 3)))
        lone = [(float(np.mean(np.abs(_expectations(s, PAULI_Z)))), float(np.mean(_expectations(s, PAULI_X))),
                 float(np.mean(_expectations(e, np.kron(PAULI_Z, PAULI_Z))))) for s, e in slices]
        assert _pauli_means(sites, edges, 3) == lone
        assert [_pauli_means(s, e)[0] for s, e in slices] == lone
        assert [zz for *_, zz in _pauli_means(sites, edges[:0], 3)] == [0.0] * 3


def exact_stop(state, cfg):
    """``run_bp``'s stop rule on exact deltas: (converged, steps, final message stack, per-step deltas)."""
    deltas = []
    for env, delta, _ in islice(bp_iterate(state, init_messages(state, cfg.init, cfg.init_seed), cfg.damping),
                                cfg.max_steps):
        deltas.append(delta)
        if delta <= cfg.rdm_tolerance:
            return True, len(deltas), env.msg_stack, deltas
    return False, len(deltas), env.msg_stack, deltas


SCREENED = [
    *[pytest.param(square_root_state(random_regular(16, 3, seed=2), beta), init, damping,
                   id=f"sqrt-{beta}-{init}-{damping}")
      for beta in (0.2, 0.5, 0.6, 1.0) for init in ("identity", "random") for damping in (0.0, 0.3)],
    pytest.param(random_state(cycle_graph(6), 2, 0, phys_dim=3), "random", 0.0, id="qutrit-cycle"),
    pytest.param(random_state(grid_graph(3, 4), 2, seed=6), "random", 0.3, id="grid-degrees-2-3-4"),
    pytest.param(random_state(Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)]), 2, seed=1),
                 "identity", 0.0, id="degrees-0-to-3"),
    pytest.param(random_state(Graph(3, []), 2, seed=0), "identity", 0.0, id="edgeless"),
]


@pytest.mark.parametrize("state,init,damping", SCREENED)
def test_screened_stop_rule_decides_like_the_exact_one(state, init, damping):
    cfg = BpConfig(max_steps=120, rdm_tolerance=1e-9, damping=damping, init=init, init_seed=4)
    _, diag = run_bp(state, cfg, exact_deltas=False)
    converged, steps, stack, exact = exact_stop(state, cfg)
    assert (diag.converged, diag.steps_run) == (converged, steps)
    assert diag.env.msg_stack.shape == stack.shape and diag.env.msg_stack.tobytes() == stack.tobytes()
    # a screened step yields a lower bound that already exceeds the tolerance
    for screened, t in zip(diag.rdm_deltas, exact, strict=True):
        assert screened == t or cfg.rdm_tolerance < screened <= t


def test_screened_run_skips_all_but_a_few_eigensolves(monkeypatch):
    state = square_root_state(random_regular(40, 3, seed=0), 0.6)
    cfg = BpConfig(max_steps=300, rdm_tolerance=1e-9, init="random")
    calls, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    _, diag = run_bp(state, cfg, exact_deltas=False)
    assert diag.converged and diag.steps_run > 100
    assert len(calls) <= 5
    calls.clear()
    _, diag = run_bp(state, cfg)
    assert len(calls) == diag.steps_run


@given(st.sampled_from([2, 3]), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_frobenius_norm_bounds_the_trace_distance(d, rank1, rank2, seed):
    """F/2 <= T <= (d/2) F for the difference of two d^2 x d^2 density matrices, with sqrt(2) to spare below."""
    rng = np.random.default_rng(seed)
    rhos = []
    for rank in (rank1, rank2):
        shape = (d * d, min(rank, d * d))
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rhos.append(g @ g.conj().T / np.linalg.norm(g) ** 2)
    pair = [rho[None, None] for rho in rhos]  # one copy of one matrix
    (t,), f = _trace_distances(*pair), float(np.linalg.norm(rhos[0] - rhos[1]))
    assert 0.5 * f * np.sqrt(2) <= t * (1 + 1e-12)
    assert t <= 0.5 * d * f * (1 + 1e-12)
    assert _trace_distances(*pair, screen=0.5 * f * (1 - 1e-9))[0] <= t * (1 + 1e-12)
    assert _trace_distances(*pair, screen=0.5 * f * (1 + 1e-9)) == [t]


@pytest.mark.parametrize("beta", [20.0, 30.0, 300.0, 3000.0])
def test_square_root_state_converges_from_random_messages_at_large_beta(beta):
    # sqrt-sweep's BP settings; exp(beta / 2) overflows at beta 3000
    s = square_root_state(random_regular(40, 3, seed=3), beta, 1.0)
    msgs, diag = run_bp(s, BpConfig(max_steps=300, rdm_tolerance=1e-9, init="random", init_seed=0))
    assert diag.converged
    assert site_averaged_observables(s, msgs).mean_abs_z == pytest.approx(1.0, abs=1e-9)


def test_antiferromagnetic_square_root_state_at_beta_3000_has_unit_edge_matrix():
    s = square_root_state(random_regular(40, 3, seed=3), 3000.0, -1.0)
    assert all(np.isfinite(t).all() for t in s.site_tensors)
    t0, t1 = square_root_state(Graph(2, [(0, 1)]), 3000.0, -1.0).site_tensors
    np.testing.assert_array_equal(np.einsum("ak,bk->ab", t0, t1), [[0.0, 1.0], [1.0, 0.0]])


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


SWEEP_BETAS = (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)  # the benchmark's sqrt-sweep


def assert_same_run(together, alone):
    """Two ``run_bp`` results agree bit for bit: messages, step count, stop, deltas, final dtype and site averages."""
    (msgs, diag), (lone_msgs, lone_diag) = together, alone
    assert list(msgs) == list(lone_msgs)
    assert all(msgs[key].dtype == complex and msgs[key].tobytes() == lone_msgs[key].tobytes() for key in msgs)
    assert (diag.steps_run, diag.converged) == (lone_diag.steps_run, lone_diag.converged)
    assert (diag.rdm_deltas, diag.message_deltas) == (lone_diag.rdm_deltas, lone_diag.message_deltas)
    assert diag.env.msg_stack.dtype == lone_diag.env.msg_stack.dtype
    if diag.env.lay.phys_dim == 2:
        assert _site_averages(diag.env) == _site_averages(lone_diag.env)


@pytest.mark.parametrize("seed", [0, 3, 5, 8303])
def test_stacked_sweep_equals_lone_runs(seed):
    """sqrt-sweep's BP: every beta of the benchmark's sweep stacked, each copy leaving at its own stop step."""
    g = random_regular(40, 3, seed)
    states = [square_root_state(g, beta) for beta in SWEEP_BETAS]
    cfg = BpConfig(max_steps=300, rdm_tolerance=1e-9)
    runs = [(s, init_messages(s, "random", seed + i), f"beta={beta}: ") for i, (beta, s) in
            enumerate(zip(SWEEP_BETAS, states))]
    together = run_bp_stacked(runs, cfg, exact_deltas=False)
    assert len({diag.steps_run for _, diag in together}) > 1
    for i, (result, s) in enumerate(zip(together, states)):
        alone = run_bp(s, BpConfig(max_steps=300, rdm_tolerance=1e-9, init="random", init_seed=seed + i),
                       exact_deltas=False)
        assert_same_run(result, alone)
        assert result[1].converged and result[1].env.msg_stack.dtype == np.float64
        assert result[1].message_deltas == []  # a screened run keeps no message deltas


def test_mixed_stack_equals_lone_runs():
    """Copies of both kinds in one run: a square-root state whose random messages turn real at step 2, one whose
    identity messages are real from the start, a complex random state, and one that stops at ``max_steps``."""
    g = random_regular(40, 3, 0)
    runs = [(square_root_state(g, 0.2), "random", 1), (random_state(g, 2, seed=4), "random", 2),
            (square_root_state(g, 0.5), "random", 3), (graph_state(g), "identity", 0)]
    together = run_bp_stacked([(s, init_messages(s, init, seed), f"{i}: ") for i, (s, init, seed) in
                               enumerate(runs)], BpConfig(max_steps=60, rdm_tolerance=1e-9))
    alone = [run_bp(s, BpConfig(max_steps=60, rdm_tolerance=1e-9, init=init, init_seed=seed)) for s, init, seed in runs]
    for result, lone in zip(together, alone, strict=True):
        assert_same_run(result, lone)
    assert [diag.converged for _, diag in together] == [True, True, False, True]
    assert [diag.env.msg_stack.dtype for _, diag in together] == [np.float64, np.complex128, np.float64, np.float64]
    assert [diag.steps_run for _, diag in together] == [19, 43, 60, 1]
    assert [len(diag.message_deltas) for _, diag in together] == [19, 43, 60, 1]


@pytest.mark.parametrize("state", [square_root_state(random_regular(20, 3, seed=8), 0.4),
                                   graph_state(random_regular(20, 3, seed=8))], ids=["sqrt", "graph"])
@pytest.mark.parametrize("init", ["identity", "random"])
def test_real_states_end_in_real_arithmetic_and_hand_out_complex(state, init):
    msgs, diag = run_bp(state, BpConfig(max_steps=60, rdm_tolerance=1e-10, init=init, init_seed=2))
    assert diag.env.msg_stack.dtype == np.float64 and all(s.dtype == np.float64 for s in diag.env.stacks)
    assert all(m.dtype == np.complex128 for m in msgs.values())
    assert all(m.dtype == np.complex128 for m in bp_step(state, msgs).values())
    assert all(t.dtype == np.complex128 for t in diag.env.state.site_tensors)
    assert Environment(state, msgs).msg_stack.dtype == np.float64
    json_msgs = messages_from_json(messages_to_json(msgs))
    assert all(json_msgs[key].dtype == np.complex128 for key in msgs)


def test_stacked_failure_names_its_copy():
    g = random_regular(12, 3, seed=2)
    runs = [(square_root_state(g, beta), init_messages(square_root_state(g, beta), "random", 1), f"beta={beta}: ")
            for beta in (0.2, 0.5, 0.8)]
    dead = {key: np.zeros_like(m) for key, m in runs[1][1].items()}
    runs[1] = (runs[1][0], dead, runs[1][2])
    with pytest.raises(RuntimeError, match=r"^beta=0\.5: BP step 1: message 0->\d+ lost positivity \(trace=0\.0\)$"):
        run_bp_stacked(runs, BpConfig(max_steps=20))
