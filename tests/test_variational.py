import dataclasses
import re

import numpy as np
import pytest

from sparsetn import variational
from sparsetn.bp import BpConfig, bp_step, init_messages, run_bp, site_averaged_observables
from sparsetn.graph import Graph, build_tree, cycle_graph, random_regular
from sparsetn.hamiltonian import Hamiltonian, mixed_field_ising, transverse_field_ising
from sparsetn.oracles import exact_diagonalize, hamiltonian_matrix
from sparsetn.states import product_state, random_state, to_statevector
from sparsetn.variational import (
    ProductInit,
    RandomInit,
    SqrtInit,
    StepSizeError,
    VarConfig,
    energy,
    energy_gradient,
    _derived_seed,
    sweep,
    variational_prepare,
)


def p2():
    return Graph(2, [(0, 1)])


def plus_state(g):
    return product_state(g, np.array([1.0, 1.0]) / np.sqrt(2.0))


def converged_messages(state, tol=1e-12, steps=200):
    msgs, diag = run_bp(state, BpConfig(max_steps=steps, rdm_tolerance=tol))
    return msgs


class TestEnergy:
    def test_plus_product_under_tfim(self):
        g = random_regular(8, 3, seed=0)
        s = plus_state(g)
        h = transverse_field_ising(g, 1.7)
        e = energy(s, init_messages(s, "identity"), h)
        assert e == pytest.approx(-g.n * 1.7, abs=1e-10)

    def test_all_zero_product_under_tfim(self):
        g = random_regular(8, 3, seed=0)
        s = product_state(g, [1.0, 0.0])
        h = transverse_field_ising(g, 1.7)
        e = energy(s, init_messages(s, "identity"), h)
        assert e == pytest.approx(-len(g.edges), abs=1e-10)

    def test_tree_energy_matches_statevector_rayleigh(self):
        g = build_tree(10, 2)
        s = random_state(g, 2, seed=1)
        h = mixed_field_ising(g, -1.0, -2.0, -0.5)
        msgs = converged_messages(s)
        e_bp = energy(s, msgs, h)
        v = to_statevector(s)
        e_exact = float(np.real(np.vdot(v, hamiltonian_matrix(h) @ v)))
        assert abs(e_bp - e_exact) < 1e-9

    def test_site_tensor_rescale_is_gauge(self):
        g = random_regular(8, 3, seed=2)
        s = random_state(g, 2, seed=3)
        h = transverse_field_ising(g, 0.9)
        msgs = converged_messages(s, tol=1e-10)
        e1 = energy(s, msgs, h)
        tensors = list(s.site_tensors)
        tensors[3] = 2.0 * tensors[3]  # power of two: exact in floating point
        e2 = energy(s.with_site_tensors(tensors), msgs, h)
        assert e1 == e2

    def test_graph_mismatch_raises(self):
        g1, g2 = random_regular(6, 3, seed=1), random_regular(6, 3, seed=4)
        s = plus_state(g1)
        with pytest.raises(ValueError):
            energy(s, init_messages(s, "identity"), transverse_field_ising(g2, 1.0))

    @pytest.mark.parametrize("h_graph,s_graph", [
        (cycle_graph(3), Graph(5, [(0, 1), (0, 2), (1, 2)])),
        (cycle_graph(5), cycle_graph(4)),
    ], ids=["extra-isolated-vertices", "longer-cycle"])
    def test_graph_mismatch_is_named_on_every_entry_point(self, h_graph, s_graph):
        h = transverse_field_ising(h_graph, 1.0)
        s = plus_state(s_graph)
        msgs = init_messages(s, "identity")
        message = r"^hamiltonian and state live on different graphs$"
        for run in (lambda: energy(s, msgs, h), lambda: energy_gradient(s, msgs, h),
                    lambda: variational_prepare(s_graph, h, VarConfig(t_var=1))):
            with pytest.raises(ValueError, match=message):
                run()

    def test_phys_dim_mismatch_is_named(self):
        g = cycle_graph(4)
        h = Hamiltonian(graph=g, edge_terms={e: np.eye(9) for e in g.edges}, phys_dim=3)
        s = plus_state(g)
        msgs = init_messages(s, "identity")
        message = r"^hamiltonian has phys_dim 3 but the state has 2$"
        for run in (lambda: energy(s, msgs, h), lambda: energy_gradient(s, msgs, h),
                    lambda: variational_prepare(g, h, VarConfig(t_var=1))):
            with pytest.raises(ValueError, match=message):
                run()


class TestGradient:
    def test_zero_hamiltonian_gives_zero_gradient(self):
        g = random_regular(6, 3, seed=5)
        s = random_state(g, 2, seed=6)
        h = mixed_field_ising(g, 0.0, 0.0, 0.0)
        grads = energy_gradient(s, init_messages(s, "random", seed=1), h)
        assert max(np.max(np.abs(gr)) for gr in grads) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_central_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        g = random_regular(8, 3, seed=seed)
        s = random_state(g, 2, seed=seed + 10)
        h = mixed_field_ising(g, -1.0, -2.0, -0.5)
        msgs = init_messages(s, "random", seed=seed)
        for _ in range(3):
            msgs = bp_step(s, msgs)
        grads = energy_gradient(s, msgs, h)
        eps = 1e-6
        for _ in range(3):
            site = int(rng.integers(0, g.n))
            idx = tuple(int(rng.integers(0, d)) for d in s.site_tensors[site].shape)
            for direction in (1.0, 1.0j):
                up = [t.copy() for t in s.site_tensors]
                dn = [t.copy() for t in s.site_tensors]
                up[site][idx] += eps * direction
                dn[site][idx] -= eps * direction
                fd = (energy(s.with_site_tensors(up), msgs, h)
                      - energy(s.with_site_tensors(dn), msgs, h)) / (2 * eps)
                grad_part = grads[site][idx]
                analytic = 2 * grad_part.real if direction == 1.0 else 2 * grad_part.imag
                assert abs(fd - analytic) <= 1e-4 * max(abs(fd), abs(analytic), 1e-9)

    def test_stationary_at_product_field_ground_state(self):
        # pure-field model: the exact ground state is a product state, and the
        # fixed-message gradient vanishes there. (For entangled ground states
        # the fixed-message functional is NOT stationary even on trees: the
        # frozen messages drop the dependence of distant normalized terms on
        # the local tensor, which is the algorithm's documented bias.)
        g = build_tree(7, 2)
        h = mixed_field_ising(g, 0.0, -1.3, -0.7)
        w, v = np.linalg.eigh(-1.3 * np.array([[0.0, 1.0], [1.0, 0.0]]) - 0.7 * np.diag([1.0, -1.0]))
        s = product_state(g, v[:, 0])
        msgs = converged_messages(s)
        grads = energy_gradient(s, msgs, h)
        assert max(np.linalg.norm(gr) for gr in grads) < 1e-10
        ed = exact_diagonalize(h)
        assert energy(s, msgs, h) == pytest.approx(ed.e0, abs=1e-10)

    def test_stationary_at_classical_ground_state_on_tree(self):
        g = build_tree(7, 2)
        s = product_state(g, [1.0, 0.0])
        h = transverse_field_ising(g, 0.0)
        msgs = converged_messages(s)
        grads = energy_gradient(s, msgs, h)
        assert max(np.linalg.norm(gr) for gr in grads) < 1e-10


class TestVariationalPrepare:
    def test_zero_hamiltonian_flat_trace(self):
        g = random_regular(6, 3, seed=7)
        h = mixed_field_ising(g, 0.0, 0.0, 0.0)
        trace = variational_prepare(g, h, VarConfig(t_var=3, chi=2, init=ProductInit()))
        assert trace.energies == [0.0, 0.0, 0.0]

    def test_benchmark_converges_to_exact_ground_state(self):
        g = random_regular(10, 3, seed=1)
        h = mixed_field_ising(g, -1.0, -2.0, -0.5)
        cfg = VarConfig(t_var=100, t_bp=5, n_gd=10, gamma=0.01, chi=2,
                        init=ProductInit(), init_noise=1e-2, noise_seed=0)
        trace = variational_prepare(g, h, cfg)
        ed = exact_diagonalize(h)
        rel = (trace.energies[-1] - ed.e0) / abs(ed.e0)
        assert 0 <= rel < 1e-2
        assert len(trace.energies) == 100
        assert trace.final_state is not None and trace.final_messages is not None

    def test_huge_step_size_aborts(self):
        g = random_regular(10, 3, seed=1)
        h = mixed_field_ising(g, -1.0, -2.0, -0.5)
        cfg = VarConfig(t_var=50, gamma=5.0, chi=2, init=ProductInit(), noise_seed=0)
        with pytest.raises(StepSizeError):
            variational_prepare(g, h, cfg)

    def test_deep_paramagnet_reaches_field_energy(self):
        # at hx = 10 the prepared energy lands on the field-dominated value;
        # the remaining pair-correlation energy (about 4e-3 of the total) is
        # below the reach of the fixed-message gradient on this loopy graph
        g = random_regular(10, 3, seed=1)
        hx = 10.0
        h = transverse_field_ising(g, hx)
        cfg = VarConfig(t_var=60, chi=2, init=ProductInit(), init_noise=1e-2, noise_seed=0)
        trace = variational_prepare(g, h, cfg)
        ed = exact_diagonalize(h)
        assert abs(trace.energies[-1] - (-g.n * hx)) / (g.n * hx) <= 1e-3
        assert trace.energies[-1] >= ed.e0 - 1e-6

    def test_tfim_spin_flip_leaves_energy_invariant(self):
        g = random_regular(10, 3, seed=2)
        h = transverse_field_ising(g, 2.0)
        cfg = VarConfig(t_var=20, chi=2, init=ProductInit(), init_noise=1e-2, noise_seed=3)
        trace = variational_prepare(g, h, cfg)
        s = trace.final_state
        msgs = trace.final_messages
        flipped = s.with_site_tensors([np.tensordot(np.array([[0.0, 1.0], [1.0, 0.0]]), t, axes=(1, 0))
                                       for t in s.site_tensors])
        assert abs(energy(s, msgs, h) - energy(flipped, msgs, h)) < 1e-9

    def test_ferromagnet_lands_in_degenerate_ground_space(self):
        # below the transition the prepared state is an uncontrolled mixture
        # of the two quasi-degenerate sector states: the ground-space weight
        # is near 1 while the overlap with either eigenvector alone is not
        from sparsetn.oracles import fidelity, ground_space_overlap

        g = random_regular(10, 3, seed=4)
        h = transverse_field_ising(g, 0.5)
        cfg = VarConfig(t_var=60, chi=2, init=ProductInit(), init_noise=1e-2, noise_seed=2)
        trace = variational_prepare(g, h, cfg)
        ed = exact_diagonalize(h)
        assert ed.e1 - ed.e0 < 0.05  # quasi-degenerate sectors
        assert ground_space_overlap(trace.final_state, ed) > 0.95
        assert fidelity(trace.final_state, ed.v0) < 0.9

    def test_sqrt_and_random_inits_run(self):
        g = random_regular(8, 3, seed=3)
        h = transverse_field_ising(g, 1.0)
        for init in (SqrtInit(beta=0.2), RandomInit(seed=5)):
            trace = variational_prepare(g, h, VarConfig(t_var=2, chi=2, init=init, noise_seed=1))
            assert len(trace.energies) == 2

    def test_init_errors_are_named(self):
        g = cycle_graph(4)
        h = transverse_field_ising(g, 1.0)
        with pytest.raises(ValueError, match=r"^requested chi 1 below the initial state's bond dimension 2$"):
            variational_prepare(g, h, VarConfig(t_var=1, chi=1, init=SqrtInit(beta=0.5)))
        with pytest.raises(ValueError, match=r"^unsupported init spec 'plus'$"):
            variational_prepare(g, h, VarConfig(t_var=1, init="plus"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VarConfig(t_var=0)
        with pytest.raises(ValueError):
            VarConfig(gamma=0.0)
        with pytest.raises(ValueError):
            VarConfig(chi=0)


class TestSweep:
    def test_limits_and_determinism(self):
        g = random_regular(10, 3, seed=4)
        cfg = VarConfig(t_var=40, chi=2, init=ProductInit(), init_noise=1e-2)
        pts = sweep(g, [0.5, 4.0], cfg, restarts=2, base_seed=11)
        assert [(p.hx, p.restart) for p in pts] == [(0.5, 0), (0.5, 1), (4.0, 0), (4.0, 1)]
        ferro = [p for p in pts if p.hx == 0.5]
        para = [p for p in pts if p.hx == 4.0]
        assert all(p.mean_abs_z > 0.9 for p in ferro)
        assert all(p.mean_abs_z < 0.1 for p in para)
        assert all(p.mean_x > 0.9 for p in para)
        pts2 = sweep(g, [0.5, 4.0], cfg, restarts=2, base_seed=11)
        for a, b in zip(pts, pts2):
            assert a.energy == b.energy and a.noise_seed == b.noise_seed

    def test_energy_density_is_energy_over_sites(self):
        g = random_regular(6, 3, seed=5)
        cfg = VarConfig(t_var=5, chi=1, init=ProductInit())
        pts = sweep(g, [1.0], cfg, restarts=1, base_seed=0)
        assert pts[0].energy_density == pytest.approx(pts[0].energy / g.n)

    @pytest.mark.parametrize("n,n_hx,restarts,sizes", [
        (1000, 15, 1, [3, 4, 4, 4]),  # 16,000 padded entries a copy: at most 4 copies per descent
        (40, 10, 3, [30]),  # criterion 6's sweep stays one descent
    ])
    def test_chunk_size_follows_the_graph(self, monkeypatch, n, n_hx, restarts, sizes):
        chunks = []

        def record(g, cfg, base_seed, jobs):
            chunks.append(jobs)
            return []

        monkeypatch.setattr(variational, "_sweep_points", record)
        hxs = [0.5 * (k + 1) for k in range(n_hx)]
        assert sweep(random_regular(n, 3, seed=0), hxs, VarConfig(chi=2), restarts) == []
        assert [len(c) for c in chunks] == sizes
        assert [job for c in chunks for job in c] == [(hx, i, r) for i, hx in enumerate(hxs) for r in range(restarts)]

    def test_summary_failure_names_its_job(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("BP step 2: boom")

        monkeypatch.setattr(variational, "run_bp", fail)
        g = random_regular(6, 3, seed=5)
        with pytest.raises(RuntimeError, match=r"^hx=0\.5, restart=0: BP step 2: boom$"):
            sweep(g, [0.5, 1.5], VarConfig(t_var=1, chi=1), restarts=2)

    @pytest.mark.parametrize("chi", [1, 2])
    def test_stacked_jobs_equal_lone_runs(self, chi):
        # degrees 3, 2 and 1, and the isolated vertex 6
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)])
        cfg = VarConfig(t_var=6, chi=chi, init=ProductInit(), init_noise=1e-2)
        pts = sweep(g, [0.5, 2.5], cfg, restarts=2, base_seed=3)
        assert [(p.hx, p.restart) for p in pts] == [(0.5, 0), (0.5, 1), (2.5, 0), (2.5, 1)]
        for p in pts:
            h = transverse_field_ising(g, p.hx)
            trace = variational_prepare(g, h, dataclasses.replace(cfg, noise_seed=p.noise_seed))
            msgs, diag = run_bp(trace.final_state, BpConfig(), msgs=trace.final_messages)
            obs = site_averaged_observables(trace.final_state, msgs)
            e = energy(trace.final_state, msgs, h)
            assert (p.mean_abs_z, p.mean_x, p.mean_zz, p.energy, p.energy_density, p.bp_converged) == (
                obs.mean_abs_z, obs.mean_x, obs.edge_zz, e, e / g.n, diag.converged)
            for name in ("energies", "mean_abs_z", "mean_x", "mean_zz"):
                assert getattr(p.trace, name) == getattr(trace, name)
            for new, old in zip(p.trace.final_state.site_tensors, trace.final_state.site_tensors, strict=True):
                assert np.array_equal(new, old)
            assert list(p.trace.final_messages) == list(trace.final_messages)
            for key, m in trace.final_messages.items():
                assert np.array_equal(p.trace.final_messages[key], m)

    @pytest.mark.parametrize("hxs,steps,first", [
        ([0.5, 3.5], [2, 2], 0),  # both restarts at hx=3.5 rise at inner step 2: the lower index is named
        ([0.5, 2.0, 3.5], [7, 4], 1),  # restart 1 rises first, at inner step 4
    ])
    def test_step_size_error_names_the_first_job_to_rise(self, hxs, steps, first):
        g = random_regular(10, 3, seed=1)
        cfg = VarConfig(t_var=1, gamma=0.2, chi=2, init=ProductInit())
        lone = []
        for r in range(2):
            seed = _derived_seed(0, len(hxs) - 1, r)
            with pytest.raises(StepSizeError) as err:
                variational_prepare(g, transverse_field_ising(g, 3.5), dataclasses.replace(cfg, noise_seed=seed))
            lone.append(str(err.value))
        assert [int(re.search(r"at inner step (\d+);", text).group(1)) for text in lone] == steps
        with pytest.raises(StepSizeError) as err:
            sweep(g, hxs, cfg, restarts=2)
        assert str(err.value) == f"hx=3.5, restart={first}: {lone[first]}"


@pytest.mark.parametrize("run,error", [
    (lambda: VarConfig(init_noise=-1e-3), "init_noise must be >= 0"),
    (lambda: sweep(cycle_graph(4), [1.0], VarConfig(t_var=1), restarts=0), "restarts must be >= 1"),
    (lambda: sweep(cycle_graph(4), [1.0], VarConfig(t_var=1), restarts=1, workers=0), "workers must be >= 1"),
], ids=["init-noise", "restarts", "workers"])
def test_input_checks_name_the_problem(run, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        run()
