"""The dressed-site-tensor layer against the plain-einsum reference kernels.

Inputs cover what the layer claims to support beyond the shipped models:
mixed vertex degrees with an isolated vertex, a different bond dimension on
every edge, a physical dimension of 3, and random complex Hermitian edge and
vertex terms (a real symmetric term cannot tell an operator from its
transpose). A hypothesis property test adds drawn trees, random regular
graphs and grids with a drawn bond dimension on every edge.
"""

import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
import sparsetn.env
from sparsetn.bp import BpConfig, _site_averages, bp_iterate, bp_step, init_messages, rdm, run_bp
from sparsetn.env import Environment, stacked
from sparsetn.graph import Graph, grid_graph, random_regular
from sparsetn.hamiltonian import Hamiltonian
from sparsetn.states import TensorNetworkState, graph_state, random_state, square_root_state
from sparsetn.variational import energy, energy_gradient

RTOL = 1e-12

# degrees 2, 2, 3, 4, 2, 2, 1, 0: two triangles, a leaf and an isolated vertex
EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (4, 5)]


def assert_matches(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    scale = np.max(np.abs(old))
    assert np.max(np.abs(new - old)) <= RTOL * scale, np.max(np.abs(new - old)) / scale


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a + a.conj().T


def mixed_state(seed, phys_dim):
    rng = np.random.default_rng(seed)
    g = Graph(8, EDGES)
    chis = {e: int(rng.integers(1, 4)) for e in g.edges}
    tensors = []
    for v in range(g.n):
        shape = (phys_dim,) + tuple(chis[(min(v, u), max(v, u))] for u in g.neighbors(v))
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    state = TensorNetworkState(g, tensors, phys_dim)
    h = Hamiltonian(
        graph=g,
        edge_terms={e: random_hermitian(rng, phys_dim**2) for e in g.edges},
        vertex_terms={a: random_hermitian(rng, phys_dim) for a in range(g.n)},
        phys_dim=phys_dim,
    )
    return state, init_messages(state, "random", seed=seed + 100), h


CASES = [(seed, d) for seed in (0, 1, 2) for d in (2, 3)]


@pytest.mark.parametrize("seed,d", CASES)
def test_bond_dimensions_are_mixed(seed, d):
    state, _, _ = mixed_state(seed, d)
    assert len(set(state.bond_dims.values())) > 1
    assert state.graph.degree(7) == 0


@pytest.mark.parametrize("seed,d", CASES)
@pytest.mark.parametrize("damping", [0.0, 0.3])
def test_messages_match_reference(seed, d, damping):
    state, msgs, _ = mixed_state(seed, d)
    new = bp_step(state, msgs, damping)
    old = ref.bp_step(state, msgs, damping)
    assert list(new) == list(old)
    for key in old:
        assert_matches(new[key], old[key])


@pytest.mark.parametrize("seed,d", CASES)
def test_rdms_match_reference(seed, d):
    state, msgs, _ = mixed_state(seed, d)
    g = state.graph
    site_sets = [(a,) for a in range(g.n)]
    site_sets += [e for e in g.edges] + [(b, a) for a, b in g.edges]
    site_sets += [(0, 1, 2), (1, 2, 3), (4, 3, 6), (3, 4, 5)]  # open paths and closed triangles
    for sites in site_sets:
        assert_matches(rdm(state, msgs, sites).matrix, ref.rdm(state, msgs, sites))


@pytest.mark.parametrize("seed,d", CASES)
def test_energy_and_gradient_match_reference(seed, d):
    state, msgs, h = mixed_state(seed, d)
    e_ref, g_ref = ref.energy_and_gradient(state, msgs, h)
    e_new = energy(state, msgs, h)
    assert type(e_new) is float
    assert abs(e_new - e_ref) <= RTOL * abs(e_ref)
    for new, old in zip(energy_gradient(state, msgs, h), g_ref):
        assert_matches(new, old)


@pytest.mark.parametrize("seed,d", CASES)
def test_bp_deltas_match_reference(seed, d):
    state, msgs, _ = mixed_state(seed, d)
    steps = list(islice(bp_iterate(state, msgs), 4))
    for (_, rdm_delta, msg_delta), (rdm_old, msg_old) in zip(steps, ref.run_bp_deltas(state, msgs, 4)):
        assert abs(rdm_delta - rdm_old) <= 1e-12 * max(rdm_old, 1e-3)
        assert abs(msg_delta - msg_old) <= 1e-12 * max(msg_old, 1e-3)


def test_one_dressed_layer_per_group(monkeypatch):
    """Gates, site blocks and the gradient of one message set dress each group of degree r >= 1 once, and close
    each group once: its gates, or the blocks of the isolated vertex."""
    state, msgs, h = mixed_state(0, 2)
    calls = {"_absorb": 0, "_close": 0}
    for name in calls:
        def counted(*args, name=name, real=getattr(sparsetn.env, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(sparsetn.env, name, counted)
    env = Environment(state, msgs)
    env.site_blocks
    env.energy(env.lay.terms(h), gradient=True)
    degrees = [r for _, r, *_ in env.lay.groups]
    assert sorted(degrees) == [0, 1, 2, 3, 4]
    assert calls == {"_absorb": 4, "_close": 5}


# uniform leg widths, then alternating mixed ones; an odd leg count leaves a pair followed by a single leg
DRESS_WIDTHS = [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (2, 3), (3, 1)]


def dress_inputs(widths, legs, stack, lead, seed=0):
    """A ``(stack, *lead, w_0, ..., w_{legs-1})`` stack and one message stack per trailing leg, widths cycled."""
    rng = np.random.default_rng(seed)
    ws = [widths[j % len(widths)] for j in range(legs)]
    t = rng.standard_normal((stack,) + lead + tuple(ws)) + 1j * rng.standard_normal((stack,) + lead + tuple(ws))
    msgs = [rng.standard_normal((stack, w, w)) + 1j * rng.standard_normal((stack, w, w)) for w in ws]
    return t, msgs


@pytest.mark.parametrize("widths", DRESS_WIDTHS)
@pytest.mark.parametrize("legs", range(6))
def test_dress_matches_one_einsum_per_leg(widths, legs):
    for stack in (1, 5):
        for lead in [(2,), (2, 3)]:
            t, msgs = dress_inputs(widths, legs, stack, lead)
            axis = 1 + len(lead)
            expect = t
            for j, m in enumerate(msgs):
                labels = list(range(t.ndim))
                out = labels[:axis + j] + [t.ndim] + labels[axis + j + 1:]
                expect = np.einsum(expect, labels, m, [0, axis + j, t.ndim], out)
            assert_matches(sparsetn.env._dress(t, msgs, axis), expect)


@pytest.mark.parametrize("width", [3, 4])
def test_dress_absorbs_wide_legs_one_at_a_time(width):
    """At widths of 3 and more no pair is cheaper, so the result is bit for bit that of one ``_mm`` per leg."""
    for legs in range(6):
        for stack in (1, 5):
            t, msgs = dress_inputs((width,), legs, stack, (2, 3))
            expect = t
            for m in msgs:
                rows = expect.reshape(stack, 6, width, -1).swapaxes(2, 3).reshape(stack, -1, width)
                expect = sparsetn.env._mm(rows, m)
            assert np.array_equal(sparsetn.env._dress(t, msgs, 3), expect.reshape(t.shape))


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# right-hand shapes the real form serves: 1x1 to 4x4, and 2x8 / 8x2 at its 16-entry bound
REAL_FORM_SHAPES = [(k, m) for k in range(1, 5) for m in range(1, 5)] + [(2, 8), (8, 2)]


@pytest.mark.parametrize("k,m", REAL_FORM_SHAPES)
def test_small_products_run_as_real_matmuls(k, m):
    """Right-hand matrices of at most 16 entries go through one real matmul and give the complex product, also from
    a ``swapaxes`` view of the right-hand stack, as ``_close`` and ``edge_blocks`` pass it."""
    rng = np.random.default_rng(10 * k + m)
    for stack in (1, 5):
        for rows in range(1, 17):
            a = complex_normal(rng, (stack, rows, k))
            for b in (complex_normal(rng, (stack, k, m)), complex_normal(rng, (stack, m, k)).swapaxes(1, 2)):
                expect = a @ b
                got = sparsetn.env._mm(a, b)
                assert got.shape == expect.shape and got.dtype == complex
                assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("k,m", [(1, 17), (17, 1), (2, 9), (5, 4), (4, 8), (16, 16)])
def test_larger_products_stay_complex_matmuls(k, m):
    rng = np.random.default_rng(k + m)
    for stack in (1, 5):
        a, b = complex_normal(rng, (stack, 3, k)), complex_normal(rng, (stack, k, m))
        assert np.array_equal(sparsetn.env._mm(a, b), a @ b)


def test_failures_name_the_message_or_sites():
    state, msgs, _ = mixed_state(0, 2)
    dead = {key: np.zeros_like(m) for key, m in msgs.items()}
    with pytest.raises(RuntimeError, match=r"^message 0->1 lost positivity \(trace=0\.0\)$"):
        bp_step(state, dead)
    with pytest.raises(RuntimeError, match=r"^reduced density matrix on \(2, 3\) has non-positive trace 0\.0$"):
        rdm(state, dead, (2, 3))


def test_messages_must_fit_their_bonds():
    """A message of another bond dimension than its bond's, or a missing one, raises naming the directed edge."""
    g = random_regular(8, 3, seed=1)
    (a, b), small, large = g.directed_edges[0], random_state(g, 2, seed=1), random_state(g, 3, seed=1)
    with pytest.raises(ValueError, match=rf"^message {a}->{b} has shape \(2, 2\) but its bond dimension is 3$"):
        run_bp(large, BpConfig(max_steps=5), msgs=init_messages(small))
    with pytest.raises(ValueError, match=rf"^message {a}->{b} has shape \(3, 3\) but its bond dimension is 2$"):
        Environment(small, dict(init_messages(large)))
    missing = dict(init_messages(small))
    del missing[b, a]
    with pytest.raises(ValueError, match=rf"^no message on directed edge {b}->{a}$"):
        bp_step(small, missing)


# Groups of many vertices: a random 3-regular graph is one group per bond
# dimension, a 4x5 grid has three (degrees 2, 3 and 4), and vertex terms sit on
# every third site only. High degrees: the star K_{1,6} (degrees 6 and 1) and
# random 5-regular graphs on 6, 8 and 10 vertices (n = 6 + 2 (seed mod 3)).
# No edges: seven isolated vertices, with no messages and no gates.
GROUPED = [("regular", 2, 0), ("regular", 3, 1), ("grid", 2, 2), ("star", 2, 3),
           ("regular5", 1, 3), ("regular5", 2, 10), ("regular5", 2, 8), ("edgeless", 1, 4)]
GROUP_SHAPES = {"regular": 1, "grid": 3, "star": 2, "regular5": 1, "edgeless": 1}


def grouped_state(kind, chi, seed):
    rng = np.random.default_rng(seed)
    if kind == "regular":
        g = random_regular(40, 3, seed=seed)
    elif kind == "regular5":
        g = random_regular(6 + 2 * (seed % 3), 5, seed=seed)
    elif kind == "star":
        g = Graph(7, [(0, v) for v in range(1, 7)])
    elif kind == "edgeless":
        g = Graph(7, [])
    else:
        g = grid_graph(4, 5)
    tensors = []
    for v in range(g.n):
        shape = (2,) + (chi,) * g.degree(v)
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    state = TensorNetworkState(g, tensors, 2)
    h = Hamiltonian(
        graph=g,
        edge_terms={e: random_hermitian(rng, 4) for e in g.edges},
        vertex_terms={a: random_hermitian(rng, 2) for a in range(0, g.n, 3)},
    )
    return state, init_messages(state, "random", seed=seed + 100), h


@pytest.mark.parametrize("kind,chi,seed", GROUPED)
def test_grouped_inputs_have_large_groups(kind, chi, seed):
    state, _, h = grouped_state(kind, chi, seed)
    shapes = [t.shape for t in state.site_tensors]
    assert max(shapes.count(s) for s in shapes) >= 6
    assert len(set(shapes)) == GROUP_SHAPES[kind]
    assert 0 < len(h.vertex_terms) < state.graph.n


@pytest.mark.parametrize("kind,chi,seed", GROUPED)
@pytest.mark.parametrize("damping", [0.0, 0.3])
def test_grouped_messages_match_reference(kind, chi, seed, damping):
    state, msgs, _ = grouped_state(kind, chi, seed)
    new = bp_step(state, msgs, damping)
    old = ref.bp_step(state, msgs, damping)
    assert list(new) == list(old)
    for key in old:
        assert_matches(new[key], old[key])


@pytest.mark.parametrize("kind,chi,seed", GROUPED)
def test_grouped_rdms_match_reference(kind, chi, seed):
    state, msgs, _ = grouped_state(kind, chi, seed)
    g = state.graph
    site_sets = [(a,) for a in range(g.n)] + list(g.edges) + [(b, a) for a, b in g.edges]
    for sites in site_sets:
        assert_matches(rdm(state, msgs, sites).matrix, ref.rdm(state, msgs, sites))


@pytest.mark.parametrize("kind,chi,seed", GROUPED)
def test_grouped_energy_and_gradient_match_reference(kind, chi, seed):
    state, msgs, h = grouped_state(kind, chi, seed)
    e_ref, g_ref = ref.energy_and_gradient(state, msgs, h)
    assert abs(energy(state, msgs, h) - e_ref) <= RTOL * abs(e_ref)
    for new, old in zip(energy_gradient(state, msgs, h), g_ref):
        assert_matches(new, old)


@pytest.mark.parametrize("kind,chi,seed", GROUPED)
def test_grouped_bp_deltas_match_reference(kind, chi, seed):
    state, msgs, _ = grouped_state(kind, chi, seed)
    steps = list(islice(bp_iterate(state, msgs), 4))
    for (_, rdm_delta, msg_delta), (rdm_old, msg_old) in zip(steps, ref.run_bp_deltas(state, msgs, 4)):
        assert abs(rdm_delta - rdm_old) <= 1e-12 * max(rdm_old, 1e-3)
        assert abs(msg_delta - msg_old) <= 1e-12 * max(msg_old, 1e-3)


def test_grouped_failures_name_the_first_edge_or_site():
    state, msgs, h = grouped_state("regular", 2, 0)
    g = state.graph
    dead = dict(msgs)
    for u in g.neighbors(7):
        dead[(u, 7)] = np.zeros_like(msgs[(u, 7)])
    first = min(g.neighbors(7))
    with pytest.raises(RuntimeError, match=rf"^message 7->{first} lost positivity \(trace=0\.0\)$"):
        bp_step(state, dead)
    edge = min(e for e in g.edges if 7 in e)
    with pytest.raises(RuntimeError, match=rf"^edge \({edge[0]}, {edge[1]}\): vanishing local norm$"):
        energy(state, dead, h)
    env = Environment(state, msgs)
    stacks = [s.copy() for s in env.stacks]
    stacks[0][env.lay.index_of[9]] = 0.0
    stacks[0][env.lay.index_of[30]] = np.nan
    with pytest.raises(ValueError, match=r"^site 9: tensor is identically zero$"):
        env.with_stacks(stacks)
    stacks[0][env.lay.index_of[4]] = np.inf
    with pytest.raises(ValueError, match=r"^site 4: non-finite entries$"):
        env.with_stacks(stacks)



def test_stacked_failures_name_their_copy_with_its_own_ids():
    state, msgs, h = grouped_state("regular", 2, 0)
    g = state.graph
    dead = dict(msgs)
    for u in g.neighbors(7):
        dead[(u, 7)] = np.zeros_like(msgs[(u, 7)])
    lone = Environment(state, dead)
    env = stacked([Environment(state, msgs), lone, lone], ["a: ", "b: ", "c: "])
    terms = [np.concatenate(arrays) for arrays in zip(*[env.lay.terms(h)] * 3)]
    for alone, together in [(lone.step, env.step), (lone.edge_rdms, env.edge_rdms),
                            (lambda: lone.energy(lone.lay.terms(h)), lambda: env.energy(terms))]:
        with pytest.raises(RuntimeError) as err:
            alone()
        with pytest.raises(RuntimeError, match=f"^b: {re.escape(str(err.value))}$"):
            together()
    stacks = [s.copy() for s in env.stacks]
    stacks[0][2 * len(lone.stacks[0]) + lone.lay.index_of[9]] = 0.0
    with pytest.raises(ValueError, match=r"^c: site 9: tensor is identically zero$"):
        env.with_stacks(stacks)


STACKED = [(mixed_state, case) for case in CASES] + [(grouped_state, case) for case in GROUPED]


@pytest.mark.parametrize("build,args", STACKED, ids=[f"{b.__name__}-{'-'.join(map(str, a))}" for b, a in STACKED])
def test_stacked_copies_equal_lone_environments(build, args):
    """Three copies under two message sets and two states compute bit for bit what each computes alone."""
    state, msgs, h = build(*args)
    conj = state.with_site_tensors([t.conj() for t in state.site_tensors])
    lone = [Environment(state, msgs), Environment(state, bp_step(state, msgs)), Environment(conj, msgs)]
    env = stacked(lone, ["a: ", "b: ", "c: "])
    totals, grads = env.energy([np.concatenate(arrays) for arrays in zip(*[env.lay.terms(h)] * 3)], gradient=True)
    together = [np.split(a, 3) for a in (env.step(0.3).msg_stack, env.site_rdms(), env.edge_rdms(), *grads)]
    for p, alone in enumerate(lone):
        (total,), alone_grads = alone.energy(alone.lay.terms(h), gradient=True)
        assert totals[p] == total
        arrays = (alone.step(0.3).msg_stack, alone.site_rdms(), alone.edge_rdms(), *alone_grads)
        assert len(arrays) == len(together)
        for a, parts in zip(arrays, together):
            assert np.array_equal(a, parts[p])


@st.composite
def drawn_networks(draw):
    """A random state on a drawn tree (n 2-12), 3-regular graph (n 6-14) or grid (2-4 x 2-4) with chi 1-3 per edge.

    Also random messages, a Hamiltonian with a term on every edge and site, and one site and one edge to query.
    """
    kind = draw(st.sampled_from(["tree", "regular", "grid"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "tree":
        n = draw(st.integers(2, 12))
        g = Graph(n, [(int(rng.integers(v)), v) for v in range(1, n)])
    elif kind == "regular":
        g = random_regular(draw(st.sampled_from([6, 8, 10, 12, 14])), 3, seed=seed)
    else:
        g = grid_graph(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    chis = {e: draw(st.integers(1, 3)) for e in g.edges}
    tensors = []
    for v in range(g.n):
        shape = (2,) + tuple(chis[(min(v, u), max(v, u))] for u in g.neighbors(v))
        tensors.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    state = TensorNetworkState(g, tensors, 2)
    h = Hamiltonian(
        graph=g,
        edge_terms={e: random_hermitian(rng, 4) for e in g.edges},
        vertex_terms={a: random_hermitian(rng, 2) for a in range(g.n)},
    )
    site = draw(st.integers(0, g.n - 1))
    edge = g.edges[draw(st.integers(0, len(g.edges) - 1))]
    return state, init_messages(state, "random", seed=seed), h, site, edge


@given(drawn_networks(), st.sampled_from([0.0, 0.3]))
@settings(max_examples=30, deadline=None)
def test_drawn_networks_match_reference(net, damping):
    state, msgs, h, site, edge = net
    new = bp_step(state, msgs, damping)
    old = ref.bp_step(state, msgs, damping)
    assert list(new) == list(old)
    for key in old:
        assert_matches(new[key], old[key])
    for sites in [(site,), edge]:
        assert_matches(rdm(state, msgs, sites).matrix, ref.rdm(state, msgs, sites))
    e_ref, g_ref = ref.energy_and_gradient(state, msgs, h)
    assert abs(energy(state, msgs, h) - e_ref) <= RTOL * max(abs(e_ref), 1.0)
    for new_grad, old_grad in zip(energy_gradient(state, msgs, h), g_ref, strict=True):
        assert_matches(new_grad, old_grad)


def test_stacked_environment_has_no_lone_state_or_messages():
    """A stack's state and messages are read per copy; reading them off the stack names the copy count."""
    state = random_state(random_regular(6, 3, seed=1), 2, seed=0)
    lone = Environment(state, init_messages(state, "random", 3))
    env = stacked([lone, lone], ["a: ", "b: "])
    with pytest.raises(ValueError, match=r"^a stack of 2 copies has no one state; read each via copies\(\)$"):
        env.state
    with pytest.raises(ValueError, match=r"^a stack of 2 copies has no one message set; read each via copies\(\)$"):
        env.msgs
    for copy in env.copies():
        assert all(np.array_equal(a, b) for a, b in zip(copy.state.site_tensors, state.site_tensors))
        assert all(np.array_equal(copy.msgs[e], lone.msgs[e]) for e in lone.msgs)


@pytest.mark.parametrize("kind", ["sqrt", "graph"])
@pytest.mark.parametrize("seed", [0, 1])
def test_real_layer_matches_reference(kind, seed):
    """A real state under real messages runs the layer in float64: its messages, RDMs, energy and gradient against
    the reference, on a 3-regular graph (seed 0) and a grid of degrees 2, 3 and 4 (seed 1)."""
    g = grid_graph(3, 4) if seed else random_regular(20, 3, seed=seed)
    state = square_root_state(g, 0.6) if kind == "sqrt" else graph_state(g)
    msgs = {key: m.real.astype(complex) for key, m in init_messages(state, "random", seed=seed).items()}
    env = Environment(state, msgs)
    assert env.msg_stack.dtype == np.float64 and all(s.dtype == np.float64 for s in env.stacks)
    for damping in (0.0, 0.3):
        new, old = bp_step(state, msgs, damping), ref.bp_step(state, msgs, damping)
        assert list(new) == list(old)
        for key in old:
            assert_matches(new[key], old[key])
    for a, rho in enumerate(env.site_rdms()):
        assert_matches(rho, ref.rdm(state, msgs, (a,)))
    for e, rho in zip(g.edges, env.edge_rdms(), strict=True):
        assert_matches(rho, ref.rdm(state, msgs, e))
    rng = np.random.default_rng(seed)
    h = Hamiltonian(graph=g, edge_terms={e: random_hermitian(rng, 4) for e in g.edges},
                    vertex_terms={a: random_hermitian(rng, 2) for a in range(0, g.n, 2)})
    e_ref, g_ref = ref.energy_and_gradient(state, msgs, h)
    assert abs(energy(state, msgs, h) - e_ref) <= RTOL * abs(e_ref)
    for new_grad, old_grad in zip(energy_gradient(state, msgs, h), g_ref, strict=True):
        assert_matches(new_grad, old_grad)


def two_copy_inputs(seed, real):
    """Two states on the mixed-degree graph (degrees 0-4) sharing a bond dimension of 1-4 per edge, their random
    messages and a Hamiltonian; real tensors and real-valued messages with ``real``."""
    rng = np.random.default_rng(seed)
    g = Graph(8, EDGES)
    chis = {e: int(rng.integers(1, 5)) for e in g.edges}
    assert {chis[e] for e in g.edges} == {1, 2, 3, 4} or seed != 0
    pairs = []
    for p in range(2):
        tensors = []
        for v in range(g.n):
            shape = (2,) + tuple(chis[(min(v, u), max(v, u))] for u in g.neighbors(v))
            tensors.append(rng.standard_normal(shape) + (0 if real else 1j) * rng.standard_normal(shape))
        state = TensorNetworkState(g, tensors, 2)
        msgs = init_messages(state, "random", seed=seed + 10 * p)
        pairs.append((state, {key: m.real.astype(complex) for key, m in msgs.items()} if real else msgs))
    h = Hamiltonian(graph=g, edge_terms={e: random_hermitian(rng, 4) for e in g.edges},
                    vertex_terms={a: random_hermitian(rng, 2) for a in range(g.n)})
    return pairs, h


def assert_same_environment(got, fresh, terms):
    """Ket layers, gates, site and edge blocks, energies and the gradient agree bit for bit."""
    arrays = lambda env: [ket for _, ket in env._kets] + [env._gates, env.site_blocks, env.edge_blocks]
    for a, b in zip(arrays(got), arrays(fresh), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    (totals, grads), (fresh_totals, fresh_grads) = got.energy(terms, True), fresh.energy(terms, True)
    assert totals == fresh_totals
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grads, fresh_grads, strict=True))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_handed_on_environments_equal_fresh_ones(seed, real):
    """A two-copy environment reached through ``with_stacks`` or ``step``, which hand on what the other input
    built, computes what one built fresh from the same site tensors and messages computes."""
    pairs, h = two_copy_inputs(seed, real)
    env = stacked([Environment(state, msgs) for state, msgs in pairs], ["a: ", "b: "])
    assert env.msg_stack.dtype == (np.float64 if real else np.complex128)
    terms = [np.concatenate(arrays) for arrays in zip(*[env.lay.terms(h)] * 2)]
    _, grads = env.energy(terms, gradient=True)
    moved = env.with_stacks([s - 0.01 * (gr.real if real else gr) for s, gr in zip(env.stacks, grads)])
    for got in (moved, env.step(0.3), moved.step(), moved.step().with_stacks(env.stacks)):
        fresh = stacked([Environment(copy.state, copy.msgs) for copy in got.copies()], ["a: ", "b: "])
        assert_same_environment(got, fresh, terms)


def test_descent_builds_the_message_operands_once(monkeypatch):
    """Ten gradient steps under one message set dress by the message-side operands of the first."""
    state, msgs, h = mixed_state(0, 2)
    calls = []
    monkeypatch.setattr(sparsetn.env, "_dressing", lambda *args, real=sparsetn.env._dressing: calls.append(1)
                        or real(*args))
    env = Environment(state, msgs)
    terms = env.lay.terms(h)
    for _ in range(10):
        _, grads = env.energy(terms, gradient=True)
        env = env.with_stacks([s - 0.01 * gr for s, gr in zip(env.stacks, grads)])
    env.energy(terms, gradient=True)
    assert len(calls) == len(env.lay.groups) == 5
    env.step().edge_blocks
    assert len(calls) == 10


def test_typing_follows_the_values_of_both_inputs():
    """Real stacks under complex messages stay complex, and a complex-typed message stack with no imaginary part
    turns real once the stacks do; either way the result equals a fresh environment of the same values."""
    g = random_regular(12, 3, seed=1)
    real_state, complex_state = square_root_state(g, 0.6), random_state(g, 2, seed=3)
    complex_msgs = init_messages(real_state, "random", seed=2)
    real_msgs = {key: m.real.astype(complex) for key, m in complex_msgs.items()}
    real_stacks = [s.real.copy() for s in Environment(real_state, real_msgs).stacks]
    for msgs, start, kind in [(complex_msgs, complex_state, np.complex128), (real_msgs, complex_state, np.float64)]:
        env = Environment(start, msgs)
        assert env.msg_stack.dtype == np.complex128
        got = env.with_stacks(real_stacks)
        assert got.msg_stack.dtype == kind and all(s.dtype == kind for s in got.stacks)
        assert got.edge_rdms().tobytes() == Environment(real_state, msgs).edge_rdms().tobytes()
        assert got.step().msg_stack.tobytes() == Environment(real_state, msgs).step().msg_stack.tobytes()


@pytest.mark.parametrize("kinds", [("complex", "complex"), ("real", "complex"), ("real", "real")])
def test_copies_share_the_stacks_gates_and_average_as_alone(kinds):
    """A copy of the stack's dtype reads the stack's gates and edge blocks; a copy whose own values are real is
    rebuilt real. Either way its site averages are those of a fresh lone environment, bit for bit."""
    g = random_regular(40, 3, 0)
    lone = []
    for p, kind in enumerate(kinds):
        state = square_root_state(g, 0.6) if kind == "real" else random_state(g, 2, seed=p)
        msgs = init_messages(state, "random", seed=p)
        lone.append((state, {key: m.real.astype(complex) for key, m in msgs.items()} if kind == "real" else msgs))
    env = stacked([Environment(state, msgs) for state, msgs in lone], ["a: ", "b: "])
    env.edge_rdms()
    for copy, (state, msgs), kind in zip(env.copies(), lone, kinds, strict=True):
        shared = kind == "complex" or "complex" not in kinds
        assert (copy.msg_stack.dtype == env.msg_stack.dtype) == shared
        for name in ("_gates", "edge_blocks"):
            assert (name in copy.__dict__ and np.shares_memory(copy.__dict__[name], env.__dict__[name])) == shared
        assert _site_averages(copy) == _site_averages(Environment(state, msgs))


def test_bp_steps_gather_no_leg0_messages():
    """A BP step's gates and edge blocks read no leg-0 message; the descent's ``with_stacks`` hands them on."""
    state, msgs, h = mixed_state(0, 2)
    env = Environment(state, msgs).step()
    env.edge_rdms()
    assert "_leg0" not in env.__dict__
    moved = env.with_stacks([s.copy() for s in env.stacks])
    assert moved.__dict__["_leg0"] is env.__dict__["_leg0"]
    moved.energy(env.lay.terms(h), gradient=True)
    assert moved._leg0 is env._leg0
