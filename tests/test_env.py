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
from sparsetn.bp import bp_iterate, bp_step, init_messages, rdm
from sparsetn.env import Environment, stacked
from sparsetn.graph import Graph, grid_graph, random_regular
from sparsetn.hamiltonian import Hamiltonian
from sparsetn.states import TensorNetworkState, random_state
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
    calls = {"_dress": 0, "_close": 0}
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
    assert calls == {"_dress": 4, "_close": 5}


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
    """At widths of 3 and more no pair is cheaper, so the result is bit for bit that of one matmul per leg."""
    for legs in range(6):
        for stack in (1, 5):
            t, msgs = dress_inputs((width,), legs, stack, (2, 3))
            expect = t
            for m in msgs:
                expect = expect.reshape(stack, 6, width, -1).swapaxes(2, 3).reshape(stack, -1, width) @ m
            assert np.array_equal(sparsetn.env._dress(t, msgs, 3), expect.reshape(t.shape))


def test_failures_name_the_message_or_sites():
    state, msgs, _ = mixed_state(0, 2)
    dead = {key: np.zeros_like(m) for key, m in msgs.items()}
    with pytest.raises(RuntimeError, match=r"^message 0->1 lost positivity \(trace=0\.0\)$"):
        bp_step(state, dead)
    with pytest.raises(RuntimeError, match=r"^reduced density matrix on \(2, 3\) has non-positive trace 0\.0$"):
        rdm(state, dead, (2, 3))


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
