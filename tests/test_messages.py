"""Message sets as one stack: ``Messages`` maps each directed edge to a view of its row.

``init_messages`` is pinned bit for bit to the dict-building reference kernel
on mixed degrees and bond dimensions, a state padded to a larger bond
dimension, an isolated vertex and qutrits. The mapping is read-only, iterates
in sorted directed-edge order like every message set the environments build,
pickles, and keeps the JSON form; a complex message set goes into an
environment, and back out of it, without being copied.
"""

import json
import pickle

import numpy as np
import pytest

import reference_kernels as ref
from sparsetn.bp import BpConfig, bp_step, init_messages, messages_to_json, run_bp
from sparsetn.env import Environment, Messages
from sparsetn.graph import Graph, grid_graph, random_regular
from sparsetn.hamiltonian import transverse_field_ising
from sparsetn.states import TensorNetworkState, random_state
from sparsetn.variational import SqrtInit, VarConfig, _build_initial_state, _descend


def isolated_vertex_state():
    """Degrees 2, 2, 3, 4, 2, 2, 1 and an isolated vertex, with bond dimensions 1, 2 and 3."""
    g = Graph(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (4, 5)])
    chis = {e: k % 3 + 1 for k, e in enumerate(g.edges)}
    rng = np.random.default_rng(4)
    return TensorNetworkState(g, [rng.standard_normal((2,) + tuple(chis[min(v, u), max(v, u)] for u in g.neighbors(v)))
                                  for v in range(g.n)], 2)


STATES = {
    "grid-degrees-2-3-4": lambda: random_state(grid_graph(3, 4), 3, seed=6),
    "padded-to-chi-3": lambda: _build_initial_state(random_regular(10, 3, seed=2), VarConfig(chi=3, init=SqrtInit(0.4)),
                                                    0, 2),
    "isolated-vertex": isolated_vertex_state,
    "qutrits": lambda: random_state(random_regular(8, 3, seed=4), 2, seed=1, phys_dim=3),
}
INITS = [("identity", 0)] + [("random", seed) for seed in range(3)]


@pytest.mark.parametrize("init,seed", INITS)
@pytest.mark.parametrize("name", STATES)
def test_init_messages_equal_the_dict_kernel_bit_for_bit(name, init, seed):
    state = STATES[name]()
    got, want = init_messages(state, init, seed), ref.init_messages(state, init, seed)
    assert isinstance(got, Messages) and sorted(got) == sorted(want)
    for key, m in want.items():
        assert got[key].dtype == m.dtype and got[key].shape == m.shape and got[key].tobytes() == m.tobytes(), key
    assert json.dumps(messages_to_json(got)) == json.dumps(messages_to_json(want))


def test_environment_messages_are_read_only_views_of_its_stack():
    state = random_state(random_regular(10, 3, seed=0), 2, seed=1)
    g, env = state.graph, Environment(state, init_messages(state, "random", 2)).step()
    msgs = env.msgs
    assert env.msg_stack.dtype == np.complex128
    assert all(np.shares_memory(m, env.msg_stack) for m in [msgs.stack, *msgs.values()])
    assert env.msg_stack.flags.writeable and not msgs.stack.flags.writeable
    assert len(msgs) == 2 * len(g.edges) == len(list(msgs))
    assert list(msgs) == sorted(g.directed_edges)
    # the parent's unpack: one view per directed edge, in sorted order
    unpacked = {e: env.msg_stack[g.directed_edge_index(*e), :2, :2] for e in sorted(g.directed_edges)}
    assert list(dict(msgs)) == list(unpacked)
    assert all(np.array_equal(m, unpacked[e]) for e, m in msgs.items())
    assert json.dumps(messages_to_json(msgs)) == json.dumps(messages_to_json(unpacked))
    edge = g.directed_edges[0]
    with pytest.raises(TypeError):
        msgs[edge] = np.eye(2)
    with pytest.raises(ValueError, match="read-only"):
        msgs[edge][0, 0] = 1.0
    non_edge = next((0, b) for b in range(1, g.n) if not g.has_edge(0, b))
    with pytest.raises(KeyError):
        msgs[non_edge]
    assert non_edge not in msgs and edge in msgs


def test_every_message_set_iterates_in_one_order():
    state = random_state(grid_graph(3, 4), 2, seed=6)
    msgs = init_messages(state)
    assert list(msgs) == list(bp_step(state, msgs)) == list(run_bp(state, BpConfig(max_steps=3))[0])


def test_pickle_round_trip_keeps_the_messages_and_their_stack():
    state = random_state(random_regular(12, 3, seed=3), 2, seed=0)
    msgs = bp_step(state, init_messages(state, "random", 1))
    back = pickle.loads(pickle.dumps(msgs))
    assert isinstance(back, Messages) and list(back) == list(msgs)
    assert all(back[e].tobytes() == m.tobytes() for e, m in msgs.items())
    assert not back.stack.flags.writeable
    assert np.shares_memory(Environment(state, back).msg_stack, back.stack)  # an equal graph, not the same object


def test_a_complex_message_set_enters_an_environment_as_it_is():
    """A ``Messages`` on the state's graph and bonds is the environment's stack; a plain dict of the same messages
    is padded to the same bytes."""
    real = isolated_vertex_state()
    state = real.with_site_tensors([t + 0.5j for t in real.site_tensors])
    msgs = init_messages(state, "random", 0)
    env = Environment(state, msgs)
    assert np.shares_memory(env.msg_stack, msgs.stack)
    assert Environment(state, dict(msgs)).msg_stack.tobytes() == msgs.stack.tobytes()


def test_a_message_set_off_the_layout_is_read_edge_by_edge():
    """A hand-built ``Messages`` whose stack has another dtype or shape than the state's bonds give, or nonzero entries
    outside the bonds' blocks, is checked and padded as a plain dict is, not taken as the environment's stack."""
    state = random_state(random_regular(8, 3, seed=1), 3, seed=1)
    msgs = init_messages(state, "random", 0)
    as_real = Messages(state.graph, msgs.chis, np.ascontiguousarray(msgs.stack.real))
    env = Environment(state, as_real)
    assert not np.shares_memory(env.msg_stack, as_real.stack)
    assert env.msg_stack.tobytes() == Environment(state, dict(as_real)).msg_stack.tobytes()
    a, b = state.graph.directed_edges[0]
    with pytest.raises(ValueError, match=rf"^message {a}->{b} has shape \(2, 2\) but its bond dimension is 3$"):
        Environment(state, Messages(state.graph, msgs.chis, msgs.stack[:, :2, :2]))
    padded = isolated_vertex_state()
    msgs = init_messages(padded, "random", 1)
    dirty = msgs.stack.copy()
    dirty[Environment(padded, msgs).lay.padding] = 5.0 + 2.0j
    env = Environment(padded, Messages(padded.graph, msgs.chis, dirty))
    assert not np.shares_memory(env.msg_stack, dirty) and env.msg_stack.tobytes() == msgs.stack.tobytes()


def test_descent_hands_its_final_messages_to_bp_unpacked():
    """``sweep`` warm-starts BP from each job's final messages: their stack is the one the descent ended on."""
    g = random_regular(8, 3, seed=0)
    traces = _descend(g, VarConfig(t_var=2), [(transverse_field_ising(g, hx), 1, "") for hx in (1.0, 3.0)])
    for trace in traces:
        assert isinstance(trace.final_messages, Messages)
        assert np.shares_memory(Environment(trace.final_state, trace.final_messages).msg_stack,
                                trace.final_messages.stack)
