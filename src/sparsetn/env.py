"""The dressed site tensor: one contraction layer for every local quantity.

A site's *ket layer* is its tensor with the incoming messages absorbed on
every leg but the open ones; a message ``m[x, x']`` takes the ket bond index
``x`` to the bra bond index ``x'``. The *gate* of a directed edge ``i -> j``
is the ket layer of ``i`` open towards ``j`` contracted with the conjugate
site tensor, with axes (ket phys, bra phys, ket bond, bra bond). The new
message ``i -> j`` is its physical trace. The one-site block of a vertex is
its leg-0 gate closed with the message coming in on that leg; the two-site
block on (a, b) is gate(a -> b) times gate(b -> a) over the shared bond. A
term's value is tr(block h) / tr(block), and its gradient at fixed messages is
the ket layer applied to (h - e) / tr(block): an edge term through the
environment of each of its directed edges, a site term through that of its
vertex's leg-0 edge.

All of it is batched. Bonds are zero-padded to the largest bond dimension,
which changes no contraction, and the site tensors of each vertex degree r are
stacked into one ``(G, d, chi, ..., chi)`` array; messages and gates are
arrays indexed by directed edge. A group's ket layers are leg-stacked rows: r
copies of the stack, copy l with leg l moved first, dressed together by at
most r - 1 contiguous matmuls, one per leg or per pair of legs. Gates, blocks,
environments and gradients are reshaped batched matmuls, so a group costs a
fixed number of numpy calls whatever r is. An environment computes in float64
when no site tensor and no message of any copy has an imaginary part, else in
complex128; every way to build one (``Environment``, ``step``, ``with_stacks``,
``stacked``, ``copies``) decides from the values, so BP on a real state turns
real at the first step whose messages are real. The states and messages it
hands out (``state``, ``msgs``) stay complex128. Every product of the layer
follows ``_mm``: a real one is a plain matmul, and a complex one whose
right-hand matrices have at most 16 entries (on a 3-regular graph at chi = 2
and d = 2, every one) runs as a real matmul, which numpy does several times
faster than a complex one at these sizes; the rule reads only each matrix's
shape and dtype, so a stacked copy keeps its lone bits as long as the stack
holds copies of one kind. Each operand is built on first use, once per value
of what it reads. ``_incoming`` (per group, the gathered incoming messages, pair-merged and in ``_mm``'s form) and
``_leg0`` (the leg-0 messages, which BP steps never read) read only the messages; ``with_stacks`` hands both on.
``_rows`` reads only the stacks; ``step`` hands it on. Each rescans only the input it replaces for an imaginary part.
``copies`` hands a copy of the stack's dtype views of its gates and edge blocks.
Runs on one graph can share an environment as copies, as offsets within the lone graph's layout: copy p's vertex
ids are shifted by p * n and its directed-edge ids by p * 2m. Each copy's values are exactly those of a lone run,
energies are summed per copy, and errors name the copy and use its own ids.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import cached_property, lru_cache

import numpy as np

from .states import TensorNetworkState

__all__ = ["Environment", "Messages", "site_gate", "stacked", "unit_trace"]

RDM_ERROR = "reduced density matrix on {} has non-positive trace {tr}"


def unit_trace(mats, labels, error: str, names=("",)):
    """Hermitize a stack of square matrices and scale each to unit trace.

    ``labels`` label the matrices of one copy, and the stack holds one copy per
    name. A non-finite or non-positive trace raises ``RuntimeError`` with
    ``names[p] + error.format(*labels[i], tr=trace)`` for the lowest such (p, label), and p as its ``copy``.
    """
    mats = 0.5 * (mats + mats.conj().swapaxes(-1, -2))
    tr = np.trace(mats, axis1=-2, axis2=-1).real
    ok = np.isfinite(tr) & (tr > 0.0)
    if not ok.all():
        p, i = min((divmod(k, len(labels)) for k in np.flatnonzero(~ok)), key=lambda pi: (pi[0], labels[pi[1]]))
        err = RuntimeError(names[p] + error.format(*labels[i], tr=tr[p * len(labels) + i]))
        err.copy = p
        raise err
    return mats / tr[:, None, None]


def _pad(arrays, shape):
    """The arrays zero-padded to ``shape`` and stacked, with one store per distinct shape."""
    out, by_shape = np.zeros((len(arrays),) + shape, dtype=complex), {}
    for i, a in enumerate(arrays):
        by_shape.setdefault(np.shape(a), []).append(i)
    for s, ids in by_shape.items():
        out[(ids,) + tuple(map(slice, s))] = np.array([arrays[i] for i in ids])
    return out


@lru_cache(maxsize=None)
def _moved(ndim, source, destination):
    """The axis order of ``np.moveaxis(a, source, destination)`` for an ``ndim``-axis ``a``."""
    order = [ax for ax in range(ndim) if ax != source]
    order.insert(destination, source)
    return tuple(order)


def _has_imag(arrays) -> bool:
    """Whether any of ``arrays`` holds a nonzero imaginary part."""
    return any(a.dtype == complex and a.imag.any() for a in arrays)


def _typed(stacks, msg_stack, real: bool):
    """``(stacks, msg_stack)`` all in float64 if ``real``, else all in complex128."""
    arrays = [msg_stack, *stacks]
    if all((a.dtype == complex) != real for a in arrays):
        return stacks, msg_stack
    arrays = [a.real.copy() if real else a.astype(complex, copy=False) for a in arrays]
    return arrays[1:], arrays[0]


def _operand(b, dtype):
    """The ``(B, k, m)`` stack ``b`` as ``_mm`` multiplies a left side of ``dtype`` by it: for complex ``dtype`` and
    k * m <= 16 the float64 ``(B, 2k, 2m)`` stack of its entries' real blocks [[re, im], [-im, re]], else ``b``."""
    k, m = b.shape[1:]
    if dtype != complex or k * m > 16:
        return b
    e = np.empty((len(b), k, 2, m), dtype=complex)
    e[:, :, 0], e[:, :, 1] = b, 1j * b
    return e.view(float).reshape(len(b), 2 * k, 2 * m)


def _mm(a, b):
    """``a @ b`` for stacks ``(B, p, k) @ (B, k, m)``: plain for real ``a``; for complex ``a`` with k * m <= 16 as one
    real matmul, ``a`` read as (re, im) pairs and each entry of ``b`` as the real block [[re, im], [-im, re]]."""
    return _times(a, _operand(b, a.dtype))


def _times(a, op):
    """``a @ b`` for stacks ``a`` and ``op = _operand(b, a.dtype)``."""
    return (a.view(float) @ op).view(complex) if op.shape[1] > a.shape[2] else a @ op


def _dress(t, msgs, axis):
    """Absorb ``msgs[j]`` on axis ``axis + j`` of every tensor of the stack ``t``, for j in order: its trailing legs."""
    return _absorb(t, _dressing(msgs, t.dtype), axis)


def _dressing(msgs, dtype) -> list:
    """The ``(width, _operand)`` steps by which ``_absorb`` dresses a stack of ``dtype`` with ``msgs``: two legs of
    widths a and b through the Kronecker product of their messages exactly when that costs no more multiply-adds than
    one at a time (ab <= a + b: both are 2, or one is 1), else one leg."""
    steps, j = [], 0
    while j < len(msgs):
        m = msgs[j]
        if j + 1 < len(msgs) and m.shape[1] * msgs[j + 1].shape[1] <= m.shape[1] + msgs[j + 1].shape[1]:
            b, j = msgs[j + 1], j + 1
            m = (m[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(m), m.shape[1] * b.shape[1], -1)
        steps.append((m.shape[1], _operand(m, dtype)))
        dtype, j = np.result_type(dtype, m.dtype), j + 1
    return steps


def _absorb(t, steps, axis):
    """The stack ``t`` dressed on its legs from axis ``axis`` on by ``steps``, each one contiguous matmul."""
    n, shape, lead = len(t), t.shape, math.prod(t.shape[1:axis])
    for width, op in steps:
        t = _times(t.reshape(n, lead, width, -1).swapaxes(2, 3).reshape(n, -1, width), op)
    return t.reshape(shape)


def _close(ket, bra, k):
    """Contract each ket layer of a stack with the conjugated layer ``bra`` over all but the first ``k`` bond axes.

    Both are ``(B, d, open..., closed...)``. Axes of the result: ket phys, bra phys, then a (ket, bra) bond pair
    per open leg.
    """
    n, d, opened = bra.shape[0], bra.shape[1], bra.shape[2:2 + k]
    rows = d * math.prod(opened)
    gate = _mm(ket.reshape(n, rows, -1), bra.reshape(n, rows, -1).swapaxes(1, 2))
    perm = [0, 1, 2 + k] + [ax for l in range(k) for ax in (2 + l, 3 + k + l)]
    return gate.reshape((n, d) + opened + (d,) + opened).transpose(perm)


def site_gate(t, in_msgs, open_legs=()):
    """Site tensor times its conjugate, dressed with ``in_msgs[l]`` on every leg ``l`` not in ``open_legs``.

    Axes of the result: ket phys, bra phys, then a (ket, bra) bond pair per
    open leg, in the order given.
    """
    closed = [l for l in range(len(in_msgs)) if l not in open_legs]
    t = t[None].transpose([0, 1] + [2 + l for l in open_legs] + [2 + l for l in closed])
    return _close(_dress(t, [in_msgs[l][None] for l in closed], 2 + len(open_legs)), t.conj(), len(open_legs))[0]


class _Layout:
    """Vertex groups and padding of one graph and one set of site-tensor shapes, in one copy per name, copy after
    copy as ``stacked`` concatenates them: copy p's vertex and directed-edge ids are shifted by p * n and p * 2m."""

    def __init__(self, graph, shapes, names):
        de, copies = graph.directed_edges, len(names)
        self.graph, self.shapes, self.names, self.phys_dim = graph, shapes, names, shapes[0][0]
        self.chis = [shapes[a][1 + graph.leg(a, b)] for a, b in de]
        self.chi = max(self.chis, default=1)
        outside = np.arange(self.chi) >= np.array(self.chis, dtype=int)[:, None]
        self.padding = outside[:, :, None] | outside[:, None, :]  # each message's entries outside its bond's block
        self.eyes = np.outer(np.eye(self.phys_dim), np.eye(self.phys_dim)), np.eye(self.phys_dim)
        self.reverse = np.arange(2 * len(graph.edges) * copies) ^ 1  # each directed edge's reverse
        by_degree = {}
        for v in range(graph.n):
            by_degree.setdefault(graph.degree(v), []).append(v)
        # per group: its vertices; its degree r; per closed position of the leg-stacked rows (copy l has leg l
        # moved first), the incoming message ids; and the rows' gate targets
        self.groups, self.group_of, self.index_of = [], np.zeros(graph.n, dtype=int), np.zeros(graph.n, dtype=int)
        shift = np.arange(copies)[:, None]
        for gi, (r, vs) in enumerate(by_degree.items()):
            self.group_of[vs], self.index_of[vs] = gi, np.arange(len(vs))
            inc = np.array([[graph.directed_edge_index(u, v) for u in graph.neighbors(v)] for v in vs], dtype=int).T
            inc = (inc[:, None] + len(de) * shift).reshape(r, copies * len(vs))
            closed = [inc[[j + (j >= l) for l in range(r)]].ravel() for j in range(r - 1)]
            self.groups.append(((np.array(vs) + graph.n * shift).ravel(), r, closed, inc.ravel() ^ 1))

    def stack(self, tensors):
        """Per group, the zero-padded site tensors of a lone copy stacked."""
        return [_pad([tensors[v] for v in vs], (self.phys_dim,) + (self.chi,) * r) for vs, r, *_ in self.groups]

    def unstack(self, stacks) -> list:
        """Per-vertex tensors, in vertex order and at their own bond dimensions, of a lone copy's per-group stacks."""
        return [stacks[gi][(i,) + tuple(map(slice, s))] for gi, i, s in zip(self.group_of, self.index_of, self.shapes)]

    def terms(self, h):
        """One copy's edge terms in edge order, vertex terms per site (zero where none), which terms exist, and per
        directed edge i -> j its edge term with rows (bra i, ket i) and columns (ket j, bra j)."""
        g, d, m = self.graph, self.phys_dim, len(self.graph.edges)
        if h.graph != g:
            raise ValueError("hamiltonian and state live on different graphs")
        if h.phys_dim != d:
            raise ValueError(f"hamiltonian has phys_dim {h.phys_dim} but the state has {d}")
        edge_ops = np.array([h.edge_terms[e] for e in g.edges], dtype=complex).reshape(m, d * d, d * d)
        vert_ops, present = np.zeros((g.n, d, d), dtype=complex), np.arange(m + g.n) < m
        for a, op in h.vertex_terms.items():
            vert_ops[a], present[m + a] = op, True
        op4 = edge_ops.reshape(m, d, d, d, d)
        dir_ops = np.stack([op4.transpose(0, 1, 3, 4, 2), op4.transpose(0, 2, 4, 3, 1)], 1).reshape(2 * m, d * d, d * d)
        return edge_ops, vert_ops, present, dir_ops


_layout = lru_cache(maxsize=16)(_Layout)


class Messages(Mapping):
    """A message set as a read-only mapping: ``msgs[(a, b)]`` is the leading chi_ab x chi_ab block of row
    ``graph.directed_edge_index(a, b)`` of ``stack``, a read-only view of the (2m, chi, chi) complex128 messages indexed
    by directed edge and zero outside those blocks, with chi_ab from ``chis`` and chi their largest. Iteration walks
    ``graph.adjacency``: the directed edges in sorted order. ``init_messages`` and ``Environment.msgs`` make them."""

    def __init__(self, graph, chis: list, stack):
        self.graph, self.chis, self.stack = graph, chis, stack.view()
        self.stack.flags.writeable = False

    def __getitem__(self, edge):
        k = self.graph.directed_edge_index(*edge)
        return self.stack[k, :self.chis[k], :self.chis[k]]

    def __iter__(self):
        return ((a, b) for a, nbrs in enumerate(self.graph.adjacency) for b in nbrs)

    def __len__(self) -> int:
        return len(self.stack)

    def __reduce__(self):
        return Messages, (self.graph, self.chis, self.stack)


def _message_stack(lay, msgs):
    """The (2m, chi, chi) stack of ``msgs`` in ``lay``: a ``Messages`` on its graph and bonds, in its stack's form
    (complex128, zero outside the blocks), is taken uncopied; any other mapping is checked edge by edge and padded."""
    if (isinstance(msgs, Messages) and msgs.chis == lay.chis and msgs.graph == lay.graph and msgs.stack.dtype == complex
            and msgs.stack.shape == lay.padding.shape and not msgs.stack[lay.padding].any()):
        return msgs.stack
    arrays = [msgs.get(e) for e in lay.graph.directed_edges]
    for (a, b), chi, m in zip(lay.graph.directed_edges, lay.chis, arrays):
        if np.shape(m) != (chi, chi):
            raise ValueError(f"no message on directed edge {a}->{b}" if m is None else
                             f"message {a}->{b} has shape {np.shape(m)} but its bond dimension is {chi}")
    return _pad(arrays, (lay.chi, lay.chi))


class Environment:
    """Ket layers, gates and the quantities derived from them for one (state, messages) pair, or one per copy.

    ``step`` and ``with_stacks`` derive the next environment from the stacks.
    """

    def __init__(self, state: TensorNetworkState, msgs: Messages | dict):
        lay = _layout(state.graph, tuple(t.shape for t in state.site_tensors), ("",))
        self.__dict__.update(_environment(lay, lay.stack(state.site_tensors), _message_stack(lay, msgs)).__dict__)
        self.state = state

    @cached_property
    def state(self) -> TensorNetworkState:
        """The lone copy's state; the copies of a stacked environment are read through ``copies``."""
        if len(self.lay.names) > 1:
            raise ValueError(f"a stack of {len(self.lay.names)} copies has no one state; read each via copies()")
        return TensorNetworkState(self.lay.graph, self.lay.unstack(self.stacks), self.lay.phys_dim)

    @cached_property
    def msgs(self) -> Messages:
        """The lone copy's messages, on its message stack where that is complex; copies are read through ``copies``."""
        if len(self.lay.names) > 1:
            raise ValueError(f"a stack of {len(self.lay.names)} copies has no one message set; read each via copies()")
        return Messages(self.lay.graph, self.lay.chis, self.msg_stack.astype(complex, copy=False))

    @cached_property
    def _rows(self):
        """Per group: the leg-stacked rows (the first G are the stack) and their conjugate; ``step`` hands them on."""
        rows = [np.stack([s.transpose(_moved(s.ndim, 2 + l, 2)) for l in range(r)]).reshape((len(t),) + s.shape[1:])
                if r else s for (_, r, _, t), s in zip(self.lay.groups, self.stacks)]
        return [(x, x.conj()) for x in rows]

    @cached_property
    def _incoming(self):
        """Per group: the ``_dressing`` of its rows by their incoming messages."""
        return [_dressing([self.msg_stack[ids] for ids in closed], self.msg_stack.dtype) for _, _, closed, _ in
                self.lay.groups]

    @cached_property
    def _leg0(self):
        """Per group: the messages in on its vertices' leg 0, read only by one-site blocks and gradients."""
        return [self.msg_stack[targets[:len(vs)] ^ 1] for vs, _, _, targets in self.lay.groups]

    @cached_property
    def _kets(self):
        """Per group: the conjugated rows and their ket layers (the rows themselves at degree 0)."""
        return [(bra, _absorb(rows, steps, 3) if r else rows)
                for (_, r, *_), (rows, bra), steps in zip(self.lay.groups, self._rows, self._incoming)]

    @cached_property
    def _gates(self):
        """(2m, d, d, chi, chi) gates, indexed by directed edge."""
        d, chi = self.lay.phys_dim, self.lay.chi
        gates = np.empty((len(self.msg_stack), d, d, chi, chi), dtype=self.msg_stack.dtype)
        for (_, r, _, targets), (bra, ket) in zip(self.lay.groups, self._kets):
            if r:
                gates[targets] = np.ascontiguousarray(_close(ket, bra, 1))
        return gates

    @cached_property
    def site_blocks(self):
        """(n, d, d) one-site blocks in vertex order: each vertex's leg-0 gate closed with its incoming message."""
        d = self.lay.phys_dim
        blocks = np.empty((len(self.lay.names) * self.lay.graph.n, d, d), dtype=self.msg_stack.dtype)
        for (vs, r, _, targets), s, leg0 in zip(self.lay.groups, self.stacks, self._leg0):
            blocks[vs] = (np.einsum("kijxy,kxy->kij", self._gates[targets[:len(vs)]], leg0) if r
                          else _close(s, s.conj(), 0))
        return blocks

    @cached_property
    def edge_blocks(self):
        """(m, d^2, d^2) two-site blocks in edge order, the smaller vertex most significant."""
        d, chi, m = self.lay.phys_dim, self.lay.chi, len(self.msg_stack) // 2
        pair = self._gates.reshape(m, 2, d * d, chi * chi)
        blocks = _mm(pair[:, 0], pair[:, 1].swapaxes(1, 2))
        return blocks.reshape(m, d, d, d, d).transpose(0, 1, 3, 2, 4).reshape(m, d * d, d * d)

    def step(self, damping: float = 0.0) -> "Environment":
        """The environment of the same site tensors under the next synchronous message set."""
        raw = sum((self._gates[:, i, i] for i in range(1, self.lay.phys_dim)), self._gates[:, 0, 0])  # the trace
        new = unit_trace(raw, self.lay.graph.directed_edges, "message {}->{} lost positivity (trace={tr})",
                         self.lay.names)
        new = (1.0 - damping) * new + damping * self.msg_stack if damping else new
        # subnormal parts are flushed to zero, so rescaling a message by a power of two stays exact downstream
        parts = new.view(float)
        parts[np.abs(parts) < np.finfo(float).tiny] = 0.0
        return _environment(self.lay, self.stacks, new, (_has_imag([new]), self._imag[1]), _rows=self._rows)

    def with_stacks(self, stacks) -> "Environment":
        """Site-tensor stacks under the same messages; a bad tensor raises its copy's ``TensorNetworkState`` error."""
        env = _environment(self.lay, stacks, self.msg_stack, (self._imag[0], _has_imag(stacks)),
                           _incoming=self._incoming, _leg0=self._leg0)
        if not all(np.isfinite(s).all() and s.reshape(len(s), -1).any(axis=1).all() for s in stacks):
            for name, copy in zip(self.lay.names, env.copies()):
                try:
                    copy.state
                except ValueError as err:
                    raise ValueError(f"{name}{err}") from err
        return env

    def copies(self) -> list:
        """One environment per copy, in the layout of a lone copy, on views of this one's arrays and built gates and
        edge blocks (real copies of its arrays, and none of the rest, where a copy's own values are real)."""
        lay, count = self.lay, len(self.lay.names)
        lone = _layout(lay.graph, lay.shapes, ("",))
        built = {k: np.split(v, count) for k, v in self.__dict__.items() if k in ("_gates", "edge_blocks")}
        return [_environment(lone, list(s), m, **{k: v[p] for k, v in built.items()}) for p, (s, m) in
                enumerate(zip(zip(*(np.split(s, count) for s in self.stacks)), np.split(self.msg_stack, count)))]

    def site_rdms(self):
        """(n, d, d) Hermitian unit-trace one-site density matrices in vertex order."""
        return unit_trace(self.site_blocks, [((a,),) for a in range(self.lay.graph.n)], RDM_ERROR, self.lay.names)

    def edge_rdms(self):
        """(m, d^2, d^2) Hermitian unit-trace edge density matrices in edge order."""
        return unit_trace(self.edge_blocks, [(e,) for e in self.lay.graph.edges], RDM_ERROR, self.lay.names)

    def energy(self, terms, gradient: bool = False):
        """Per copy, the sum of its normalized term values, edges first, and with ``gradient`` the per-group gradients.

        ``terms`` comes from ``lay.terms``. The gradient is with respect to the conjugated
        site tensors at fixed messages: each term adds the ket layer applied to (h - e) / tr(block).
        """
        edge_ops, vert_ops, present, dir_ops = terms
        lay, d, chi, m = self.lay, self.lay.phys_dim, self.lay.chi, len(self.msg_stack) // 2
        copies, m1, n1 = len(lay.names), len(lay.graph.edges), lay.graph.n
        edge, site = self.edge_blocks, self.site_blocks

        def per_copy(on_edges, on_sites):  # (copies, m1 + n1): each copy's edges, then its sites, as when alone
            return np.concatenate([on_edges.reshape(copies, m1), on_sites.reshape(copies, n1)], 1)

        e_norm, s_norm = np.trace(edge, axis1=1, axis2=2).real, np.trace(site, axis1=1, axis2=2).real
        bad = np.flatnonzero(present & (per_copy(e_norm, s_norm).ravel() <= 0))
        if bad.size:
            p, i = divmod(bad[0], m1 + n1)
            where = f"edge {lay.graph.edges[i]}" if i < m1 else f"site {i - m1}"
            raise RuntimeError(f"{lay.names[p]}{where}: vanishing local norm")
        s_norm[~present.reshape(copies, m1 + n1)[:, m1:].ravel()] = 1.0
        e_val = np.einsum("kij,kji->k", edge, edge_ops).real / e_norm
        s_val = np.einsum("kij,kji->k", site, vert_ops).real / s_norm
        totals = [sum(row, 0.0) for row in per_copy(e_val, s_val).tolist()]
        if not gradient:
            return totals, None
        # (h - e) / tr per directed edge i -> j; arranged as ``dir_ops``, the identity is delta(bra i, ket i)
        # delta(ket j, bra j) in both directions. Times the gate of j -> i it is the environment of site i, rows
        # (bra phys, bra bond) and columns (ket phys, ket bond). It multiplies by 1 / tr: numpy would divide complex
        # by real as complex division
        ops = (dir_ops - np.repeat(e_val, 2)[:, None, None] * lay.eyes[0]) * np.repeat(1.0 / e_norm, 2)[:, None, None]
        vert_ops = (vert_ops - s_val[:, None, None] * lay.eyes[1]) * (1.0 / s_norm)[:, None, None]
        envs = _mm(ops, self._gates[lay.reverse].reshape(2 * m, d * d, chi * chi))
        envs = envs.reshape(2 * m, d, d, chi, chi).transpose(0, 1, 4, 2, 3).reshape(2 * m, d * chi, d * chi)
        grads = []
        for (vs, r, _, targets), (_, ket), leg0 in zip(self.lay.groups, self._kets, self._leg0):
            if not r:
                grads.append((vert_ops[vs] @ ket.reshape(len(vs), d, -1)).reshape(ket.shape))
                continue
            # a site term V acts through the environment of its leg-0 edge as V (x) m^T, m the message in on that leg
            envs[targets[:len(vs)]] += np.einsum("kqp,kxy->kqypx", vert_ops[vs], leg0).reshape(len(vs), d * chi, -1)
            rows = _mm(envs[targets], ket.reshape(len(ket), d * chi, -1)).reshape((r, len(vs)) + ket.shape[1:])
            grads.append(sum(block.transpose(_moved(block.ndim, 2, 2 + l)) for l, block in enumerate(rows)))
        return totals, grads


def stacked(envs, names) -> Environment:
    """The environments ``envs``, all of one layout, as the copies of one environment, named ``names`` in errors."""
    stacks = [np.concatenate(s) for s in zip(*(env.stacks for env in envs))]
    lay = _layout(envs[0].lay.graph, envs[0].lay.shapes, tuple(names))
    return _environment(lay, stacks, np.concatenate([env.msg_stack for env in envs]))


def _environment(lay, stacks, msg_stack, imag=None, **cached) -> Environment:
    """An ``Environment`` of stacked site tensors and messages in the layout ``lay``, typed by whether each input holds
    an imaginary part, ``imag`` (scanned if None), with the ``cached`` properties unless typing changed an input."""
    env = Environment.__new__(Environment)
    env._imag = imag or (_has_imag([msg_stack]), _has_imag(stacks))
    env.lay, (env.stacks, env.msg_stack) = lay, _typed(stacks, msg_stack, not any(env._imag))
    if env.msg_stack is msg_stack and env.stacks is stacks:
        env.__dict__.update(cached)
    return env
