"""The dressed site tensor: one contraction layer for every local quantity.

A site's *ket layer* is its tensor with the incoming messages absorbed on
every leg but the open ones; a message ``m[x, x']`` takes the ket bond index
``x`` to the bra bond index ``x'``. The *gate* of a directed edge ``i -> j``
is the ket layer of ``i`` open towards ``j`` contracted with the conjugate
site tensor, with axes (ket phys, bra phys, ket bond, bra bond). The new
message ``i -> j`` is its physical trace. The one-site block is the gate with
no open leg; the two-site block on (a, b) is gate(a -> b) times gate(b -> a)
over the shared bond. A term's value is tr(block h) / tr(block), and its
gradient at fixed messages is the ket layer applied to (h - e) / tr(block).
An ``Environment`` builds each ket layer and gate once, on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .states import TensorNetworkState

__all__ = ["Environment", "site_gate", "unit_trace"]


def unit_trace(mat, error: str, *args):
    """Hermitize a square matrix and scale it to unit trace.

    A non-finite or non-positive trace raises ``RuntimeError`` with
    ``error.format(*args, tr=trace)``.
    """
    mat = 0.5 * (mat + mat.conj().T)
    tr = mat.trace().real
    if not math.isfinite(tr) or tr <= 0.0:
        raise RuntimeError(error.format(*args, tr=tr))
    return mat / tr


def _dress(t, in_msgs, open_legs=()):
    """Ket layer of site tensor ``t``: ``in_msgs[l]`` absorbed on every leg ``l`` not open."""
    for l, m in enumerate(in_msgs):
        if l not in open_legs:
            t = (t.swapaxes(1 + l, -1) @ m).swapaxes(1 + l, -1)
    return t


def site_gate(t, in_msgs, open_legs=()):
    """Site tensor times its conjugate, dressed on every leg but ``open_legs``.

    Axes of the result: ket phys, bra phys, then a (ket, bra) bond pair per
    open leg, in the order given.
    """
    return _close(_dress(t, in_msgs, open_legs), t, open_legs)


def _close(ket, t, open_legs):
    """Contract a ket layer with the conjugate of ``t`` over every leg not in ``open_legs``."""
    k = len(open_legs)
    axes = [0] + [1 + l for l in range(t.ndim - 1) if l not in open_legs] + [1 + l for l in open_legs]
    ket = ket.transpose(axes)
    bra = t.conj().transpose(axes)
    d = t.shape[0]
    opened = ket.shape[ket.ndim - k:] if k else ()
    o = math.prod(opened)
    gate = np.einsum("pcx,qcy->pqxy", ket.reshape(d, -1, o), bra.reshape(d, -1, o))
    perm = [0, 1] + [ax for l in range(k) for ax in (2 + l, 2 + k + l)]
    return gate.reshape((d, d) + opened + opened).transpose(perm)


class Environment:
    """Ket layers, gates and the quantities derived from them for one (state, messages) pair."""

    def __init__(self, state: TensorNetworkState, msgs: dict):
        self.state = state
        self.msgs = msgs
        self._kets = {}
        self._gates = {}

    def ket(self, i, j=None):
        """Ket layer of site ``i`` open towards neighbor ``j``, or closed on every leg."""
        key = (i, j)
        ket = self._kets.get(key)
        if ket is None:
            g = self.state.graph
            nbrs = g.neighbors(i)
            if j is None and nbrs:
                # close the last open leg of an already dressed layer
                first = nbrs[0]
                ket = _dress(self.ket(i, first), [self.msgs[(first, i)]])
            else:
                open_legs = () if j is None else (g.leg(i, j),)
                ket = _dress(self.state.site_tensors[i], [self.msgs[(k, i)] for k in nbrs], open_legs)
            self._kets[key] = ket
        return ket

    def gate(self, i, j):
        """(d, d, chi, chi) gate of the directed edge ``i -> j``."""
        gate = self._gates.get((i, j))
        if gate is None:
            gate = _close(self.ket(i, j), self.state.site_tensors[i], (self.state.graph.leg(i, j),))
            self._gates[(i, j)] = gate
        return gate

    def messages(self, damping: float = 0.0) -> dict:
        """The next synchronous message set, optionally mixed with the current one."""
        g = self.state.graph
        new_msgs = {}
        for i in range(g.n):
            for j in g.neighbors(i):
                raw = self.gate(i, j).trace(axis1=0, axis2=1)
                new = unit_trace(raw, "message {}->{} lost positivity (trace={tr})", i, j)
                if damping:
                    new = (1.0 - damping) * new + damping * self.msgs[(i, j)]
                new_msgs[(i, j)] = new
        return new_msgs

    def block(self, sites):
        """Unnormalized density matrix on one site or an edge, first site most significant, rows ket."""
        if len(sites) == 1:
            return _close(self.ket(sites[0]), self.state.site_tensors[sites[0]], ())
        a, b = sites
        d = self.state.phys_dim
        return np.einsum("pqxy,rsxy->prqs", self.gate(a, b), self.gate(b, a)).reshape(d * d, d * d)

    def rdm(self, sites):
        """Hermitian unit-trace density matrix on one site or an edge."""
        return unit_trace(self.block(sites), "reduced density matrix on {} has non-positive trace {tr}", sites)

    def gradients(self, sites, op):
        """Derivatives of tr(block(sites) op) with respect to each site's conjugated tensor."""
        d = self.state.phys_dim
        if len(sites) == 1:
            ket = self.ket(sites[0])
            return [(op @ ket.reshape(d, -1)).reshape(ket.shape)]
        a, b = sites
        op4 = op.reshape(d, d, d, d)  # (bra a, bra b, ket a, ket b)
        # the other site's gate closed with op, as (ket, ket bond, bra, bra bond) of this site
        env_a = np.einsum("uvxy,qvpu->pxqy", self.gate(b, a), op4)
        env_b = np.einsum("uvxy,vqup->pxqy", self.gate(a, b), op4)
        return [self._apply(a, b, env_a), self._apply(b, a, env_b)]

    def _apply(self, i, j, env):
        """Ket layer of ``i`` open towards ``j`` contracted with env (ket, ket bond, bra, bra bond)."""
        ket = self.ket(i, j)
        labels = list(range(2, ket.ndim + 1))
        bond = labels[self.state.graph.leg(i, j)]
        out = [1] + [ket.ndim + 1 if lab == bond else lab for lab in labels]
        return np.einsum(ket, [0] + labels, env, [0, bond, 1, ket.ndim + 1], out)
