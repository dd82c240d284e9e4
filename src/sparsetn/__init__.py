"""Tensor network states on sparse graphs, contracted by belief propagation.

The package builds states on arbitrary simple graphs (random regular graphs,
trees, cycles, lattices), estimates local reduced density matrices and
observables by iterating message tensors on the doubled network, and prepares
approximate ground states of graph-local spin Hamiltonians by alternating
message updates with fixed-message gradient descent. Exact diagonalization,
exhaustive Gibbs enumeration and Metropolis Monte Carlo oracles are included
for verification at small sizes.
"""

__version__ = "0.1.0"
