"""Tensor network states on sparse graphs, contracted by belief propagation.

The package builds states on arbitrary simple graphs (random regular graphs,
trees, cycles, lattices), estimates local reduced density matrices and
observables by iterating message tensors on the doubled network, and prepares
approximate ground states of graph-local spin Hamiltonians by alternating
message updates with fixed-message gradient descent. Exact diagonalization,
exhaustive Gibbs enumeration and Metropolis Monte Carlo oracles are included
for verification at small sizes.
"""

from .graph import (
    Graph,
    GraphDiagnostics,
    build_tree,
    compute_diagnostics,
    count_cycles,
    cycle_graph,
    expansion_bruteforce,
    graph_from_json,
    graph_to_json,
    grid_graph,
    is_tree,
    load_graph,
    random_regular,
    save_graph,
)
from .tensor import (
    IDENTITY2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    symmetric_factor,
    tensor_from_json,
    tensor_to_json,
)
from .states import (
    TensorNetworkState,
    generalized_graph_state,
    graph_state,
    load_state,
    product_state,
    random_state,
    save_state,
    square_root_state,
    state_from_json,
    state_to_json,
    to_statevector,
)
from .env import Environment
from .bp import (
    BpConfig,
    BpDiagnostics,
    Rdm,
    SiteAverages,
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
    site_averaged_observables,
)
from .hamiltonian import (
    MODELS,
    Hamiltonian,
    build_model,
    mixed_field_ising,
    model_from_json,
    model_to_json,
    sqrt_parent_hamiltonian,
    transverse_field_ising,
)
from .variational import (
    ProductInit,
    RandomInit,
    SqrtInit,
    StepSizeError,
    SweepPoint,
    VarConfig,
    VarTrace,
    energy,
    energy_gradient,
    sweep,
    variational_prepare,
)
from .oracles import (
    ClassicalExpectations,
    EdResult,
    McResult,
    classical_exact_expectations,
    classical_ising_mc,
    exact_diagonalize,
    fidelity,
    ground_space_overlap,
    hamiltonian_matrix,
    statevector_rdm,
    term_list_matrix,
)

__version__ = "0.1.0"
