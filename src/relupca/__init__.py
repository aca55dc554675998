"""Recovering the relevant subspace of an unknown ReLU network from Gaussian samples.

The pipeline: threshold-filtered second-moment matrices expose one new
subspace direction at a time; candidate link functions over the recovered
frame come from deterministic grid enumerations; max-min (lattice) forms and
selector tables give the structural backbone for closeness arguments.
"""

from .enumeration import CandidateList, architectures, enumerate_kickers, enumerate_networks
from .errors import BudgetError, OrderTypeMissing, StructureMismatch
from .filteredpca import (
    GaussianOracle,
    IterationRecord,
    LearnConfig,
    RecoveryResult,
    SampleSet,
    estimate_l2_error,
    filter_matrix,
    gaussian_oracle,
    idealized_filter_matrix,
    run,
)
from .harness import (
    ExperimentSpec,
    Report,
    make_instance,
    run_experiment,
    verify_anti_concentration,
    verify_lipschitz_key,
    verify_matrix_concentration,
    verify_stability,
)
from .lattice import (
    LatticePolynomial,
    OrderType,
    SelectorKicker,
    all_order_types,
    deserialize_lattice,
    from_network,
    lattice_eval,
    lattice_sum,
    order_type,
    perturb_leaves,
    relu_wrap,
    scale,
    selector_eval,
    selector_from_lattice,
    serialize_lattice,
    structural_distance,
)
from .network import (
    Architecture,
    ReluNetwork,
    boolean_compile,
    deserialize,
    evaluate,
    lipschitz_upper,
    operator_norm,
    random_network,
    restrict,
    serialize,
    spike_network,
    zero_network,
)
from .subspace import (
    Frame,
    TopSVDResult,
    approx_top_svd,
    chordal_distance,
    complement_project,
    epsilon_net_ball,
    epsilon_net_bound,
    epsilon_net_matrices,
    extend_frame,
    procrustes_distance,
    project,
)

__version__ = "0.1.0"
