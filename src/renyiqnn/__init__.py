"""Density-matrix toolkit for generative training of unitary and thermal
quantum models under Renyi-2 divergence losses.

Layers, bottom up: qmath (dense linear algebra helpers), hamiltonians
(Pauli-string operator algebra), states (density matrices, fidelity,
thermal states), models (unitary-circuit and Boltzmann parameterizations),
divergence (losses and analytic gradients), swaptest (shot-based
estimators), plateau (initialization gradient statistics), training
(ADAM loops and ensembles), cli (experiment runner).
"""

from .divergence import (
    LossValue,
    SingularStateError,
    fd_gradient,
    qbm_grad_forward,
    qbm_grad_frechet,
    qbm_grad_reverse,
    relative_entropy,
    renyi2_forward,
    renyi2_reverse,
    state_gradient_entry,
    uqnn_grad_forward,
    uqnn_grad_linear,
    uqnn_grad_reverse,
)
from .hamiltonians import (
    LCUHamiltonian,
    PauliTerm,
    normalize,
    random_three_local,
    random_two_local,
    two_local_terms,
)
from .models import (
    QBMParams,
    UQNNParams,
    build_qbm,
    build_uqnn,
    qbm_visible_state,
    uqnn_statevector,
    uqnn_visible_state,
)
from .plateau import (
    PlateauReport,
    haar_gradient_moment,
    init_gradient_scan,
    lemma1_bounds,
)
from .states import (
    DensityMatrix,
    entanglement_entropy,
    fidelity,
    haar_unitary,
    random_density_matrix,
    thermal_state,
)
from .swaptest import (
    MCEstimate,
    SwapTestSpec,
    cyclic_shift,
    mc_reverse_gradient_thermal,
    swap_test_probability,
    trace_power_estimate,
)
from .training import (
    AdamState,
    EnsembleSummary,
    MetricsLog,
    MetricsRow,
    TrainConfig,
    TrainingError,
    adam_step,
    run_ensemble,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "DensityMatrix",
    "EnsembleSummary",
    "LCUHamiltonian",
    "LossValue",
    "MCEstimate",
    "MetricsLog",
    "MetricsRow",
    "PauliTerm",
    "PlateauReport",
    "QBMParams",
    "SingularStateError",
    "SwapTestSpec",
    "TrainConfig",
    "TrainingError",
    "UQNNParams",
    "adam_step",
    "build_qbm",
    "build_uqnn",
    "cyclic_shift",
    "entanglement_entropy",
    "fd_gradient",
    "fidelity",
    "haar_gradient_moment",
    "haar_unitary",
    "init_gradient_scan",
    "lemma1_bounds",
    "mc_reverse_gradient_thermal",
    "normalize",
    "qbm_grad_forward",
    "qbm_grad_frechet",
    "qbm_grad_reverse",
    "qbm_visible_state",
    "random_density_matrix",
    "random_three_local",
    "random_two_local",
    "relative_entropy",
    "renyi2_forward",
    "renyi2_reverse",
    "run_ensemble",
    "state_gradient_entry",
    "swap_test_probability",
    "thermal_state",
    "trace_power_estimate",
    "train",
    "two_local_terms",
    "uqnn_grad_forward",
    "uqnn_grad_linear",
    "uqnn_grad_reverse",
    "uqnn_statevector",
    "uqnn_visible_state",
]
