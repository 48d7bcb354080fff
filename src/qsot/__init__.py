"""Spatiotemporal quantum correlation numerics.

Two-time expectation values for sequential projective measurements, the
canonical state over time (1/2){rho (x) 1, J[E]}, generalized pseudo-density
matrices over light-touch observable bases, and seeded Monte-Carlo simulation
of the measurement protocol.
"""

from .channels import (
    Process,
    QuantumChannel,
    ValidationReport,
    adjoint_apply,
    apply,
    choi_matrix,
    depolarizing,
    discard_prepare,
    identity_channel,
    isometry_embed,
    make_standard,
    random_channel,
    random_density,
    random_hermitian,
    random_process,
    validate_cptp,
)
from .errors import (
    BasisNotOrthogonal,
    DimensionMismatch,
    FailedOverlapCondition,
    IndexOutOfRange,
    InvalidIndex,
    InvalidParameter,
    IsLightTouch,
    NotHermitian,
    NotLightTouch,
    NumericalFailure,
    ParameterOutOfRange,
    QsotError,
    SingularSystem,
)
from .linalg import (
    SpectralDecomposition,
    anticommutator,
    hermitian_eigendecomposition,
    hs_inner,
    partial_trace,
    tensor,
)
from .observables import (
    Classification,
    Observable,
    SicPovm,
    classify_light_touch,
    hermitian_basis,
    light_touch_basis_qutrit,
    light_touch_spanning_set,
    pauli_basis,
    pauli_string,
    sic_fiducial_v,
    sic_fiducial_w,
    sic_povm,
    weyl_heisenberg,
)
from .sampler import ShotRecord, estimate_ev, estimate_pdm, sample_sequential
from .sot import (
    StateOverTime,
    canonical_sot,
    causality_witness,
    maximality_counterexample,
    pdm_from_correlations,
    reconstruct_unique,
)
from .twotime import (
    JointDistribution,
    NonrepresentableWitness,
    joint_distribution,
    light_touch_probes,
    nonrepresentable_witness,
    representability_residual,
    trace_grid,
    two_time_ev,
    two_time_grid,
)

__version__ = "0.1.0"
