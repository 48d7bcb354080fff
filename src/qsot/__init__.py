"""Spatiotemporal quantum correlation numerics.

Two-time expectation values for sequential projective measurements, the
canonical state over time (1/2){rho (x) 1, J[E]}, generalized pseudo-density
matrices over light-touch observable bases, and seeded Monte-Carlo simulation
of the measurement protocol.

The names below are imported from their submodules on first use, so
``import qsot`` loads no numpy: the command line (``qsot.cli``) can still
choose the BLAS threading before numpy starts.
"""

import importlib

_EXPORTS = {
    "channels": (
        "Process",
        "QuantumChannel",
        "apply",
        "choi_matrix",
        "depolarizing",
        "discard_prepare",
        "identity_channel",
        "isometry_embed",
        "random_channel",
        "random_density",
        "random_hermitian",
        "random_process",
    ),
    "errors": (
        "DimensionMismatch",
        "FailedOverlapCondition",
        "IndexOutOfRange",
        "InvalidIndex",
        "InvalidParameter",
        "IsLightTouch",
        "NotHermitian",
        "NotLightTouch",
        "NumericalFailure",
        "ParameterOutOfRange",
        "QsotError",
        "SingularSystem",
    ),
    "linalg": (
        "SpectralDecomposition",
        "hermitian_eigendecomposition",
        "partial_trace",
        "tensor",
    ),
    "observables": (
        "Classification",
        "Observable",
        "SicPovm",
        "classify_light_touch",
        "hermitian_basis",
        "light_touch_basis_qutrit",
        "light_touch_spanning_set",
        "pauli_basis",
        "pauli_string",
        "sic_fiducial_v",
        "sic_fiducial_w",
        "sic_povm",
        "weyl_heisenberg",
    ),
    "sampler": ("ShotRecord", "estimate_ev", "estimate_pdm", "sample_sequential"),
    "sot": (
        "StateOverTime",
        "canonical_sot",
        "causality_witness",
        "maximality_counterexample",
        "pdm_from_correlations",
        "reconstruct_unique",
    ),
    "twotime": (
        "JointDistribution",
        "NonrepresentableWitness",
        "joint_distribution",
        "light_touch_probes",
        "nonrepresentable_witness",
        "representability_residual",
        "trace_grid",
        "two_time_ev",
        "two_time_grid",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
