"""The tolerance table at its edges.

Relative thresholds must give the same verdict for an input and any nonzero
rescaling of it, so the scale tests draw s log-uniformly from [1e-12, 1e6] and
pin both ends. Absolute thresholds are probed at half and at twice their value.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsot import (
    InvalidParameter,
    NotHermitian,
    Observable,
    ParameterOutOfRange,
    Process,
    QuantumChannel,
    canonical_sot,
    classify_light_touch,
    hermitian_basis,
    identity_channel,
    light_touch_spanning_set,
    maximality_counterexample,
    pauli_basis,
    pdm_from_correlations,
    random_process,
    sic_fiducial_v,
    sic_povm,
    two_time_grid,
)
from qsot.linalg import CLUSTER_RTOL, DENSITY_TOL, SIC_ANGLE_TOL, TP_TOL, check_hermitian

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)
EXPONENTS = st.floats(-12.0, 6.0)  # s = 10**exponent
SEEDS = st.integers(0, 2**32 - 1)


def unitary(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def with_spectrum(rng, values):
    U = unitary(rng, len(values))
    return U @ np.diag(values) @ U.conj().T


def spectra():
    """Spectra of every class: scalar, dichotomous, general, degenerate, with a zero."""
    return [np.ones(3), np.array([1.0, -1.0, -1.0]), np.array([1.0, 2.0, 3.0]),
            np.array([2.0, 0.0, -1.0]), np.array([0.5, 0.5, -2.0, 3.0])]


@SETTINGS
@given(exponent=EXPONENTS, seed=SEEDS)
@example(exponent=-12.0, seed=0)
@example(exponent=-9.0, seed=0)
@example(exponent=6.0, seed=0)
def test_rescaled_observable_keeps_its_clusters_and_class(exponent, seed):
    rng = np.random.default_rng(seed)
    s = 10.0**exponent
    for values in spectra():
        M = with_spectrum(rng, values)
        base, scaled = Observable(M), Observable(s * M)
        assert len(scaled.spectral.eigenvalues) == len(base.spectral.eigenvalues)
        assert scaled.classification.kind == base.classification.kind


@SETTINGS
@given(exponent=EXPONENTS, seed=SEEDS)
@example(exponent=-12.0, seed=0)
@example(exponent=-9.0, seed=0)
@example(exponent=6.0, seed=0)
def test_two_time_grid_is_linear_in_the_first_observables_scale(exponent, seed):
    rng = np.random.default_rng(seed)
    s = 10.0**exponent
    Bs = hermitian_basis(3)
    for process in (Process(identity_channel(3), np.eye(3) / 3), random_process(3, 3, rng)):
        for values in spectra()[:4]:
            A = with_spectrum(rng, values)
            want = s * two_time_grid(process, [Observable(A)], Bs)
            got = two_time_grid(process, [Observable(s * A)], Bs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@SETTINGS
@given(exponent=EXPONENTS)
@example(exponent=-12.0)
@example(exponent=6.0)
def test_rescaled_spanning_set_gives_the_same_x(exponent):
    s = 10.0**exponent
    process = random_process(3, 3, np.random.default_rng(2))
    basis_A = [Observable(s * L.matrix) for L in light_touch_spanning_set(3)]
    basis_B = hermitian_basis(3)
    evs = two_time_grid(process, basis_A, basis_B)
    sot = pdm_from_correlations(3, 3, basis_A, basis_B, evs)
    assert np.abs(sot.matrix - canonical_sot(process).matrix).max() <= 1e-12
    assert sot.condition == pytest.approx(15.5741, rel=1e-5)


@pytest.mark.parametrize("s", [1e200, 1e-200])
def test_frame_at_the_ends_of_the_float_range_gives_the_same_x(s):
    # G = s^2 G_1 would over- or underflow: the frame is scaled by a power of 2 first.
    process = random_process(2, 2, np.random.default_rng(3))
    basis = pauli_basis(1)
    evs = two_time_grid(process, basis, basis)
    unscaled = pdm_from_correlations(2, 2, basis, basis, evs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sot = pdm_from_correlations(2, 2, [Observable(s * P.matrix) for P in basis], basis,
                                    s * evs)
    X = canonical_sot(process).matrix
    assert np.abs(sot.matrix - X).max() <= 4 * sot.condition * 4 * np.finfo(float).eps * \
        np.linalg.norm(X)
    assert sot.condition == pytest.approx(unscaled.condition, rel=1e-12)  # s * P rounds


def test_huge_hermitian_matrix_passes_without_warning():
    M = 1e200 * np.diag([1.0, -1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(check_hermitian(M), M)
        assert Observable(M).spectral.eigenvalues.tolist() == [-1e200, 5e199, 1e200]


@SETTINGS
@given(exponent=EXPONENTS)
@example(exponent=-12.0)
@example(exponent=6.0)
@example(exponent=200.0)  # both Frobenius norms overflow unless M is rescaled first
@example(exponent=-200.0)  # both underflow to 0
def test_rescaled_nilpotent_is_not_hermitian(exponent):
    with pytest.raises(NotHermitian):
        Observable(10.0**exponent * np.array([[0.0, 1.0], [0.0, 0.0]]))


@SETTINGS
@given(exponent=EXPONENTS)
@example(exponent=-6.0)
@example(exponent=-9.0)
@example(exponent=-12.0)
def test_maximality_residual_scales_with_the_observable(exponent):
    s = 10.0**exponent
    _, _, residual = maximality_counterexample(Observable(s * np.diag([2.0, 0.0, -1.0])))
    assert residual / s == pytest.approx(1 / (2 * np.sqrt(2)), rel=1e-12)


@SETTINGS
@given(exponent=EXPONENTS, seed=SEEDS, d=st.integers(2, 5), data=st.data())
def test_dichotomy_boundary_at_every_scale(exponent, seed, d, data):
    rng = np.random.default_rng(seed)
    lam = 10.0**exponent
    m = data.draw(st.integers(1, d - 1))
    for factor, kind in ((0.5, "dichotomous"), (2.0, "general")):
        minus = -lam * (1 + factor * CLUSTER_RTOL)
        M = with_spectrum(rng, np.r_[np.full(m, lam), np.full(d - m, minus)])
        assert Observable(M).classification.kind == kind


def chain(start, steps):
    return start + np.concatenate([[0.0], np.cumsum(steps)])


@SETTINGS
@given(exponent=EXPONENTS, seed=SEEDS, groups=st.integers(1, 3), data=st.data())
def test_chained_clusters_and_classification_agree(exponent, seed, groups, data):
    """Chains of gaps below CLUSTER_RTOL max|lam| merge whole, even when they span more.

    Two mirrored chains around +lam and -lam classify as dichotomous; one
    chain is scalar, three are general. The public classifier, which
    decomposes the matrix again, agrees with the observable's own class.
    """
    rng = np.random.default_rng(seed)
    lam = 10.0**exponent
    length = data.draw(st.integers(1, 5))
    fractions = data.draw(st.lists(st.floats(0.1, 0.9), min_size=length - 1,
                                   max_size=length - 1))
    up = chain(lam, 0.9 * CLUSTER_RTOL * lam * np.array(fractions))
    values = {1: up, 2: np.r_[up, -up], 3: np.r_[up, -up, 0.5 * up]}[groups]
    obs = Observable(with_spectrum(rng, values))
    assert len(obs.spectral.eigenvalues) == groups
    assert obs.classification.kind == {1: "scalar", 2: "dichotomous", 3: "general"}[groups]
    assert classify_light_touch(obs.matrix) == obs.classification


@pytest.mark.parametrize("angle", [np.pi / 3, np.pi, 5 * np.pi / 3])
def test_sic_angle_boundary(angle):
    # Half the tolerance off still gives a SIC within SIC_OVERLAP_TOL; twice is rejected.
    # The CLI's default phases are pi itself.
    for x in (angle - SIC_ANGLE_TOL / 2, angle + SIC_ANGLE_TOL / 2):
        sic_povm(sic_fiducial_v(0.75, x, np.pi))
        sic_povm(sic_fiducial_v(np.sqrt(2 / 3), np.pi, x))
    for x in (angle - 2 * SIC_ANGLE_TOL, angle + 2 * SIC_ANGLE_TOL):
        with pytest.raises(ParameterOutOfRange, match="theta and phi"):
            sic_fiducial_v(0.75, x, np.pi)
        with pytest.raises(ParameterOutOfRange, match="theta and phi"):
            sic_fiducial_v(0.75, np.pi, x)


@SETTINGS
@given(d=st.integers(1, 5))
def test_trace_preservation_boundary(d):
    for factor, accepted in ((0.5, True), (2.0, False)):
        eps = factor * TP_TOL / np.sqrt(d)  # the TP residual is eps sqrt(d)
        kraus = [np.sqrt(1 + eps) * np.eye(d)]
        if accepted:
            QuantumChannel(kraus)
        else:
            with pytest.raises(InvalidParameter, match="not CPTP"):
                QuantumChannel(kraus)


@SETTINGS
@given(seed=SEEDS, d=st.integers(2, 5), data=st.data())
def test_rank_deficient_and_slightly_negative_states(seed, d, data):
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(1, d - 1))
    p = rng.uniform(0.1, 1.0, rank)
    Process(identity_channel(d), with_spectrum(rng, np.r_[p / p.sum(), np.zeros(d - rank)]))
    for factor, accepted in ((0.5, True), (2.0, False)):
        neg = factor * DENSITY_TOL
        rho = with_spectrum(rng, np.r_[1.0 + neg, np.zeros(d - 2), -neg])
        if accepted:
            Process(identity_channel(d), rho)
        else:
            with pytest.raises(InvalidParameter, match="negative eigenvalue"):
                Process(identity_channel(d), rho)
