"""Numerical verification suites for the library's structural claims.

Each suite runs seeded random instances and records the worst residual per claim,
judged by the ``linalg`` tolerance table: a "max" claim passes at residual <= CLAIM_TOL
(or ``run_suites``' ``tol``), a "min" claim at residual >= its floor. Suites back the
CLI's ``verify`` subcommand.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import (Process, apply, discard_prepare, random_density, random_hermitian,
                       random_process)
from .errors import InvalidParameter
from .linalg import CLAIM_TOL, COUNTEREXAMPLE_RTOL, NOGO_RESIDUAL_MIN, _as_seed, as_int
from .observables import (Observable, gram_matrix, light_touch_basis_qutrit, sic_fiducial_v,
                          sic_fiducial_w, sic_povm)
from .sot import canonical_sot, maximality_counterexample, reconstruct_unique
from .twotime import (general_probes, light_touch_probes, nonrepresentable_witness,
                      representability_residual, two_time_grid)

NOGO_DIM_PAIRS = ((2, 2), (3, 3), (2, 4), (4, 2))  # the (m, n) of each no-go witness


@dataclass(frozen=True)
class Claim:
    name: str
    residual: float
    tolerance: float
    direction: str  # "max": residual <= tolerance passes; "min": residual >= tolerance passes

    @property
    def passed(self) -> bool:
        if self.direction == "min":
            return self.residual >= self.tolerance
        return self.residual <= self.tolerance


@dataclass
class SuiteReport:
    suite: str
    seed: int
    claims: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def add(self, name: str, residual: float, least: float | None = None):
        """A "max" claim judged by CLAIM_TOL, or a "min" claim floored at ``least``."""
        tolerance, direction = (CLAIM_TOL, "max") if least is None else (least, "min")
        self.claims.append(Claim(name, float(residual), tolerance, direction))


def _checked(dims, trials, seed, tol=None) -> tuple:
    """(dims, trials, seed, tol) under every suite's one range rule (see ``run_suites``)."""
    trials, seed = as_int(trials, "trials", 1), _as_seed(seed)
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                            or not 0 <= tol < np.inf):
        raise InvalidParameter(f"tol must be a finite number >= 0, got {tol!r}")
    dims = tuple(dims)
    if not dims:
        raise InvalidParameter("dims must name at least one dimension")
    if not all(2 <= as_int(d, "dims entry") <= 6 for d in dims):
        raise InvalidParameter("dims must lie in 2..6")
    return dims, trials, seed, None if tol is None else float(tol)


def verify_theorems(dims=(2, 3), trials: int = 25, seed: int = 0xC0FFEE) -> SuiteReport:
    """Uniqueness/trace-formula, special-case, marginal, and maximality checks."""
    dims, trials, seed, _ = _checked(dims, trials, seed)
    rng = np.random.default_rng(seed)
    report = SuiteReport(suite="theorems", seed=seed)

    worst_lt = worst_rec = worst_marg = 0.0
    for dA, dB in itertools.product(dims, repeat=2):
        probes = light_touch_probes(dA, dB)
        for _ in range(trials):
            process = random_process(dA, dB, rng)
            sot = canonical_sot(process)
            worst_lt = max(worst_lt, representability_residual(process, sot.matrix, probes))
            rec = reconstruct_unique(process)
            worst_rec = max(worst_rec, float(np.linalg.norm(rec.matrix - sot.matrix)))
            O_A = Observable(random_hermitian(dA, rng))
            O_B = Observable(random_hermitian(dB, rng))
            # [0, 0] is <O_A, 1> and [1, 1] is <1, O_B>. The output state comes from
            # apply, a per-Kraus loop the kernel does not share.
            values = two_time_grid(process, [O_A, Observable(np.eye(dA))],
                                   [Observable(np.eye(dB)), O_B])
            worst_marg = max(
                worst_marg,
                abs(values[0, 0] - float(np.trace(process.rho @ O_A.matrix).real)),
                abs(values[1, 1]
                    - float(np.trace(apply(process.channel, process.rho) @ O_B.matrix).real)),
            )
    report.add("light-touch trace formula (uniqueness theorem)", worst_lt)
    report.add("reconstruction matches closed form", worst_rec)
    report.add("one-time marginal identities", worst_marg)

    # Special-case bilinearity: maximally mixed input and discard-and-prepare.
    worst_mm = worst_dp = 0.0
    for dA, dB in itertools.product(dims, repeat=2):
        for _ in range(trials):
            chan = random_process(dA, dB, rng).channel
            mixed = Process(chan, np.eye(dA) / dA)
            sigma = random_density(dB, rng)
            rho = random_density(dA, rng)
            dp = Process(discard_prepare(sigma, dim_in=dA), rho)
            # Five random pairs per case, O_A drawn before O_B.
            pairs = [(Observable(random_hermitian(dA, rng)), Observable(random_hermitian(dB, rng)))
                     for _ in range(10)]
            worst_mm = max(worst_mm,
                           representability_residual(mixed, chan.jamiolkowski / dA, pairs[:5]))
            worst_dp = max(worst_dp, representability_residual(dp, np.kron(rho, sigma), pairs[5:]))
    report.add("maximally mixed input is representable", worst_mm)
    report.add("discard-and-prepare is representable", worst_dp)

    # Maximality: every non-light-touch observable admits a counterexample.
    worst_gap = np.inf
    for d in dims:
        for _ in range(trials):
            M = random_hermitian(d, rng)
            O_A = Observable(M)
            if O_A.is_light_touch:
                continue
            _, _, residual = maximality_counterexample(O_A)
            worst_gap = min(worst_gap, residual)
    report.add("non-light-touch counterexample residual", worst_gap, least=COUNTEREXAMPLE_RTOL)
    return report


def verify_nogo(seed: int = 0xC0FFEE) -> SuiteReport:
    """Constructed witness: exact nonlinearity gap, light-touch vs general residuals."""
    seed = _as_seed(seed)
    rng = np.random.default_rng(seed)
    report = SuiteReport(suite="nogo", seed=seed)
    worst_gap_dev = 0.0
    worst_lt = 0.0
    min_general = np.inf
    for m, n in NOGO_DIM_PAIRS:
        witness = nonrepresentable_witness(m, n)
        worst_gap_dev = max(worst_gap_dev, abs(witness.gap - 2.0))
        X = canonical_sot(witness.process).matrix
        worst_lt = max(
            worst_lt,
            representability_residual(witness.process, X, light_touch_probes(m, n)),
        )
        probes = [(witness.O_A_diff, witness.O_B)] + general_probes(m, n, rng)
        min_general = min(
            min_general, representability_residual(witness.process, X, probes)
        )
    report.add("witness nonlinearity gap equals 2", worst_gap_dev)
    report.add("light-touch residual of witness", worst_lt)
    report.add("general-probe residual of witness", min_general, least=NOGO_RESIDUAL_MIN)
    return report


def sic_fiducial_grid():
    """Thirty-plus fiducials across the V and W families and all permutations."""
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    angles = (np.pi / 3, np.pi, 5 * np.pi / 3)
    fiducials = []
    r0_values = (1 / np.sqrt(2) + 1e-3, 0.75, np.sqrt(2 / 3))
    for perm in perms:
        for chi in np.linspace(0.0, 2 * np.pi, 10, endpoint=False):
            fiducials.append(sic_fiducial_w(chi, perm))
        for r0 in r0_values:
            for theta in angles:
                for phi in angles:
                    fiducials.append(sic_fiducial_v(r0, theta, phi, perm))
    return fiducials


def verify_sic(seed: int = 0xC0FFEE) -> SuiteReport:
    """SIC overlap, resolution of identity, and light-touch Gram checks."""
    seed = _as_seed(seed)
    report = SuiteReport(suite="sic", seed=seed)
    worst_overlap = worst_sum = worst_gram = 0.0
    for psi in sic_fiducial_grid():
        povm = sic_povm(psi)
        worst_overlap = max(worst_overlap, povm.overlap_residual)
        total = sum(povm.projectors) / 3
        worst_sum = max(worst_sum, float(np.linalg.norm(total - np.eye(3))))
        basis = light_touch_basis_qutrit(povm)
        worst_gram = max(
            worst_gram, float(np.abs(gram_matrix(basis) - 3 * np.eye(9)).max())
        )
    report.add("pairwise overlaps equal 1/4", worst_overlap)
    report.add("rescaled projectors resolve identity", worst_sum)
    report.add("light-touch basis Gram equals 3I", worst_gram)

    # Negative control: the same construction in d=4 has cross terms 4/5.
    u = np.zeros(4, dtype=complex)
    u[0] = 1.0
    v = np.array([1.0, 2.0, 0.0, 0.0], dtype=complex) / np.sqrt(5)
    L_u = 2 * np.outer(u, u.conj()) - np.eye(4)
    L_v = 2 * np.outer(v, v.conj()) - np.eye(4)
    cross = np.vdot(L_u, L_v).real
    report.add("d=4 analogue cross term equals 4/5", abs(cross - 0.8))
    return report


def run_suites(names, dims=(2, 3), trials: int = 25, seed: int = 0xC0FFEE,
               tol: float | None = None) -> list:
    """The named suites' reports, in order.

    One range rule holds for every suite, whether or not it reads the value: trials
    at least 1, a non-empty dims, each in 2..6, a seed in [0, 2^64) and a finite tol >= 0.
    It is checked before any suite runs. A ``tol`` (0 included) replaces CLAIM_TOL for
    every "max" claim; "min" claims keep their floors.
    """
    dims, trials, seed, tol = _checked(dims, trials, seed, tol)
    out = []
    for name in names:
        if name == "theorems":
            out.append(verify_theorems(dims=dims, trials=trials, seed=seed))
        elif name == "nogo":
            out.append(verify_nogo(seed=seed))
        elif name == "sic":
            out.append(verify_sic(seed=seed))
        else:
            raise InvalidParameter(f"unknown suite {name!r}")
        if tol is not None:
            out[-1].claims = [replace(c, tolerance=tol) if c.direction == "max" else c
                              for c in out[-1].claims]
    return out
