"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 validation
error. All randomness flows from --seed (default 0xC0FFEE): the same command
with the same seed writes the same document.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import os
import sys

# One BLAS thread unless the user chose: on matrices this small (36x36 at most in
# `verify`) a second OpenBLAS thread adds CPU and no speed. OpenBLAS reads this
# once, when numpy is first imported, so it is set before the imports below.
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import io  # noqa: E402
from .errors import NumericalFailure, ParameterOutOfRange, QsotError  # noqa: E402
from .linalg import SAMPLE_RTOL, SAMPLE_SIGMAS  # noqa: E402
from .observables import (  # noqa: E402
    light_touch_basis_qutrit,
    sic_fiducial_v,
    sic_fiducial_w,
    sic_povm,
)
from .sot import canonical_sot, reconstruct_unique  # noqa: E402
from .twotime import _frames, two_time_ev  # noqa: E402


def _lazy_submodule(name: str):
    """The package's submodule ``name``, whose code runs on its first attribute access.

    It sits in ``sys.modules`` from the start, like an eagerly imported one, so
    code that imports ``qsot.cli`` and then looks a layer up there finds it
    (``perfbench/tracing.py`` does), but only the commands that use it pay for
    compiling and running it.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


sampler = _lazy_submodule("sampler")  # sample and pdm-reconstruct --shots
verify = _lazy_submodule("verify")  # verify

DEFAULT_SEED = 0xC0FFEE
SEED_LIMIT = 1 << 64  # sampler.SEED_LIMIT, kept here so parsing --seed loads no sampler

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


def _seed(text: str) -> int:
    """A seed in [0, 2^64), written in any base Python's int() accepts with base 0."""
    try:
        seed = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {text}")
    return seed


def _tol(text: str) -> float:
    """A finite tolerance >= 0."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return tol


def _dims(text: str) -> tuple:
    """Comma-separated dimensions, e.g. 2,3."""
    try:
        return tuple(int(d) for d in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _permutation(text: str) -> tuple:
    """A permutation of the basis indices as a digit string, e.g. 120."""
    try:
        return tuple(int(c) for c in text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a string of digits, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help="seed for all randomness (default 0xC0FFEE)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "pretty"), default="pretty",
                        help="output formatting")


def _emit(doc: dict, args) -> None:
    io.dump_document(doc, args.out, pretty=args.format == "pretty")


def cmd_sot(args) -> int:
    _, payload = io.load_document(args.process_file, expect_kind="process")
    process = io.process_from_payload(payload)
    _emit(io.sot_doc(canonical_sot(process)), args)
    return EXIT_OK


def cmd_sic(args) -> int:
    if args.family == "W":
        fiducial = sic_fiducial_w(args.chi, args.permutation)
    else:
        if args.r0 is None:
            raise ParameterOutOfRange("family V requires --r0")
        fiducial = sic_fiducial_v(args.r0, args.theta, args.phi, args.permutation)
    povm = sic_povm(fiducial)
    basis = light_touch_basis_qutrit(povm)
    doc = io.envelope(
        "report",
        {
            "fiducial": [[float(z.real), float(z.imag)] for z in povm.fiducial],
            "projectors": [io.matrix_to_json(P) for P in povm.projectors],
            "light_touch_basis": [io.matrix_to_json(L.matrix) for L in basis],
            "overlap_residual": povm.overlap_residual,
            "passed": True,
        },
    )
    _emit(doc, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = ("theorems", "nogo", "sic") if args.suite == "all" else (args.suite,)
    reports = verify.run_suites(names, dims=args.dims, trials=args.trials, seed=args.seed,
                                tol=args.tol)
    for report in reports:
        for claim in report.claims:
            status = "PASS" if claim.passed else "FAIL"
            print(f"[{status}] {report.suite}: {claim.name} "
                  f"(residual {claim.residual:.3e}, tolerance {claim.tolerance:g})",
                  file=sys.stderr)
    _emit(io.report_doc(reports), args)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def cmd_sample(args) -> int:
    _, payload = io.load_document(args.process_file, expect_kind="process")
    process = io.process_from_payload(payload)
    _, pa = io.load_document(args.observable_a, expect_kind="observable")
    _, pb = io.load_document(args.observable_b, expect_kind="observable")
    O_A = io.observable_from_payload(pa)
    O_B = io.observable_from_payload(pb)
    with np.errstate(over="ignore", invalid="ignore"):  # judged below, not warned about
        A, B, (probs,), (products,), (counts,), (mean,), (var,) = sampler._draw(
            process, [O_A], [O_B], args.shots, args.seed)
        mean, stderr = float(mean), float(np.sqrt(var / args.shots))
        exact = two_time_ev(process, O_A, O_B)
        # The standard error of a mean of n draws from P: the sample's is 0 at one shot.
        exact_stderr = math.sqrt(float(np.sum(probs * (products - exact) ** 2)) / args.shots)
    if not all(map(math.isfinite, (mean, stderr, exact, exact_stderr))):
        raise NumericalFailure("outcome products overflow the float range")
    passed = abs(mean - exact) <= (SAMPLE_SIGMAS * exact_stderr
                                   + SAMPLE_RTOL * float(np.abs(products).max()))
    doc = io.envelope(
        "report",
        {
            "shots": args.shots,
            "seed": args.seed,
            "outcomes_A": [float(x) for x in A.eigenvalues],
            "outcomes_B": [float(x) for x in B.eigenvalues],
            "counts": [[int(c) for c in row] for row in counts.reshape(len(A.eigenvalues), -1)],
            "estimate": mean,
            "stderr": stderr,
            "exact": exact,
            "exact_stderr": exact_stderr,
            "passed": passed,
        },
    )
    _emit(doc, args)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def cmd_pdm_reconstruct(args) -> int:
    _, payload = io.load_document(args.process_file, expect_kind="process")
    process = io.process_from_payload(payload)
    if args.shots is None:
        sot = reconstruct_unique(process)
    else:
        basis_A, basis_B = _frames(process.dim_in)[0], _frames(process.dim_out)[1]
        sot = sampler.estimate_pdm(process, basis_A, basis_B, args.shots, args.seed)
    _emit(io.sot_doc(sot), args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsot",
        description="States over time, pseudo-density matrices, and sequential "
                    "measurement statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sot", help="canonical state over time of a process file")
    p.add_argument("process_file")
    _add_common(p)
    p.set_defaults(func=cmd_sot)

    p = sub.add_parser("sic", help="generate a qutrit SIC-POVM and its light-touch basis")
    p.add_argument("--family", choices=("W", "V"), default="W")
    p.add_argument("--chi", type=float, default=0.0, help="W-family phase in [0, 2 pi)")
    p.add_argument("--r0", type=float, default=None, help="V-family radial parameter")
    p.add_argument("--theta", type=float, default=np.pi, help="V-family phase")
    p.add_argument("--phi", type=float, default=np.pi, help="V-family phase")
    p.add_argument("--permutation", type=_permutation, default="012",
                   help="basis permutation, e.g. 120")
    _add_common(p)
    p.set_defaults(func=cmd_sic)

    p = sub.add_parser("verify", help="run numerical verification suites")
    p.add_argument("suite", choices=("theorems", "nogo", "sic", "all"))
    p.add_argument("--dims", type=_dims, default=(2, 3),
                   help="comma-separated dimensions in 2..6")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--tol", type=_tol, default=None,
                   help='replaces CLAIM_TOL (1e-10) for every "max" claim, 0 included; '
                        '"min" claims keep their floors')
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="simulate the sequential measurement protocol")
    p.add_argument("process_file")
    p.add_argument("observable_a")
    p.add_argument("observable_b")
    p.add_argument("--shots", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("pdm-reconstruct",
                       help="reconstruct the pseudo-density matrix (exact or sampled)")
    p.add_argument("process_file")
    p.add_argument("--shots", type=int, default=None,
                   help="shots per basis pair; omit for exact reconstruction")
    _add_common(p)
    p.set_defaults(func=cmd_pdm_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except io.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except QsotError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
