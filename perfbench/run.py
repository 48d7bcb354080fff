"""qsot benchmark: one caller, closed loop, whole passes over seeded inputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are ``theorem-grid``, ``pdm-sampled`` and ``cli-oneshot`` (see
README.md).  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it installs the layer spans, reports the per-layer metrics and
writes the spans to ``perfbench/runs/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports, inputs, warm-up

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"
SETUP_PROBES = 4  # fresh-interpreter set-ups spread over the run; setup_s is their median with the run's own
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up only and print the set-up time (used by the benchmark itself)")
    return p.parse_args(argv)


def cpu_seconds():
    """User and system CPU of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=PROBE_TIMEOUT_S)
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def measure(ops, seconds, probe, probes):
    """Repeat whole passes over ``ops`` until they have run for ``seconds``.

    Only the calls into the program are timed, not the checks of their
    outputs.  Between passes, at evenly spaced points of the run, ``probe``
    is called ``probes`` times, outside the timed calls, so set-up is sampled
    across the machine's slow and fast spells like the operations are.
    """
    latencies, errors, failures, setups = [], [], [], []
    attempted, wall, cpu = 0, 0.0, 0.0
    while True:
        if len(setups) < probes and wall >= len(setups) * seconds / probes:
            setups.append(probe())
        for op in ops:
            attempted += 1
            failure = None
            cpu0, t = cpu_seconds(), time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the program failed this operation; count it
                failure = f"{op.label}: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            wall += dt
            cpu += cpu_seconds() - cpu0
            if failure:
                failures.append(failure)
                continue
            latencies.append(dt)
            reason = op.check(out)
            if reason:
                errors.append(f"{op.label}: {reason}")
        if wall >= seconds:
            break
    return {"attempted": attempted, "wall": wall, "cpu": cpu, "setups": setups,
            "latencies": latencies, "errors": errors, "failures": failures}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "qsot" / "__init__.py").is_file():
        print(f"error: no qsot package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, Path(workdir), tracer)
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        first = len(tracer) if tracer is not None else 0
        probes = 0 if args.trace else SETUP_PROBES
        res = measure(wl.ops, args.seconds, lambda: probe_setup(args), probes)
        setups = [setup_s] + res["setups"]

    attempted, failed = res["attempted"], len(res["failures"])
    errors = wl.setup_errors + res["errors"]
    for line in (errors + res["failures"])[:10]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} ops ({failed} failed) in "
          f"{res['wall']:.2f} s, {attempted / res['wall']:.3f} op/s, "
          f"set-up {statistics.median(setups):.3f} s{' (traced)' if args.trace else ''}",
          file=sys.stderr)

    if args.trace:
        if hasattr(wl, "span_lists"):  # one span list per traced interpreter
            span_lists = all_spans = wl.span_lists
            cold = [e - s for spans in span_lists for n, s, e, _ in spans
                    if n == "sot.reconstruct_unique"]
        else:  # in-process: the spans before ``first`` are the set-up's
            all_spans, span_lists = [tracer.spans()], [tracer.spans(first)]
            cold = [e - s for n, s, e, _ in all_spans[0][:first] if n == "sot.reconstruct_unique"]
        startup = getattr(wl, "startup_ms", [])
        values = tracing.layer_metrics(
            span_lists, attempted,
            cold_ms=statistics.fmean(cold) / 1e6 if cold else 0.0,
            startup_ms=statistics.fmean(startup) if startup else 0.0)
        units = tracing.metric_names()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        trace_path = RUNS / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracing.write_spans(trace_path, all_spans)
        print(f"spans written to {trace_path}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": attempted / res["wall"], "unit": "op/s"},
            "op_p50_ms": {"value": statistics.median(res["latencies"]) * 1e3
                          if res["latencies"] else 0.0, "unit": "ms"},
            "cpu_ms_per_op": {"value": res["cpu"] * 1e3 / attempted, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
