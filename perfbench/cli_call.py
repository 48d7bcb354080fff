"""Run one ``qsot`` command in this interpreter, as the console script does.

Usage: python3 perfbench/cli_call.py [--trace SPANS.json.gz] QSOT-ARGS...

With ``--trace`` the layer spans are installed before ``qsot.cli.main`` runs and
written to the given file when it returns.  The package is found through
PYTHONPATH, which the benchmark points at the checkout's ``src``.
"""

import sys


def run(argv):
    if argv[:1] != ["--trace"]:
        from qsot.cli import main

        return main(argv)
    import tracing
    from qsot import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        tracing.write_spans(argv[1], [tracer.spans()])


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
