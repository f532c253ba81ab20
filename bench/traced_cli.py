"""Run one revolve CLI job with span tracing.

    python3 bench/traced_cli.py SUBCOMMAND --config PATH [...]

Behaves like ``python -m revolve.cli`` (same output, same exit code) and
also writes one line ``BENCH-SPANS <json>`` to stderr with the span
totals of the job.  revolve must be importable (PYTHONPATH=src).
"""

import json
import sys

from revolve import cli
from spans import SPANS_PREFIX, Tracer, install, summary

if __name__ == "__main__":
    tracer = Tracer()
    install(tracer)
    tracer.begin_op()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.end_op()
    sys.stdout.flush()
    print(SPANS_PREFIX + json.dumps(summary(tracer)), file=sys.stderr)
    sys.exit(code)
