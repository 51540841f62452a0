"""``python -m fermisep`` with spans recorded; used by traced runs only.

Usage: traced_cli.py SPANS_FILE ARGS...  Runs fermisep.cli.main(ARGS) with
the tracer installed, times the import of fermisep.cli as ``cli.import``, and
writes the spans to SPANS_FILE before exiting with main's exit code. With
SPANS_FILE ``-`` it installs nothing and writes nothing, so that the same
launcher gives the untraced times that trace.overhead_ms subtracts.
"""

import sys
from pathlib import Path
from time import perf_counter_ns

start = perf_counter_ns()
import fermisep.cli  # noqa: E402

end = perf_counter_ns()

import tracing  # noqa: E402

if __name__ == "__main__":
    if sys.argv[1] == "-":
        sys.exit(fermisep.cli.main(sys.argv[2:]))
    tracer = tracing.Tracer()
    tracer.record("cli.import", start, end)
    tracer.install()
    tracer.op = 0
    try:
        code = fermisep.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(Path(sys.argv[1]))
    sys.exit(code)
