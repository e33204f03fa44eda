"""`python -m sollink.cli` under the tracer, for the traced passes of cli-mix.

Stdout and the exit code are the CLI's own.  The trace snapshot goes to the
end of stderr after a marker line prefix, which workloads.py strips off.
"""

import json
import sys

import sollink.cli
from tracer import TRACE_MARK, Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = sollink.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")
    sys.exit(code)
