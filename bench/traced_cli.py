"""``python -m polargrass.cli`` under the benchmark's tracer.

    python3 bench/traced_cli.py TRACE_FILE VERB ARGS...

Runs one CLI command exactly as ``python -m polargrass.cli`` does, with
spans on the program's public functions, and writes their self times and
counts to TRACE_FILE.  The import itself is measured separately, with
``-X importtime``.
"""

import json
import sys

import polargrass.cli

from tracer import Tracer

if __name__ == "__main__":
    trace_file, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        polargrass.cli.main(args, prog_name="polargrass")
        code = 0
    except SystemExit as exc:
        code = exc.code
    tracer.uninstall()
    with open(trace_file, "w") as fh:
        json.dump({"self_s": tracer.self_s, "counts": tracer.counts}, fh)
    sys.exit(code)
