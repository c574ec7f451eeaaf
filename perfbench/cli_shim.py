"""Run one ellfib command line with the span recorder installed.

Usage: python cli_shim.py SPANS_JSON VERB [ARGS...]

Behaves like the `ellfib` console script (same stdout, stderr and exit
code) and writes the process's spans to SPANS_JSON when the verb
returns.  The traced round of the cli workload uses it.
"""

import sys
from pathlib import Path

from tracing import Recorder

import ellfib.cli


def main() -> int:
    recorder = Recorder()
    recorder.install()
    try:
        code = ellfib.cli.main(sys.argv[2:])
    finally:
        recorder.uninstall()
        recorder.dump(Path(sys.argv[1]))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
