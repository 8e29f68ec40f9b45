"""Run one seaqt subcommand with the benchmark's tracer installed and write
the trace statistics to a JSON file.

    python3 bench/cli_child.py STATS_JSON SUBCOMMAND --config FILE --out DIR

The exit code is the subcommand's.  ``src`` must be on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import seaqt
from seaqt import cli

import tracing


def main() -> int:
    stats_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    with tracer.installed(seaqt):
        code = tracer.span(f"cli.{argv[0]}", cli.main)(argv)
    stats_path.write_text(json.dumps(tracer.stats()))
    return code


if __name__ == "__main__":
    sys.exit(main())
