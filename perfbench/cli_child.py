"""Run the glct command line with tracing wrappers installed.

Usage: ``python3 cli_child.py SPANS_JSON <glct arguments...>``

Behaves like ``python3 -m glct.cli <glct arguments...>`` and also writes the
spans recorded during ``glct.cli.main`` to SPANS_JSON. The benchmark uses it
for the traced passes of the ``large_graph_cli`` workload.
"""
import json
import sys
from pathlib import Path

import glct.cli
from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = glct.cli.main(argv)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
