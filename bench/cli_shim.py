"""Traced stand-in for ``python -m gmmodes.cli``.

Usage: python -X importtime bench/cli_shim.py SPANS_OUT [gmmodes cli args...]

Imports gmmodes, wraps the public functions of its layers, runs
``gmmodes.cli.main`` on the remaining arguments and writes the spans, plus
the names of the modules loaded before ``main`` started, to SPANS_OUT.
Everything the CLI prints goes to this process's stdout as usual.
"""

import json
import sys

from tracer import Tracer


def run(out_path: str, argv: list[str]) -> int:
    import gmmodes
    import gmmodes.cli as cli

    tracer = Tracer()
    tracer.install({"gmmodes": gmmodes, "mixture": gmmodes.mixture, "modefinder": gmmodes.modefinder,
                    "constructions": gmmodes.constructions, "cli": cli})
    eager = sorted(sys.modules)
    try:
        return cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"eager_modules": eager, "spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
