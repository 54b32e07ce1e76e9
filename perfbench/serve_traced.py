"""Run ``repro serve`` with the benchmark's tracer installed.

Usage: ``python perfbench/serve_traced.py SPANS_OUT serve [serve args]``.
The wrappers are installed before the CLI starts the service; the
spans are written to ``SPANS_OUT`` after the SIGTERM drain returns.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer(out_dir=out.parent)
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
