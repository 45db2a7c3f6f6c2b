"""Run the ``serve`` CLI with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_boot.py --spans OUT serve <serve args>``.
Installs the same wrappers as the traced in-process runs, calls the normal
``repro.cli`` entry point, and writes the recorded spans to ``OUT`` once the
server has stopped.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: serve_boot.py --spans OUT serve ...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
