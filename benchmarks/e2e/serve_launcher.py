"""Start the server with the benchmark's span wrappers installed.

    python benchmarks/e2e/serve_launcher.py SPANS.jsonl serve --listen ...

Installs :func:`spans.install`, runs ``repro.cli.main`` on the remaining
arguments, and writes the spans as JSONL once the server has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

import spans


def main(argv: list[str]) -> int:
    path, *cli_args = argv
    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.write(Path(path))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
