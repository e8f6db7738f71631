"""``serve-http`` with the benchmark's span wrappers installed first.

Usage: ``traced_server.py SPANS.json <serve-http arguments>``. The
wrappers go on before the CLI builds anything, then ``repro.cli.main``
runs exactly as ``python -m repro.cli serve-http`` would, so the process
has the same threads, edge and flags as the untraced server. Spans stay
in memory; SIGTERM shuts the server down the way Ctrl-C does and then
writes them to ``SPANS.json``.
"""

from __future__ import annotations

import signal
import sys

import spans


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    recorder = spans.Recorder()
    wrapped = spans.install(recorder)
    from repro.cli import main as cli_main

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(["serve-http"] + serve_args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        recorder.dump(spans_path, {"wrapped": wrapped})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
