"""Run a ``python -m repro`` command with layer spans recorded.

``python perfbench/launch.py SPANS.json serve --port 0 ...`` installs
the span wrappers of :mod:`spans` in this process and runs the command
through ``repro.cli.main``.  Recording starts switched off; SIGUSR2
switches it on or off, and SIGUSR1 writes the spans recorded so far to
``SPANS.json``.  The benchmark sends SIGUSR1 when its measurement ends,
before it stops the server.
"""

import signal
import sys

import repro.cli
import repro.fleet  # noqa: F401 - loaded before the wrappers go in
import repro.service  # noqa: F401
from spans import SpanRecorder, install

if __name__ == "__main__":
    recorder = SpanRecorder()
    recorder.enabled = False
    install(recorder)

    def toggle(*_):
        recorder.enabled = not recorder.enabled

    signal.signal(signal.SIGUSR2, toggle)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(sys.argv[1]))
    sys.exit(repro.cli.main(sys.argv[2:]))
