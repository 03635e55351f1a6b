"""Server child of the benchmark: ``rgc serve`` on 127.0.0.1, optionally traced.

Run as ``python3 -u perfbench/serve.py [--trace]`` with ``src`` on
PYTHONPATH.  It runs the real ``rgc serve`` command on an ephemeral port, so
its first stdout line is the CLI's own "serving on HOST:PORT" line.  It stops
when its stdin reaches end of file (the parent closed it or died): a watcher
thread then interrupts the main thread, which is what ctrl-c does to
``rgc serve``.  With ``--trace`` the tracer wraps the server's ``rgc``
functions, and the recorded spans are printed as one ``TRACE_PREFIX`` line
after the server has shut down.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading

TRACE_PREFIX = "perfbench-trace "


def _stop_on_stdin_eof() -> None:
    sys.stdin.buffer.read()
    os.kill(os.getpid(), signal.SIGINT)


def main(argv: list[str]) -> int:
    from rgc import cli

    tracer = None
    if "--trace" in argv:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    threading.Thread(target=_stop_on_stdin_eof, daemon=True).start()
    try:
        rc = cli.main(["serve", "--host", "127.0.0.1", "--port", "0"])
    except KeyboardInterrupt:       # stopped before the serve loop began
        rc = 0
    if tracer is not None:
        tracer.uninstall()
        print(TRACE_PREFIX + json.dumps(tracer.export()), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
