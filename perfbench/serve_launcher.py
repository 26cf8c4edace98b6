"""Start ``repro-experiments serve`` with the per-layer timing wrappers.

Used only by traced serving runs::

    python3 perfbench/serve_launcher.py DUMP_DIR serve --port 0 ...

The wrappers are installed before the command starts, so the shard
supervisor's forked workers inherit them.  Each worker writes its totals
into ``DUMP_DIR`` when it exits; this process writes its own on exit too
(single-process ``serve`` has no SIGTERM drain, so a SIGTERM handler
writes them and then lets the signal end the process as it otherwise
would).
"""

from __future__ import annotations

import os
import signal
import sys


def main(argv: list[str]) -> int:
    dump_dir, cli_args = argv[0], argv[1:]
    sys.path.pop(0)  # this directory; the bench puts the checkout on PYTHONPATH
    from perfbench import layers
    from repro import cli

    clock = layers.LayerClock(dump_dir)
    layers.attach(clock)
    if "--workers" not in cli_args:

        def stop(signum, frame):
            clock.dump()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, stop)
    code = cli.main(cli_args)
    clock.dump()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
