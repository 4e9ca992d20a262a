"""Runs one ModelServer in its own process for the serve-http workload.

Usage: ``python3 perfbench/serve_launcher.py REPO_URL [--trace-out PATH]``

Prints ``{"port": N}`` once the server listens, then answers ``stop`` on
stdin, and ``reset``, which drops the spans recorded so far (see
:class:`perfbench.common.Launched`).  With ``--trace-out`` the
server layers are wrapped by :mod:`perfbench.tracer` and the spans are
written to PATH when the server stops.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from perfbench import tracer as tr
from perfbench.common import launcher_loop


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("repo")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    tracer = tr.Tracer("server")
    if args.trace_out:
        tr.install(tracer, tr.SERVER_TARGETS)
        tracer.enabled = True

    from repro.serve import ModelServer, ServeConfig

    server = ModelServer(args.repo, ServeConfig()).start()
    print(json.dumps({"port": server.port}), flush=True)

    def stop() -> dict:
        server.stop(drain=True)
        if args.trace_out:
            tracer.enabled = False
            tracer.dump(Path(args.trace_out))
        return {"stopped": True}

    def reset() -> dict:
        tracer.clear()
        return {"spans": 0}

    launcher_loop({"reset": reset, "stop": stop})


if __name__ == "__main__":
    main()
