"""Runs a 3-node HubFleet in its own process for the hub-pull workload.

Usage: ``python3 perfbench/fleet_launcher.py ROOT SOURCE_REPO NAME
[--trace-out PATH]``

Starts the fleet under ROOT, publishes SOURCE_REPO to the primary as
NAME, syncs the replicas, and prints ``{"urls": [...]}``.  Then answers
``stats`` (the process's own span count), ``reset`` (drop the spans
recorded so far) and ``stop`` on stdin.  With
``--trace-out`` the hub layers are wrapped by :mod:`perfbench.tracer`
and the spans are written to PATH when the fleet stops.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from perfbench import tracer as tr
from perfbench.common import launcher_loop


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("source")
    parser.add_argument("name")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    tracer = tr.Tracer("fleet")
    if args.trace_out:
        tr.install(tracer, tr.FLEET_TARGETS)
        tracer.enabled = True

    from repro.dlv.repository import Repository
    from repro.hub import HubFleet
    from repro.obs.tracing import get_recorder

    fleet = HubFleet(args.root, size=3).start()
    with Repository.open(args.source) as repo:
        fleet.publish(repo, args.name)
    fleet.sync()
    print(json.dumps({"urls": fleet.urls}), flush=True)

    def stop() -> dict:
        fleet.stop()
        if args.trace_out:
            tracer.enabled = False
            tracer.dump(Path(args.trace_out))
        return {"stopped": True}

    def reset() -> dict:
        tracer.clear()
        return {"spans": 0}

    launcher_loop({
        "stats": lambda: {"spans_total": get_recorder().total_recorded},
        "reset": reset,
        "stop": stop,
    })


if __name__ == "__main__":
    main()
