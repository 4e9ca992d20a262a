"""hub-pull: one caller pulls a published repo from a 3-node HubFleet.

The fleet (a primary and two replicas, each its own HTTP server) runs in
its own process (``fleet_launcher.py``).  It publishes a small local-fs
repository, one file per stored byte plane, and syncs the replicas.  The
caller runs ``HubClient(<3 peer URLs>).pull(name, <fresh dest>)`` in a
closed loop; every pull is one request per file plus the metadata
requests, which makes this the only workload through ``repro.hub`` and
its HTTP server.
"""

from __future__ import annotations

import os
import shutil
import time
from statistics import median

from perfbench import checks, inputs
from perfbench import tracer as tr
from perfbench.common import (
    Launched, Outcome, environment, peak_rss_mb,
)
from repro.hub import HubClient, RemoteHub
from repro.obs.metrics import counter
from repro.obs.tracing import get_recorder

NAME = "hub-mlp"
SETUPS = 3           # fleet spawns per run; setup_s is their median
TAIL_PCT = 75        # fixed, with >= 10 samples beyond it at MIN_OPS
MIN_OPS = 40


def _spawn(source, workdir, trace_out=None) -> tuple[Launched, float]:
    """Fleet spawn, publish and sync, until every peer answers healthy."""
    args = [str(workdir.fresh("fleet")), str(source), NAME]
    if trace_out:
        args += ["--trace-out", str(trace_out)]
    fleet = Launched("fleet_launcher.py", args, workdir.path)
    for url in fleet.hello["urls"]:
        with RemoteHub(url) as peer:
            while peer.health().get("status") != "ok":
                time.sleep(0.005)
    return fleet, time.perf_counter() - fleet.started


def _tree_bytes(root) -> tuple[int, int]:
    files = size = 0
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def _window(urls, source_snapshots, seconds, workdir, tracer,
            min_ops=MIN_OPS):
    """Closed loop of pulls; each pulled copy is checked, then deleted,
    outside the timed intervals.  Returns records and busy seconds."""
    records, busy = [], 0.0
    client = HubClient(urls)
    try:
        while busy < seconds or len(records) < min_ops:
            dest = workdir.fresh("pull")
            t0 = time.perf_counter()
            try:
                with tracer.span("op"):
                    client.pull(NAME, dest)
                reason = None
            except Exception as exc:  # noqa: BLE001 - a failed op
                reason = f"pull failed: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            busy += elapsed
            traced, tracer.enabled = tracer.enabled, False
            if reason is None:
                reason = checks.pulled_repo(dest, source_snapshots)
            tracer.enabled = traced
            records.append((elapsed, _tree_bytes(dest)[1], reason))
            shutil.rmtree(dest, ignore_errors=True)
    finally:
        client.close()
    return records, busy


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    out = Outcome(seed)
    source = workdir.fresh("hub-source")
    with inputs.hub_source(seed, source) as repo:
        source_snapshots, _ = checks.snapshot_set(repo)
    files, size = _tree_bytes(source / ".dlv")
    out.notes["environment"] = environment(
        "local-fs", "fsync per blob and directory")
    out.notes["source"] = f"{files} files, {size} bytes"
    out.notes["load"] = "1 closed-loop caller over 3 peers"
    tracer = tr.Tracer("load")

    failovers = counter("hub.fleet.failovers")
    setup = []
    fleet = None
    try:
        for _ in range(SETUPS):
            if fleet is not None:
                fleet.stop()
            fleet, seconds_to_healthy = _spawn(source, workdir)
            setup.append(seconds_to_healthy)
        urls = fleet.hello["urls"]
        _window(urls, source_snapshots, 0, workdir, tracer, 2)  # warm-up
        failovers_before = failovers.value
        fleet_spans = fleet.call("stats")["spans_total"]
        spans_before = get_recorder().total_recorded
        records, busy = _window(urls, source_snapshots, seconds, workdir,
                                tracer)
        spans = get_recorder().total_recorded - spans_before
        fleet_spans = fleet.call("stats")["spans_total"] - fleet_spans
        failed_over = failovers.value - failovers_before
        rss = peak_rss_mb(fleet.pid)
    finally:
        if fleet is not None:
            fleet.stop()

    for record in records:
        out.count(record[2])
    ops = len(records)
    out.measured(setup, [r[0] for r in records], busy, rss, TAIL_PCT)
    if not trace:
        return out

    layer = {
        "error_ratio": out.failed / out.attempted,
        "bytes_read_per_op": sum(r[1] for r in records) / ops,
        "hub.bytes_per_op": sum(r[1] for r in records) / ops,
        "hub.failovers_per_op": failed_over / ops,
        "obs.spans_per_op": (spans + fleet_spans) / ops,
    }

    trace_out = workdir.path / "fleet-spans.json"
    fleet = None
    try:
        fleet, _ = _spawn(source, workdir, trace_out)
        urls = fleet.hello["urls"]
        _window(urls, source_snapshots, 0, workdir, tracer, 2)  # warm-up
        fleet.call("reset")
        tr.install(tracer, tr.LOAD_TARGETS)
        tracer.enabled = True
        traced, traced_busy = _window(urls, source_snapshots, seconds,
                                      workdir, tracer)
        tracer.enabled = False
    finally:
        if fleet is not None:
            fleet.stop()
    for record in traced:
        out.count(record[2])
    spans = tracer.spans + tr.load_spans([trace_out])
    n = len(traced)
    requests = [s for s in spans if s[tr.NAME].startswith("RemoteHub.")]
    fetches = tr.named(spans, "RemoteHub.fetch_file")
    layer.update({
        "hub.requests_per_op": len(requests) / n,
        "hub.fetch_ms_per_file": tr.ms_per_op(
            fetches, len(fetches), "RemoteHub.fetch_file"),
    })
    layer.update(tr.layer_metrics(spans, n, False, {"hub"}))
    layer["trace.overhead"] = 1.0 - (n / traced_busy) / (ops / busy)
    out.per_layer = layer
    return out
