"""pas-recreate: one caller of Repository.get_snapshot_weights on the SD repo.

The SD repository (6 versions x 4 snapshots of a half-width VGG-mini) is
built on the local-fs backend and archived with ``archive(alpha=1.6,
dedup=True)``, so reads meet materialized, ``sub``-delta and page-encoded
payloads.  Queries pick a snapshot uniformly and a plane budget of 1, 2
or 4 in equal shares (the paper's Table V queries).  There is no program
cache and no HTTP on this path: catalog, retrieval, storage get, plane
assembly and delta apply do all the work.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from perfbench import checks, inputs
from perfbench import tracer as tr
from perfbench.common import (
    Outcome, environment, peak_rss_mb, reset_peak_rss,
)
from repro.dlv.repository import Repository
from repro.obs.metrics import counter
from repro.obs.tracing import get_recorder

PLANES = (1, 2, 4)
OPENS = 50           # Repository.open calls per run; setup_s is the median
TAIL_PCT = 95        # fixed, with >= 10 samples beyond it at MIN_OPS
MIN_OPS = 500        # ~15 s on the reference machine: averages over
                     # its speed drift
QUERIES = 1 << 15


def _queries(seed: int, snapshots: list) -> list[tuple]:
    """(version, snapshot position, planes): snapshots uniform, budgets in
    equal shares (each block of three holds 1, 2 and 4 once)."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(snapshots), QUERIES)
    budgets = np.concatenate([
        rng.permutation(PLANES) for _ in range(QUERIES // len(PLANES) + 1)
    ])
    return [
        (*snapshots[i], int(p)) for i, p in zip(picks.tolist(), budgets)
    ]


def _prepare(path) -> dict:
    """Build and archive the SD repo; record what the checks compare to."""
    repo = inputs.sd_repo(path)
    try:
        view = repo.archive_view()
        committed = {
            row["matrix_id"]: view.recreate_matrix(row["matrix_id"])
            for row in repo.catalog.get_matrices()
        }
        repo.archive(alpha=1.6, dedup=True)
        chains = checks.chain_info(repo)
        view = repo.archive_view()
        bounds = {
            (mid, p): view.matrix_bounds(mid, p)
            for mid in committed for p in PLANES if p < 4
        }
        inexact = sum(
            not np.array_equal(view.recreate_matrix(mid).view(np.uint8),
                               committed[mid].view(np.uint8))
            for mid in committed
        )
        kinds: dict = {}
        for payload in repo.catalog.all_payloads():
            kinds[payload["kind"]] = kinds.get(payload["kind"], 0) + 1
        layout: dict = {}
        snapshots = []
        for version in repo.list_versions():
            for pos, snapshot in enumerate(version.snapshots):
                snapshots.append((version.name, pos))
                layout[(version.name, pos)] = {
                    (row["layer"], row["param"]): row["matrix_id"]
                    for row in repo.catalog.get_matrices(
                        version.id, snapshot.index)
                }
    finally:
        repo.close()
    return {
        "committed": committed, "chains": chains, "bounds": bounds,
        "inexact": inexact, "kinds": kinds, "layout": layout,
        "snapshots": snapshots,
    }


def _check(weights: dict, layout: dict, planes: int, state: dict):
    if weights.keys() != {layer for layer, _ in layout}:
        return "recreated layers differ from the snapshot's"
    for (layer, param), mid in layout.items():
        value = weights[layer][param]
        chain_len, has_sub = state["chains"][mid]
        if planes >= 4:
            reason = checks.full_matrix(
                value, state["committed"][mid], has_sub)
        else:
            lo, hi = state["bounds"][(mid, planes)]
            reason = checks.partial_matrix(
                value, state["committed"][mid], lo, hi, chain_len)
        if reason is not None:
            return f"{mid} at {planes} planes: {reason}"
    return None


def _window(repo, queries, seconds: float, state: dict,
            tracer) -> tuple[list, float]:
    """Closed loop; checks run between ops, outside the timed intervals.

    Returns ``(records, busy seconds)``; a record is ``(planes, seconds,
    bytes read, failure reason)``.
    """
    bytes_read = counter("retrieval.bytes_read")
    records, busy, k = [], 0.0, 0
    while busy < seconds or len(records) < MIN_OPS:
        version, pos, planes = queries[k % len(queries)]
        k += 1
        before = bytes_read.value
        t0 = time.perf_counter()
        with tracer.span("op"):
            weights = repo.get_snapshot_weights(version, pos, planes)
        elapsed = time.perf_counter() - t0
        busy += elapsed
        reason = _check(weights, state["layout"][(version, pos)], planes,
                        state)
        records.append((planes, elapsed, bytes_read.value - before, reason))
    return records, busy


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    out = Outcome(seed)
    path = workdir.fresh("sd")
    state = _prepare(path)
    queries = _queries(seed, state["snapshots"])
    out.notes["environment"] = environment(
        "local-fs", "fsync per blob and directory")
    out.notes["payload_kinds"] = state["kinds"]
    out.notes["load"] = "1 closed-loop caller, checks between timed ops"
    tracer = tr.Tracer("load")

    setup = []
    for _ in range(OPENS):
        t0 = time.perf_counter()
        repo = Repository.open(str(path))
        setup.append(time.perf_counter() - t0)
        repo.close()

    repo = Repository.open(str(path))
    try:
        for version, pos, planes in queries[:3 * len(PLANES)]:  # warm-up
            repo.get_snapshot_weights(version, pos, planes)
        reset_peak_rss()
        spans_before = get_recorder().total_recorded
        records, busy = _window(repo, queries, seconds, state, tracer)
        spans = get_recorder().total_recorded - spans_before
        rss = peak_rss_mb()
        if trace:
            tr.install(tracer, tr.LOAD_TARGETS)
            tracer.enabled = True
            traced, traced_busy = _window(repo, queries, seconds, state,
                                          tracer)
            tracer.enabled = False
    finally:
        repo.close()

    for record in records:
        out.count(record[3])
    ops = len(records)
    out.measured(setup, [r[1] for r in records], busy, rss, TAIL_PCT)
    if not trace:
        return out

    layer = {
        "error_ratio": out.failed / out.attempted,
        "bytes_read_per_op": sum(r[2] for r in records) / ops,
        "retrieval.inexact_matrices": state["inexact"],
        "obs.spans_per_op": spans / ops,
    }
    for planes in PLANES:
        share = [r for r in records if r[0] == planes]
        layer[f"retrieval.op_p50_ms.planes-{planes}"] = (
            median([r[1] for r in share]) * 1000.0)
        layer[f"retrieval.bytes_per_op.planes-{planes}"] = (
            sum(r[2] for r in share) / len(share))

    for record in traced:
        out.count(record[3])
    spans = tracer.spans
    n = len(traced)
    gets = [s for s in spans
            if s[tr.LAYER] == "core.storage" and s[tr.NAME].endswith(".get")]
    by_name = tr.self_times(spans, tr.join(spans, False), key=tr.NAME)
    layer.update({
        "catalog.manifest_ms": tr.ms_per_op(
            spans, n, "Catalog.get_matrices", "Catalog.all_payloads",
            "Catalog.all_page_manifests"),
        "retrieval.recreate_ms":
            by_name.get("PlanArchive.recreate_matrix", 0.0) * 1000.0 / n,
        "storage.get_ms_per_op":
            sum(s[tr.END] - s[tr.START] for s in gets) * 1000.0 / n,
        "segmentation.assemble_ms_per_op": tr.ms_per_op(
            spans, n, "segmentation.assemble_planes"),
        "delta.apply_ms_per_op": tr.ms_per_op(spans, n, "delta.apply_delta"),
    })
    for tier in ("chunks", "pages", "replica"):
        layer[f"storage.get_calls_per_op.{tier}"] = sum(
            s[tr.ATTR] == tier for s in gets) / n
    layer.update(tr.layer_metrics(spans, n, False, {"dlv.repository"}))
    layer["trace.overhead"] = 1.0 - (n / traced_busy) / (ops / busy)
    out.per_layer = layer
    return out
