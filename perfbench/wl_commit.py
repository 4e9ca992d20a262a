"""commit-archive: replay an SD lineage into fresh sqlite repos, then archive.

Each cycle initialises a single-file sqlite repository (WAL,
``synchronous=NORMAL`` as shipped), replays a 10-version SD lineage
recorded at set-up through ``Repository.commit`` (weights, parent, four
checkpoint snapshots per version) and runs one ``archive(alpha=1.6)``
without dedup, the default ``dlv archive``.  This is the write side of
the layers pas-recreate reads, plus the journal and the archival solver.
The op is a commit; archive time counts in the run's wall time, so it
moves ``ops_per_s``.
"""

from __future__ import annotations

import shutil
import time
from statistics import median

from perfbench import checks, inputs
from perfbench import tracer as tr
from perfbench.common import (
    Outcome, environment, peak_rss_mb, reset_peak_rss,
)
from repro.core import archival
import repro.dlv.repository as repository_module
from repro.dlv.repository import Repository
from repro.obs.metrics import counter
from repro.obs.tracing import get_recorder

ALPHA = 1.6
TAIL_PCT = 75        # fixed, with >= 10 samples beyond it at 40 commits
MIN_CYCLES = 4       # 40 commits, so the tail percentile is defined
INITS_PER_CYCLE = 10 # extra Repository.init calls feeding setup_s; spread
                     # over the run, as init is fsync-bound and disk latency
                     # drifts


def _tiers_bytes(repo: Repository) -> int:
    return sum(t.total_size() for t in (repo.store, repo.replica, repo.pages))


class _Budgets:
    """Captures the per-snapshot recreation budgets ``archive`` solves for,
    so plan quality (Cr over budget) can be reported."""

    def __init__(self) -> None:
        self.last: dict = {}

    def __call__(self, *args, **kwargs):
        # Looked up per call, so a traced run times it too.
        self.last = archival.alpha_constraints(*args, **kwargs)
        return self.last


def _cycle(calls, committed, workdir, tracer) -> dict:
    """One init + replay + archive; set-up, checks and the extra inits
    are not traced."""
    traced, tracer.enabled = tracer.enabled, False
    path = workdir.fresh("ca")
    t0 = time.perf_counter()
    repo = Repository.init(str(path), backend="sqlite")
    init_s = time.perf_counter() - t0
    tracer.enabled = traced
    try:
        latencies = []
        for call in calls:
            t0 = time.perf_counter()
            with tracer.span("op"):
                repo.commit(
                    call["network"], call["name"], message=call["message"],
                    parent=call["parent"], train_result=call["train_result"],
                    hyperparams=call["hyperparams"],
                )
            latencies.append(time.perf_counter() - t0)
        written = _tiers_bytes(repo)
        t0 = time.perf_counter()
        with tracer.span("archive"):
            report = repo.archive(alpha=ALPHA)
        archive_s = time.perf_counter() - t0

        # Checks, outside the timed intervals.
        tracer.enabled = False
        reasons = {}
        chains = checks.chain_info(repo)
        for call in calls:
            reason = None if report["satisfied"] else "archive unsatisfied"
            version = repo.resolve(call["name"])
            for pos, snapshot in enumerate(version.snapshots):
                got = repo.get_snapshot_weights(version, pos)
                rows = repo.catalog.get_matrices(version.id, snapshot.index)
                for row in rows:
                    expected = committed[(call["name"], snapshot.index)][
                        (row["layer"], row["param"])]
                    reason = reason or checks.full_matrix(
                        got[row["layer"]][row["param"]], expected,
                        chains[row["matrix_id"]][1])
            reasons[call["name"]] = reason
        stored = _tiers_bytes(repo)
        inits = [init_s] + _init_seconds(workdir)
    finally:
        tracer.enabled = traced
        repo.close()
        shutil.rmtree(path, ignore_errors=True)
    return {
        "init_s": inits,
        "latencies": latencies, "archive_s": archive_s,
        "written": written, "stored": stored, "report": report,
        "reasons": reasons,
    }


def _init_seconds(workdir) -> list[float]:
    samples = []
    for _ in range(INITS_PER_CYCLE):
        path = workdir.fresh("init")
        t0 = time.perf_counter()
        repo = Repository.init(str(path), backend="sqlite")
        samples.append(time.perf_counter() - t0)
        repo.close()
        shutil.rmtree(path, ignore_errors=True)
    return samples


def _run_cycles(calls, committed, seconds, workdir, tracer) -> tuple:
    cycles, busy = [], 0.0
    while busy < seconds or len(cycles) < MIN_CYCLES:
        cycle = _cycle(calls, committed, workdir, tracer)
        busy += sum(cycle["latencies"]) + cycle["archive_s"]
        cycles.append(cycle)
    return cycles, busy


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    out = Outcome(seed)
    calls = inputs.sd_lineage(seed, workdir.fresh("lineage"))
    committed = {}
    user_bytes = 0
    for call in calls:
        for index, (_iteration, weights) in enumerate(
                call["train_result"].snapshots):
            arrays = {
                (layer, param): value
                for layer, params in weights.items()
                for param, value in params.items()
            }
            committed[(call["name"], index)] = arrays
            user_bytes += sum(a.nbytes for a in arrays.values())
    out.notes["environment"] = environment(
        "sqlite", "WAL, synchronous=NORMAL")
    out.notes["load"] = (
        f"1 caller; cycles of {len(calls)} commits + archive(alpha={ALPHA})")
    tracer = tr.Tracer("load")
    budgets = _Budgets()
    repository_module.alpha_constraints = budgets

    setup = _cycle(calls, committed, workdir, tracer)["init_s"]  # warm-up
    reset_peak_rss()
    bytes_read = counter("retrieval.bytes_read")
    read_before = bytes_read.value
    spans_before = get_recorder().total_recorded
    cycles, busy = _run_cycles(calls, committed, seconds, workdir, tracer)
    spans = get_recorder().total_recorded - spans_before
    read = bytes_read.value - read_before
    rss = peak_rss_mb()

    latencies = [t for c in cycles for t in c["latencies"]]
    for cycle in cycles:
        for call in calls:
            out.count(cycle["reasons"][call["name"]])
    ops = len(latencies)
    out.notes["cycles"] = len(cycles)
    out.measured(setup + [t for c in cycles for t in c["init_s"]], latencies,
                 busy, rss, TAIL_PCT)
    if not trace:
        return out

    last = cycles[-1]["report"]
    over = max(
        cost / budgets.last[s] for s, cost in last["snapshot_costs"].items()
    )
    layer = {
        "error_ratio": out.failed / out.attempted,
        "bytes_read_per_op": read / ops,
        "bytes_written_per_user_byte":
            median([c["written"] for c in cycles]) / user_bytes,
        "stored_bytes_per_user_byte":
            median([c["stored"] for c in cycles]) / user_bytes,
        "archive_s": median([c["archive_s"] for c in cycles]),
        "archival.plan_cs": last["plan_storage_cost"],
        "archival.max_cr_over_budget": over,
        "obs.spans_per_op": spans / ops,
    }

    tr.install(tracer, tr.LOAD_TARGETS)
    tracer.enabled = True
    traced, traced_busy = _run_cycles(calls, committed, seconds, workdir,
                                      tracer)
    tracer.enabled = False
    for cycle in traced:
        for call in calls:
            out.count(cycle["reasons"][call["name"]])
    spans = tracer.spans
    n = sum(len(c["latencies"]) for c in traced)
    archives = len(traced)
    in_commit = tr.children_of(spans, "Repository.commit")
    puts = [s for s in in_commit if s[tr.NAME].endswith(".put")]
    layer.update({
        "catalog.txn_ms": tr.ms_per_op(in_commit, n, "Catalog.transaction"),
        "journal.ms_per_op": tr.ms_per_op(
            in_commit, n, "SQLiteJournal.record", "SQLiteJournal.retire",
            "Journal.record", "Journal.retire"),
        "storage.put_calls_per_op": len(puts) / n,
        "storage.put_ms_per_op":
            sum(s[tr.END] - s[tr.START] for s in puts) * 1000.0 / n,
        "storage.put_bytes_per_op":
            sum(int(s[tr.ATTR].rsplit(":", 1)[1]) for s in puts) / n,
        "segmentation.segment_ms_per_op": tr.ms_per_op(
            in_commit, n, "segmentation.segment_planes"),
        "archival.graph_ms": tr.ms_per_op(
            spans, archives, "Repository.build_storage_graph"),
        "archival.solve_ms": tr.ms_per_op(spans, archives, "archival.solve"),
        "archival.encode_ms": tr.ms_per_op(spans, archives,
                                           "PlanArchive.build"),
        "archival.gc_ms": tr.ms_per_op(
            tr.children_of(spans, "Repository.archive"), archives,
            "Repository.gc"),
    })
    layer.update(tr.layer_metrics(spans, n, False, {"dlv.repository"}))
    layer["trace.overhead"] = 1.0 - (n / traced_busy) / (ops / busy)
    out.per_layer = layer
    return out
