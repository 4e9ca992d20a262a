"""serve-http: two synchronous ServeClient callers against a ModelServer.

The server runs in its own process (``serve_launcher.py``) with the
default ServeConfig and serves a single-file sqlite repo holding a digits
MLP and a digits LeNet.  Requests are single test rows drawn by seed,
half per model; one in four asks for ``exact=True``, the rest are
progressive from the server's default start plane.  The two models fit
the plane cache after warm-up, so HTTP/JSON, the scheduler and
progressive evaluation do the work while storage stays idle.
"""

from __future__ import annotations

import threading
import time
from statistics import median

import numpy as np

from perfbench import checks, inputs
from perfbench import tracer as tr
from perfbench.common import (
    Launched, Outcome, environment, peak_rss_mb,
    proc_cpu_s,
)
from repro.dlv.repository import Repository
from repro.obs.tracing import get_recorder
from repro.serve import ServeClient, ServeConfig, ServeError

CALLERS = 2          # one load process, at most nproc (= 2) connections
SETUPS = 3           # server spawns per run; setup_s is their median
TAIL_PCT = 95        # fixed, with >= 10 samples beyond it at MIN_OPS
MIN_OPS = 200
STREAM = 1 << 16     # requests drawn per caller (cycled if exhausted)


def _requests(seed: int, rows: int) -> list[tuple]:
    """Per caller: (model, row, exact) triples drawn from the seed."""
    rng = np.random.default_rng(seed)
    streams = []
    for _ in range(CALLERS):
        models = rng.integers(0, 2, STREAM)
        picks = rng.integers(0, rows, STREAM)
        exact = rng.random(STREAM) < 0.25
        streams.append(list(zip(
            (inputs.SERVE_MODELS[m] for m in models),
            picks.tolist(), exact.tolist(),
        )))
    return streams


def _spawn(url: str, workdir, trace_out=None) -> tuple[Launched, float]:
    """Start a server; returns it and the seconds until /healthz is OK."""
    args = [url] + (["--trace-out", str(trace_out)] if trace_out else [])
    server = Launched("serve_launcher.py", args, workdir.path)
    with ServeClient(port=server.hello["port"]) as client:
        while client.health().get("status") != "ok":
            time.sleep(0.005)
    return server, time.perf_counter() - server.started


def _warm(port: int, x_test) -> None:
    """Fill the plane cache at every plane budget for both models."""
    with ServeClient(port=port) as client:
        for model in inputs.SERVE_MODELS:
            for row in range(4):
                client.predict(model, x_test[row], exact=True)
                for planes in (1, 2, 3):
                    client.predict(model, x_test[row], start_planes=planes)


def _window(port: int, x_test, streams, seconds: float,
            tracer: tr.Tracer) -> tuple[list, float]:
    """Closed loop of CALLERS callers; returns records and wall seconds."""
    records: list = []
    start = time.perf_counter()
    deadline = start + seconds

    def caller(stream) -> None:
        with ServeClient(port=port) as client:
            k = 0
            while time.perf_counter() < deadline or len(records) < MIN_OPS:
                model, row, exact = stream[k % STREAM]
                k += 1
                t0 = time.perf_counter()
                with tracer.span("op") as op:
                    try:
                        prediction = client.predict(
                            model, x_test[row], exact=exact
                        )
                        status, payload = 200, prediction.raw
                        op.request = prediction.trace_id
                    except ServeError as exc:
                        status, payload = exc.status, None
                    except Exception:  # noqa: BLE001 - counted as failed
                        status, payload = 0, None
                t1 = time.perf_counter()
                records.append((t0, t1, model, row, exact, status, payload))

    threads = [
        threading.Thread(target=caller, args=(s,)) for s in streams
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def _server_counters(client: ServeClient) -> dict:
    cache = client.metrics()["plane_cache"]
    return {
        "hits": cache["hits"], "misses": cache["misses"],
        "evictions": cache["evictions"],
        "spans": client.trace()["total_recorded"],
    }


def run(seed: int, seconds: float, trace: bool, workdir) -> Outcome:
    out = Outcome(seed)
    url, x_test = inputs.serve_repo(seed, workdir.fresh("serve-repo"))
    with Repository.open(url) as repo:
        expected = {
            model: repo.load_network(model).predict(x_test).tolist()
            for model in inputs.SERVE_MODELS
        }
    streams = _requests(seed, len(x_test))
    out.notes["environment"] = environment(
        "sqlite", "WAL, synchronous=NORMAL")
    out.notes["load"] = f"{CALLERS} closed-loop callers, keep-alive"
    default_start = ServeConfig().start_planes
    tracer = tr.Tracer("load")

    setup = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server, seconds_to_healthy = _spawn(url, workdir)
            setup.append(seconds_to_healthy)
        port = server.hello["port"]
        _warm(port, x_test)
        with ServeClient(port=port) as control:
            before = _server_counters(control)
            cpu_before = proc_cpu_s(server.pid)
            spans_before = get_recorder().total_recorded
            records, wall = _window(port, x_test, streams, seconds, tracer)
            cpu = proc_cpu_s(server.pid) - cpu_before
            load_spans = get_recorder().total_recorded - spans_before
            after = _server_counters(control)
        rss = peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.stop()

    ok_latencies, http_ms, queue_ms, compute_ms, shared = [], [], [], [], []
    bytes_read = shed = 0
    progressive: dict = {m: [0, 0, 0] for m in inputs.SERVE_MODELS}
    for t0, t1, model, row, exact, status, payload in records:
        reason = checks.serve_response(payload, status, expected[model][row])
        out.count(reason)
        shed += status == 429
        if reason is not None:
            continue
        ok_latencies.append(t1 - t0)
        http_ms.append((t1 - t0) * 1000.0 - payload["latency_ms"])
        cost = payload["cost"]
        queue_ms.append(cost["queue_wait_ms"])
        compute_ms.append(cost["compute_ms"])
        shared.append(cost["shared_requests"])
        bytes_read += cost["bytes_read"]
        if not exact:
            stats = progressive[model]
            stats[0] += 1
            stats[1] += max(payload["resolved_planes"]) == default_start
            stats[2] += payload["escalations"]

    ops = len(ok_latencies)
    out.measured(setup, ok_latencies, wall, rss, TAIL_PCT)
    if not trace:
        return out

    lookups = (after["hits"] - before["hits"]) + (
        after["misses"] - before["misses"])
    layer = {
        "error_ratio": out.failed / out.attempted,
        "bytes_read_per_op": bytes_read / ops,
        "serve.http_ms": median(http_ms),
        "serve.server_cpu_ms_per_op": cpu * 1000.0 / ops,
        "serve.queue_wait_ms": median(queue_ms),
        "serve.compute_ms": median(compute_ms),
        "serve.batch_share": sum(shared) / ops,
        "serve.shed_ratio": shed / out.attempted,
        "serve.cache.hit_ratio":
            (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
        "serve.cache.evictions": after["evictions"] - before["evictions"],
        "obs.spans_per_op":
            (load_spans + after["spans"] - before["spans"]) / ops,
    }
    for model, (n, first, escalations) in progressive.items():
        layer[f"progressive.first_try_ratio.{model}"] = first / n if n else 0.0
        layer[f"progressive.escalations_per_op.{model}"] = (
            escalations / n if n else 0.0)

    # The traced run: same seed, same load, every layer wrapped.
    trace_out = workdir.path / "server-spans.json"
    server = None
    try:
        server, _ = _spawn(url, workdir, trace_out)
        _warm(server.hello["port"], x_test)
        server.call("reset")
        tr.install(tracer, tr.LOAD_TARGETS)
        tracer.enabled = True
        traced, traced_wall = _window(
            server.hello["port"], x_test, streams, seconds, tracer
        )
        tracer.enabled = False
    finally:
        if server is not None:
            server.stop()
    traced_ops = 0
    for t0, t1, model, row, exact, status, payload in traced:
        reason = checks.serve_response(payload, status, expected[model][row])
        out.count(reason)
        traced_ops += reason is None
    spans = tracer.spans + tr.load_spans([trace_out])
    layer.update(tr.layer_metrics(spans, traced_ops, True, {"serve.client"}))
    layer["trace.overhead"] = 1.0 - (traced_ops / traced_wall) / (ops / wall)
    out.per_layer = layer
    return out
