"""Benchmark-side span recording around the public functions of each layer.

The program under test is not edited: :func:`install` replaces public
functions and methods of ``repro`` modules with thin wrappers that time
each call.  A span is ``(id, name, layer, start, end, parent, request,
process, attr)``.  Parents come from a per-thread stack, so spans nest
within a thread.  The request id is the server trace id a served request
carries (client op span and server ``handle_predict`` alike).  Spans stay
in memory and are written out once, when the benchmark (or a launcher
process) ends.

Timestamps are ``time.perf_counter()``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable across the processes of one machine; that
is what lets :func:`join` nest server and fleet spans under the client
spans that caused them.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Optional

# Layer -> (module, owner, attributes).  ``owner`` is a class name or
# ``None`` for module-level functions; a ``cm:`` prefix marks a method
# returning a context manager, timed from ``__enter__`` to ``__exit__``.
# Module-level functions are also replaced wherever ``repro`` modules
# imported them by name.
LOAD_TARGETS = {
    "dlv.repository": [
        ("repro.dlv.repository", "Repository", [
            "open", "init", "commit", "get_snapshot_weights", "archive",
            "build_storage_graph", "gc", "load_network", "archive_view",
            "resolve",
        ]),
    ],
    "dlv.catalog": [
        ("repro.dlv.catalog", "Catalog", [
            "get_matrices", "all_payloads", "all_page_manifests",
            "get_version", "find_versions", "get_snapshots",
            "cm:transaction",
        ]),
    ],
    "dlv.journal": [
        ("repro.dlv.journal", "Journal", ["record", "retire"]),
        ("repro.core.storage.sqlite", "SQLiteJournal", ["record", "retire"]),
    ],
    "core.retrieval": [
        ("repro.core.retrieval", "PlanArchive", [
            "recreate_matrix", "build", "from_manifest_dict",
            "matrix_bounds",
        ]),
    ],
    "core.storage": [
        ("repro.core.chunkstore", "ChunkStore", ["get", "put"]),
        ("repro.core.storage.sqlite", "SQLiteBlobStore", ["get", "put"]),
    ],
    "core.segmentation": [
        ("repro.core.segmentation", None, [
            "segment_planes", "assemble_planes", "bounds_from_prefix",
        ]),
    ],
    "core.delta": [
        ("repro.core.delta", None, [
            "apply_delta", "delta_sub_mismatched", "embed_like",
        ]),
    ],
    "core.archival": [
        ("repro.core.archival", None, ["solve", "alpha_constraints"]),
    ],
    "core.storage_graph": [
        ("repro.core.storage_graph", "StoragePlan", [
            "satisfies", "all_snapshot_costs", "storage_cost",
        ]),
    ],
    "serve.client": [
        ("repro.serve.client", "ServeClient", ["predict"]),
    ],
    "hub": [
        ("repro.hub.client", "HubClient", ["pull"]),
        # FleetClient.pull is left unwrapped: HubClient.pull delegates
        # to it whole, and a second span over the same interval would
        # hide how much of a pull the calls beneath it account for.
        ("repro.hub.fleet", "FleetClient", ["resolve_revision", "manifest"]),
        ("repro.hub.httpd", "RemoteHub", [
            "fetch_file", "files", "manifest", "revisions",
            "resolve_revision",
        ]),
        ("repro.hub.server", None, ["verify_tree"]),
    ],
}

SERVER_TARGETS = {
    "serve.server": [
        ("repro.serve.server", "ModelServer", ["handle_predict"]),
    ],
    "serve.scheduler": [
        ("repro.serve.scheduler", "BatchScheduler", ["submit"]),
        ("repro.serve.scheduler", "PredictTicket", ["wait"]),
        ("repro.serve.scheduler", "ModelRuntime", ["bounded", "exact_many"]),
    ],
    "serve.cache": [
        ("repro.serve.cache", "PlaneCache", ["get_or_load"]),
    ],
    "core.progressive": [
        ("repro.core.progressive", "ProgressiveEvaluator", [
            "evaluate_bounded", "forward_exact_many", "param_bounds",
            "exact_weights",
        ]),
    ],
    "dnn.interval": [
        ("repro.dnn.interval", None, [
            "interval_matmul", "interval_add_bias", "interval_relu",
            "interval_maximum", "apply_monotonic", "argmax_determined",
        ]),
    ],
    "core.retrieval": LOAD_TARGETS["core.retrieval"],
    "core.storage": LOAD_TARGETS["core.storage"],
    "core.segmentation": LOAD_TARGETS["core.segmentation"],
    "core.delta": LOAD_TARGETS["core.delta"],
}

FLEET_TARGETS = {
    "hub": [
        ("repro.hub.server", "HubServer", [
            "get", "manifest", "revisions", "search", "publish",
            "install_revision",
        ]),
        ("repro.hub.httpd", "HubHTTPServer", ["health_payload"]),
        ("repro.hub.replication", "Replicator", ["sync_once"]),
    ],
}


class Tracer:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.enabled = False

    def _stack(self) -> list:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
        return local.stack

    def enter(self, name: str, layer: str, request: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = (next(self._ids), name, layer, time.perf_counter(), parent,
                 request)
        stack.append(frame)
        return frame

    def exit(self, frame, attr=None, request=None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        sid, name, layer, start, parent, opened_as = frame
        request = request or opened_as
        self.spans.append(
            (sid, name, layer, start, end, parent, request, self.process,
             attr)
        )

    def span(self, name: str, layer: str = "bench"):
        """Context manager recording one benchmark-side span.

        Setting ``.request`` on it before the block ends tags the span with
        a request id learnt during the call (a server's trace id).
        """
        return _SpanCM(self, name, layer)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))

    def clear(self) -> None:
        self.spans = []


class _SpanCM:
    __slots__ = ("tracer", "name", "layer", "request", "frame")

    def __init__(self, tracer, name, layer) -> None:
        self.tracer, self.name, self.layer = tracer, name, layer
        self.request = None
        self.frame = None

    def __enter__(self):
        if self.tracer.enabled:
            self.frame = self.tracer.enter(self.name, self.layer, self.request)
        return self

    def __exit__(self, *exc):
        if self.frame is not None:
            self.tracer.exit(self.frame, request=self.request)
        return False


def _tier(owner) -> Optional[str]:
    """Blob-store tier (chunks / replica / pages) of a store instance."""
    ns = getattr(owner, "ns", None)
    if ns is not None:
        return ns
    root = getattr(owner, "root", None)
    return root.name if root is not None else None


def _request_from_traceparent(kwargs) -> Optional[str]:
    header = kwargs.get("traceparent")
    if not header:
        return None
    parts = header.split("-")
    return parts[1] if len(parts) >= 3 else None


def _wrap(tracer: Tracer, func: Callable, name: str, layer: str) -> Callable:
    tiered = layer == "core.storage"
    adopts_request = name == "ModelServer.handle_predict"

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return func(*args, **kwargs)
        request = _request_from_traceparent(kwargs) if adopts_request else None
        frame = tracer.enter(name, layer, request)
        attr = None
        try:
            result = func(*args, **kwargs)
            if tiered:
                attr = _tier(args[0])
                if name.endswith(".put"):
                    attr = f"{attr}:{len(args[1])}"
            return result
        finally:
            tracer.exit(frame, attr)

    return wrapper


def _wrap_cm(tracer: Tracer, func: Callable, name: str, layer: str):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        inner = func(*args, **kwargs)
        if not tracer.enabled:
            return inner
        return _TimedCM(tracer, inner, name, layer)

    return wrapper


class _TimedCM:
    def __init__(self, tracer, inner, name, layer) -> None:
        self.tracer, self.inner = tracer, inner
        self.name, self.layer = name, layer
        self.frame = None

    def __enter__(self):
        self.frame = self.tracer.enter(self.name, self.layer)
        return self.inner.__enter__()

    def __exit__(self, *exc):
        try:
            return self.inner.__exit__(*exc)
        finally:
            self.tracer.exit(self.frame)


def install(tracer: Tracer, targets: dict) -> None:
    """Wrap every target (call once per process)."""
    for layer, entries in targets.items():
        for module_name, owner_name, attrs in entries:
            module = importlib.import_module(module_name)
            owner = (module if owner_name is None
                     else getattr(module, owner_name))
            for attr in attrs:
                is_cm = attr.startswith("cm:")
                attr = attr[3:] if is_cm else attr
                label = f"{owner_name or module_name.rsplit('.', 1)[1]}.{attr}"
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    inner = _wrap(tracer, raw.__func__, label, layer)
                    setattr(owner, attr, type(raw)(inner))
                elif is_cm:
                    setattr(owner, attr, _wrap_cm(tracer, raw, label, layer))
                else:
                    new = _wrap(tracer, raw, label, layer)
                    setattr(owner, attr, new)
                    if owner_name is None:
                        _rebind_imports(raw, new)


def _rebind_imports(old: Callable, new: Callable) -> None:
    """Point every ``from x import f`` binding in ``repro`` at the wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


# -- analysis -----------------------------------------------------------------

SID, NAME, LAYER, START, END, PARENT, REQ, PROC, ATTR = range(9)


def load_spans(paths) -> list[tuple]:
    spans = []
    for path in paths:
        spans.extend(tuple(s) for s in json.loads(Path(path).read_text()))
    return spans


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def join(spans: list[tuple], match_request: bool) -> dict:
    """Children per span key, nesting remote roots under load spans.

    Span keys are ``(process, id)``.  A root span of another process (the
    server or the fleet) becomes a child of the innermost load-process
    span that contains it in time and, with ``match_request``, carries
    its request id, directly or through an enclosing load span.
    """
    children: dict = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault((s[PROC], s[PARENT]), []).append(s)
    load = sorted(
        (s for s in spans if s[PROC] == "load"), key=lambda s: s[START]
    )
    by_id = {s[SID]: s for s in load}
    requests: dict = {}

    def request_of(span) -> Optional[str]:
        chain = []
        while span is not None and span[SID] not in requests:
            if span[REQ] is not None:
                requests[span[SID]] = span[REQ]
                break
            chain.append(span)
            span = by_id.get(span[PARENT])
        found = requests.get(span[SID]) if span is not None else None
        for link in chain:
            requests[link[SID]] = found
        return found

    starts = [s[START] for s in load]
    for s in spans:
        if s[PROC] == "load" or s[PARENT] is not None:
            continue
        hi = bisect.bisect_right(starts, s[START])
        # The innermost container is the latest-starting load span that
        # still covers this one.
        for cand in reversed(load[max(0, hi - 4096):hi]):
            if cand[END] < s[END]:
                continue
            if match_request and request_of(cand) != s[REQ]:
                continue
            children.setdefault(("load", cand[SID]), []).append(s)
            break
    return children


def self_times(spans: list[tuple], children: dict, key: int = LAYER) -> dict:
    """Summed self time (duration minus covered children) per layer, or
    per span name with ``key=NAME``."""
    out: dict = {}
    for s in spans:
        kids = children.get((s[PROC], s[SID]), ())
        covered = _union_length(
            (max(k[START], s[START]), min(k[END], s[END])) for k in kids
            if k[END] > s[START] and k[START] < s[END]
        )
        out[s[key]] = out.get(s[key], 0.0) + (s[END] - s[START]) - covered
    return out


def coverage(spans: list[tuple], children: dict, entry_layers) -> float:
    """Share of op wall time spent inside spans below the entry call.

    An op is a benchmark ``op`` span; its entry call is the child span of
    one of ``entry_layers`` (``ServeClient.predict``,
    ``Repository.commit`` ...).  The entry span itself would cover the
    whole op, so coverage counts the time its own descendants (in any
    process) account for.
    """
    op_total = covered_total = 0.0
    for op in spans:
        if op[NAME] != "op":
            continue
        op_total += op[END] - op[START]
        for entry in children.get((op[PROC], op[SID]), ()):
            if entry[LAYER] not in entry_layers:
                covered_total += entry[END] - entry[START]
                continue
            kids = children.get((entry[PROC], entry[SID]), ())
            covered_total += _union_length(
                (max(k[START], entry[START]), min(k[END], entry[END]))
                for k in kids if k[END] > entry[START]
                and k[START] < entry[END]
            )
    return covered_total / op_total if op_total else 0.0


LAYERS = (
    "bench", "serve.client", "serve.server", "serve.scheduler",
    "serve.cache", "core.progressive", "dnn.interval", "dlv.repository",
    "dlv.catalog", "dlv.journal", "core.retrieval", "core.storage",
    "core.segmentation", "core.delta", "core.archival",
    "core.storage_graph", "hub",
)


def layer_metrics(spans: list[tuple], ops: int, match_request: bool,
                  entry_layers) -> dict:
    """Self time per op of every layer, plus ``trace.coverage``."""
    children = join(spans, match_request)
    selfs = self_times(spans, children)
    out = {
        f"self_ms_per_op.{layer}": selfs.get(layer, 0.0) * 1000.0 / ops
        for layer in LAYERS
    }
    out["trace.coverage"] = coverage(spans, children, entry_layers)
    return out


def named(spans: list[tuple], *names: str) -> list[tuple]:
    wanted = set(names)
    return [s for s in spans if s[NAME] in wanted]


def ms_per_op(spans: list[tuple], ops: int, *names: str) -> float:
    """Summed wall time of the named spans, per op, in milliseconds."""
    return sum(s[END] - s[START] for s in named(spans, *names)) * 1000.0 / ops


def children_of(spans: list[tuple], parent_name: str) -> list[tuple]:
    """Spans called directly from a span named ``parent_name``."""
    parents = {(s[PROC], s[SID]) for s in named(spans, parent_name)}
    return [s for s in spans if (s[PROC], s[PARENT]) in parents]
