"""Output checks.  Each returns ``None`` when the output is correct and a
one-line reason when it is not; the workloads count a reason as a failed
op.  ``selftest.py`` feeds each check a corrupted output to show it is
caught.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dlv.repository import Repository

# The tier-1 contract for float32 ``sub`` delta chains
# (tests/dlv/test_repository.py): recreation may differ within this.
SUB_RTOL = 1e-5
SUB_ATOL = 1e-6
_EPS32 = float(np.finfo(np.float32).eps)


def serve_response(response: Optional[dict], status: int,
                   expected_label: int) -> Optional[str]:
    """HTTP 200, not degraded, label equal to the offline prediction."""
    if status != 200 or response is None:
        return f"HTTP {status}"
    if response.get("degraded"):
        return "degraded response"
    labels = response.get("predictions")
    if labels != [expected_label]:
        return f"label {labels} != expected [{expected_label}]"
    return None


def chain_info(repo: Repository) -> dict[str, tuple[int, bool]]:
    """Matrix id -> (payload chain length, whether it holds a sub delta)."""
    payloads = {p["matrix_id"]: p for p in repo.catalog.all_payloads()}
    out = {}
    for matrix_id in payloads:
        depth, has_sub, current = 0, False, matrix_id
        while current in payloads:
            depth += 1
            has_sub = has_sub or payloads[current]["kind"] == "sub"
            current = payloads[current]["parent"]
        out[matrix_id] = (depth, has_sub)
    return out


def full_matrix(result: np.ndarray, committed: np.ndarray,
                has_sub: bool) -> Optional[str]:
    """Bit-for-bit equality, or the tier-1 tolerance on a sub chain."""
    if result.shape != committed.shape or result.dtype != committed.dtype:
        return f"shape/dtype {result.shape}/{result.dtype} != " \
               f"{committed.shape}/{committed.dtype}"
    if np.array_equal(result.view(np.uint8), committed.view(np.uint8)):
        return None
    if has_sub and np.allclose(result, committed, rtol=SUB_RTOL,
                               atol=SUB_ATOL):
        return None
    return "full-plane value differs from the committed array"


def partial_matrix(result: np.ndarray, committed: np.ndarray,
                   lo: np.ndarray, hi: np.ndarray,
                   chain_len: int) -> Optional[str]:
    """Result and committed array both inside the plane-prefix bounds.

    The chain's additions round in float32 once per link, so the bounds
    are widened by that much.
    """
    if result.shape != lo.shape or committed.shape != lo.shape:
        return "shape differs from the bounds"
    scale = np.maximum(np.abs(lo), np.abs(hi))
    slack = (chain_len + 1) * _EPS32 * scale
    for name, value in (("result", result), ("committed", committed)):
        v = value.astype(np.float64)
        if not (np.all(v >= lo - slack) and np.all(v <= hi + slack)):
            return f"{name} lies outside the plane-prefix bounds"
    return None


def snapshot_set(repo: Repository) -> tuple[dict, int]:
    """Every snapshot at full planes, plus how many reads needed recovery.

    A read served from the replica tier or zero-filled is not the stored
    bytes, so it counts against the pulled copy.
    """
    archive = repo.archive_view()
    out = {}
    for version in repo.list_versions():
        for snapshot in version.snapshots:
            for row in repo.catalog.get_matrices(version.id, snapshot.index):
                key = (version.name, snapshot.index, row["layer"],
                       row["param"])
                out[key] = archive.recreate_matrix(row["matrix_id"])
    return out, len(archive.recovery.events)


def pulled_repo(dest, source: dict) -> Optional[str]:
    """The pulled repo opens and every snapshot equals the source's."""
    try:
        with Repository.open(str(dest)) as repo:
            pulled, recovered = snapshot_set(repo)
    except Exception as exc:  # noqa: BLE001 - any failure is the verdict
        return f"pulled repo unreadable: {type(exc).__name__}: {exc}"
    if recovered:
        return f"{recovered} reads needed recovery"
    if pulled.keys() != source.keys():
        return "pulled snapshots differ in membership"
    for key, value in source.items():
        if not np.array_equal(pulled[key].view(np.uint8),
                              value.view(np.uint8)):
            return f"matrix {key} differs from the source"
    return None
