"""Shows that each output check counts an injected corruption as an error.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``

For every workload's check it feeds one correct output and one corrupted
copy through the same :class:`perfbench.common.Outcome` counting the
workloads use, and exits non-zero unless the correct output passes and
the corrupted one is counted as failed:

* serve-http: a response whose label is wrong;
* pas-recreate / commit-archive: a recreated matrix with its highest
  mantissa bit flipped, at full planes (with and without a ``sub`` chain)
  and at two planes;
* hub-pull: a real pull from a 3-node fleet with one chunk file of the
  pulled copy truncated.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import bootstrap  # noqa: E402


def _flip_high_mantissa_bit(value):
    corrupted = value.copy()
    corrupted.view("<u4").reshape(-1)[0] ^= 1 << 22
    return corrupted


def main() -> int:
    bootstrap()
    from perfbench import checks, inputs
    from perfbench.common import Outcome, WorkDir
    from repro.dlv.repository import Repository
    from repro.hub import HubClient, HubFleet

    results = []

    def expect(label: str, good, bad) -> None:
        outcome = Outcome(0)
        outcome.count(good)
        outcome.count(bad)
        ok = outcome.attempted == 2 and outcome.failed == 1 and good is None
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {label}: correct -> {good!r}; "
              f"corrupted -> {bad!r}")

    response = {"predictions": [3], "degraded": False}
    expect("serve-http wrong label",
           checks.serve_response(response, 200, 3),
           checks.serve_response({**response, "predictions": [4]}, 200, 3))

    workdir = WorkDir("selftest")
    try:
        source = workdir.fresh("source")
        with inputs.hub_source(0, source) as repo:
            view = repo.archive_view()
            row = repo.catalog.get_matrices()[0]
            mid = row["matrix_id"]
            value = view.recreate_matrix(mid)
            lo, hi = view.matrix_bounds(mid, 2)
            partial = view.recreate_matrix(mid, planes=2)
            snapshots, _ = checks.snapshot_set(repo)
        bad = _flip_high_mantissa_bit(value)
        for has_sub in (False, True):
            expect(f"full planes, sub chain={has_sub}, flipped mantissa bit",
                   checks.full_matrix(value, value.copy(), has_sub),
                   checks.full_matrix(bad, value, has_sub))
        expect("2 planes, flipped mantissa bit",
               checks.partial_matrix(partial, value, lo, hi, 1),
               checks.partial_matrix(_flip_high_mantissa_bit(partial), value,
                                     lo, hi, 1))

        with HubFleet(workdir.fresh("fleet"), size=3) as fleet:
            with Repository.open(str(source)) as repo:
                fleet.publish(repo, "selftest")
            fleet.sync()
            client = HubClient(fleet.urls)
            good_dest, bad_dest = workdir.fresh("pull"), workdir.fresh("pull")
            client.pull("selftest", good_dest)
            client.pull("selftest", bad_dest)
            client.close()
        chunk = sorted(
            p for p in (bad_dest / ".dlv" / "chunks").rglob("*") if p.is_file()
        )[-1]
        data = chunk.read_bytes()
        chunk.write_bytes(data[: len(data) // 2])
        expect("hub-pull truncated chunk",
               checks.pulled_repo(good_dest, snapshots),
               checks.pulled_repo(bad_dest, snapshots))
    finally:
        workdir.remove()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
