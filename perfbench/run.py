"""ModelHub end-to-end benchmark: one workload per run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-http --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics;
``--trace 1`` measures once untraced and once with every layer wrapped by
:mod:`perfbench.tracer`, and reports the per-layer metrics.  The metric
names and units are the ones ``BENCHMARK.json`` lists.  A readable report
goes to stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "serve-http": "wl_serve",
    "pas-recreate": "wl_pas",
    "commit-archive": "wl_commit",
    "hub-pull": "wl_hub",
}


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}")


def _metric_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _report(workload: str, outcome, spec: dict, trace: bool) -> None:
    print(f"== perfbench {workload} (seed {outcome.seed}) ==")
    for key, value in outcome.notes.items():
        print(f"  {key}: {value}")
    for reason in outcome.failures:
        print(f"  failed op: {reason}")
    tail = outcome.notes.get("latency", {})
    for section in ("end_to_end", "per_layer"):
        values = getattr(outcome, section)
        if section == "per_layer" and not trace:
            continue
        print(f"-- {section}")
        for name, unit in spec[section].items():
            extra = ""
            if name == "op_tail_ms" and tail:
                extra = f"  (p{tail['tail_pct']:g}, n={tail['n']}, " \
                        f"{tail['beyond_tail']} beyond)"
            elif name == "op_p50_ms" and tail:
                extra = f"  (n={tail['n']})"
            print(f"  {name:42s} {values.get(name, 0.0):14.6g} {unit}{extra}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops its launchers and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = _metric_spec()
    bootstrap()
    import importlib

    from perfbench.common import WorkDir

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    workdir = WorkDir(args.workload)
    started = time.perf_counter()
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             workdir)
    finally:
        workdir.remove()
    outcome.notes["run_wall_s"] = round(time.perf_counter() - started, 2)

    section = "per_layer" if args.trace else "end_to_end"
    values = getattr(outcome, section)
    unknown = set(values) - set(spec[section])
    if unknown:
        raise KeyError(
            f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if section == "end_to_end" and set(values) != set(spec[section]):
        raise KeyError(f"end-to-end metrics not measured: "
                       f"{sorted(set(spec[section]) - set(values))}")
    _report(args.workload, outcome, spec, bool(args.trace))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in spec[section].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
