"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cnn-infer --seed 0 --seconds 10 \\
        --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` makes the separate traced run
and prints every per-layer metric (0 where the workload does not exercise
the layer).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it records the configuration measured.  The traced run's spans are
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def source_digest() -> str:
    """SHA-256 over the measured tree's ``src/`` (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def configuration(workload: str, seed: int, seconds: float) -> Dict:
    import numpy
    import scipy

    from repro.bench import git_revision
    from repro.engine import resolve_worker_count

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "env": {name: os.environ.get(name) for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS", "REPRO_SHARDED_WORKERS")},
        "sharded_workers": resolve_worker_count(),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (reaped) worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "repro").is_dir():
        print(f"error: no repro package under {SOURCE}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    config = configuration(args.workload, args.seed, args.seconds)
    tracer = Tracer(bool(args.trace), f"{args.workload}-seed{args.seed}")
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    config.update(outcome.config)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    measured = outcome.per_layer if args.trace else outcome.end_to_end
    missing = [m["name"] for m in listed if m["name"] not in measured]
    if args.trace:
        for name in missing:
            measured[name] = 0.0
        print(f"not exercised by {args.workload} (reported as 0): "
              f"{', '.join(missing) or 'none'}")
    elif missing:
        print(f"error: end-to-end metrics not measured: {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": float(measured[m["name"]]),
                           "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")

    results = ROOT / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    record = {"config": config, "metrics": metrics,
              "attempted": outcome.attempted, "failed": outcome.failed}
    if args.trace:
        record["trace"] = tracer.as_dict()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    print("config " + json.dumps(config, sort_keys=True))
    print(json.dumps({
        "correct": outcome.mismatches == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
