"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload train_stream --seed 1 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists and which
metric each layer should move): ``train_stream``, ``train_stream_awm``,
``train_serve`` and ``ps_sync``.  Every workload reports the same
end-to-end metrics.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs traced and untraced stretches and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
full record (raw vectors, quartiles, check results, host and commit)
is written to ``.perfbench/<workload>-s<seed>-t<trace>.json``, and a
traced run's spans next to it.

The program under test is imported from ``src/`` of the same checkout;
without it the benchmark exits with status 2 before measuring.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload -> (module, keyword arguments of its ``run``).
WORKLOADS = {
    "train_stream": ("train_stream", {"model": "wm"}),
    "train_stream_awm": ("train_stream", {"model": "awm"}),
    "train_serve": ("train_serve", {}),
    "ps_sync": ("ps_sync", {}),
}


def commit(root: Path) -> str:
    """The checkout's commit from ``.git`` (no git process), if any."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    """Where the run happened (imported late: ``src/`` joins the path at
    run time)."""
    import numpy

    from repro import kernels

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.active_backend_name(),
        "os_kernel": platform.release(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    module, kwargs = WORKLOADS[args.workload]
    started = time.time()
    res = importlib.import_module(module).run(
        args.seed, args.seconds, bool(args.trace), **kwargs
    )

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: unit for name, (_, unit) in res.metrics.items()}
    if reported != declared:
        print(f"perfbench: {args.workload} reported {reported}, "
              f"BENCHMARK.json declares {declared}", file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        "commit": commit(ROOT),
        "host": host(),
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "checks": res.checks,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res.metrics.items()},
        "detail": res.detail,
    }
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    if res.spans is not None:
        res.spans.write(out_dir / f"{stem}-spans.json")

    for note in res.notes:
        print(note)
    for name, passed in res.checks.items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    for name, (value, unit) in res.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, (value, unit) in res.detail.get("figures", {}).items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (not gated)")
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
