"""Summarize benchmark records across runs.

Each run of ``perfbench/run.py`` writes
``.perfbench/<workload>-s<seed>-t<trace>.json``.  This script gathers
the records of one trace mode from a directory of them (``.perfbench``
by default) and prints, per workload and metric, the raw vector over
runs, its median and quartiles, and the spread: the distance between
the quartiles as a share of the median.  Each end-to-end metric's
spread is marked against a third of its bound in ``BENCHMARK.json``.

Given a second directory (two sets of runs of the same code), it also
prints, per end-to-end metric, how much worse the second set's median
is than the first's, as a share of the first, against the bound::

    python3 perfbench/summarize.py --trace 0
    python3 perfbench/summarize.py --trace 0 set_a set_b

The exit status is 1 if any spread or difference is outside its limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, trace: int) -> dict:
    """workload -> its records in ``directory``, by seed."""
    runs: dict = {}
    for path in sorted(directory.glob(f"*-t{trace}.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def summary(vals) -> tuple:
    med = statistics.median(vals)
    q1, _, q3 = (statistics.quantiles(vals, n=4)
                 if len(vals) > 1 else (med, med, med))
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("dirs", nargs="*", type=Path,
                        default=[ROOT / ".perfbench"])
    args = parser.parse_args(argv)
    if len(args.dirs) > 2:
        parser.error("give at most two record directories")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load(d, args.trace) for d in args.dirs]
    status = 0
    for k, runs in enumerate(sets):
        for workload, recs in sorted(runs.items()):
            failed = sum(r["failed"] for r in recs)
            print(f"== {args.dirs[k]} {workload}: {len(recs)} runs, seeds "
                  f"{[r['seed'] for r in recs]}, failed ops {failed}")
            status |= failed > 0
            for name in recs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in recs]
                unit = recs[0]["metrics"][name]["unit"]
                med, q1, q3, spread = summary(vals)
                mark = ""
                if name in e2e:
                    ok = spread <= e2e[name]["bound"] / 3
                    mark = (f"  bound/3 {e2e[name]['bound'] / 3:.4f} "
                            f"{'ok' if ok else 'WIDE'}")
                    status |= not ok
                print(f"  {name:40s} median {med:12.6g} {unit:14s} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{mark}")
                print(f"    {[round(v, 6) for v in vals]}")
    if len(sets) == 2:
        first, second = sets
        print("== second set against the first (worse by, share of the "
              "first median)")
        for workload in sorted(first.keys() & second.keys()):
            for name in first[workload][0]["metrics"]:
                if name not in e2e:
                    continue
                a, b = (statistics.median(r["metrics"][name]["value"]
                                          for r in s[workload])
                        for s in (first, second))
                sign = 1 if e2e[name]["better"] == "lower" else -1
                worse = sign * (b - a) / a
                ok = worse <= e2e[name]["bound"]
                status |= not ok
                print(f"  {workload:12s} {name:28s} {a:12.6g} -> {b:12.6g}"
                      f"  worse by {worse:+.4f}  bound "
                      f"{e2e[name]['bound']} {'ok' if ok else 'EXCEEDED'}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
