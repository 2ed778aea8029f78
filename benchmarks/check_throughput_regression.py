"""CI regression gate: check a fresh benchmark run against its baseline.

One function, :func:`evaluate`, applies one section of
``benchmarks/gates.json`` to a freshly generated ``BENCH_<kind>.json``
and the committed baseline of the same kind.  The policy lives in that
file, one row per gate: absolute floors and ceilings on the current
run, trend rows that fail when a baseline metric moves the wrong way by
more than the section's ``threshold``, info-only and warn-only rows,
and the reason for each.  Edit the policy there, not here.

Most gated metrics are ratios of two timings (or byte counts) taken in
one process on one machine, so host speed cancels and a baseline
committed from other hardware stays comparable; absolute throughput is
info-only.  A gated value that is missing, non-numeric or non-finite
fails: the gate never passes on a metric it cannot read.

Exit codes: 0 pass; 1 regression, or no current run (the benchmark
crashed before writing it); 2 missing baseline or a usage error.

Run::

    PYTHONPATH=src python benchmarks/bench_update_throughput.py \\
        --examples 4000 --out /tmp/fresh.json
    python benchmarks/check_throughput_regression.py --current /tmp/fresh.json
    python benchmarks/check_throughput_regression.py --kind ps \\
        --current /tmp/ps.json --baseline BENCH_ps.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATES_PATH = Path(__file__).resolve().with_name("gates.json")
GATES = json.loads(GATES_PATH.read_text())

#: The benchmark kinds the CLI accepts: exactly the policy sections.
KINDS = tuple(sorted(GATES.keys() - {"_comment"}))

_MISSING = object()


def _match(doc, parts: tuple, prefix: tuple = ()):
    """Yield ``(path, value)`` for every key path of ``doc`` matching
    ``parts``, where a ``*`` part matches any key."""
    if not parts:
        yield prefix, doc
    elif isinstance(doc, dict):
        head = parts[0]
        keys = list(doc) if head == "*" else [head] if head in doc else []
        for key in keys:
            yield from _match(doc[key], parts[1:], prefix + (key,))


def _get(doc, path: tuple):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return _MISSING
        doc = doc[key]
    return doc


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _fmt(value) -> str:
    if value is _MISSING:
        return "missing"
    if isinstance(value, bool) or not _finite(value):
        return repr(value)
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.3g}"


def evaluate(section: dict, current: dict, baseline: dict) -> list[str]:
    """Apply one ``gates.json`` section to a current run and its
    baseline; returns the failures (empty = pass) and prints a line per
    checked value."""
    threshold = section["threshold"]
    failures: list[str] = []
    notices: set[tuple] = set()

    def fail(name: str, problem: str, row: dict) -> None:
        print(f"  {name:<44} {problem}  FAIL")
        failures.append(f"{name}: {problem} ({row['why']})")

    for row in section["gates"]:
        cmp, pattern = row["cmp"], row["path"]
        parts = tuple(pattern.split("."))
        sign = -1.0 if row.get("better", "higher") == "lower" else 1.0
        if cmp in ("min", "max"):
            bound = row["bound"]
            kind = "floor" if cmp == "min" else "ceiling"
            for path, value in list(_match(current, parts)) or [
                (parts, _MISSING)
            ]:
                name = ".".join(path)
                if value is _MISSING:
                    fail(name, "missing from the current run", row)
                elif not _finite(value):
                    fail(name, f"{_fmt(value)} is not a finite number", row)
                elif value < bound if cmp == "min" else value > bound:
                    side = "below" if cmp == "min" else "above"
                    fail(name, f"{_fmt(value)} {side} the {_fmt(bound)} "
                               f"{kind}", row)
                else:
                    print(f"  {name:<44} {_fmt(value)} vs {kind} "
                          f"{_fmt(bound)}  ok")
        elif cmp == "trend":
            hits = list(_match(baseline, parts))
            if not hits and not row.get("optional"):
                fail(pattern, "no baseline value to compare: malformed / "
                              "stale-schema baseline; the gate cannot "
                              "vouch for anything", row)
            for path, base in hits:
                name = ".".join(path)
                value = _get(current, path)
                if value is _MISSING and row.get("optional"):
                    prefix = path[: parts.index("*") + 1]
                    if _get(current, prefix) is _MISSING:
                        if prefix not in notices:
                            notices.add(prefix)
                            print(f"  NOTICE: the baseline carries "
                                  f"'{'.'.join(prefix)}' but the current "
                                  f"run has none (unavailable on this "
                                  f"host); skipping its rows")
                        continue
                if not (_finite(base) and base > 0):
                    fail(name, f"baseline {_fmt(base)} is not a positive "
                               f"finite number", row)
                elif value is _MISSING:
                    fail(name, "missing from the current run", row)
                elif not _finite(value):
                    fail(name, f"{_fmt(value)} is not a finite number", row)
                else:
                    change = value / base - 1.0
                    detail = f"{_fmt(base)} -> {_fmt(value)} ({change:+.1%})"
                    if sign * change < -threshold:
                        fail(name, f"{detail} regressed past the "
                                   f"{threshold:.0%} threshold", row)
                    else:
                        print(f"  {name:<44} {detail}  ok")
        elif cmp == "info":
            for path, value in _match(current, parts):
                base = _get(baseline, path)
                detail = _fmt(value)
                if _finite(value) and _finite(base) and base > 0:
                    detail = (f"{_fmt(base)} -> {detail} "
                              f"({value / base - 1.0:+.1%})")
                print(f"  {'.'.join(path):<44} {detail}  info-only")
        elif cmp == "warn":
            value = _get(current, parts)
            if "bound" in row:
                bad = (not _finite(value)
                       or sign * (value - row["bound"]) < 0)
                detail = f"current {_fmt(value)}, expected {_fmt(row['bound'])}"
            else:
                base = _get(baseline, parts)
                bad = _MISSING not in (base, value) and base != value
                detail = f"baseline {_fmt(base)}, current {_fmt(value)}"
            if bad:
                print(f"  WARNING: {pattern}: {detail}; {row['why']}")
        else:
            raise ValueError(f"gate row {pattern!r}: unknown cmp {cmp!r}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=KINDS, default="throughput")
    parser.add_argument("--current", required=True,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--baseline",
                        help="committed baseline JSON (default: "
                             "BENCH_<kind>.json at the repo root)")
    args = parser.parse_args(argv)
    baseline_path = args.baseline or str(ROOT / f"BENCH_{args.kind}.json")

    if not Path(args.current).exists():
        # The emission steps are '|| true'-guarded in CI (their exit
        # codes encode noisy-runner warnings), so a benchmark that
        # crashes reaches this gate with no JSON: the most severe
        # regression possible, which must fail with a clear message.
        print(f"ERROR: current benchmark output {args.current!r} does not "
              f"exist; the benchmark crashed before writing it; see the "
              f"benchmark step's log", file=sys.stderr)
        return 1
    if not Path(baseline_path).exists():
        # The baseline is a committed artifact; its absence is a repo
        # configuration error the gate must not paper over.
        print(f"ERROR: committed baseline {baseline_path!r} does not exist; "
              f"commit one (run the benchmark) or point --baseline at it",
              file=sys.stderr)
        return 2
    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(baseline_path).read_text())
    section = GATES[args.kind]
    print(f"baseline: {baseline_path}\ncurrent:  {args.current}\n"
          f"kind:     {args.kind} (threshold {section['threshold']:.0%})")
    failures = evaluate(section, current, baseline)
    if failures:
        print(f"\nREGRESSION ({len(failures)}):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nno regression beyond threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
