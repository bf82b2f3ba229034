"""Compare the benchmark's per-layer metrics between two checkouts.

    python tools/layer_diff.py OLD_ROOT NEW_ROOT --workload W --seed S [--seconds T]

Runs the command of OLD_ROOT's ``BENCHMARK.json`` (``bench/run.py``) with
``--workload W --seed S --seconds T --trace 1`` once in each checkout, old
first, and prints one line per ``per_layer`` metric of ``BENCHMARK.json``:
its old and new values and their ratio, new over old.  A ``count`` metric
whose values differ is flagged, since the two sides then did different
work.  Exits 0 if no count differs, 1 if one does and 2 if a run fails.
Standard library only.  It edits neither ``bench/`` nor
``BENCHMARK.json``; the runs write their records and spans to each
checkout's ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ab_pairs import run_bench


def compare(metrics: list[dict], old: dict, new: dict) -> tuple[list[str], bool]:
    """One line per metric (``per_layer`` entries of ``BENCHMARK.json``) of
    the runs' ``metrics`` summaries ``old`` and ``new``, and whether every
    count metric is the same on both sides."""
    lines, counts_same = [], True
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        a, b = old[name]["value"], new[name]["value"]
        ratio = f"{b / a:8.3f}" if a else f"{'-':>8}"
        line = f"{name:<36} {a:>12.6g} {b:>12.6g} {ratio}  {unit}"
        if unit == "count" and a != b:
            counts_same = False
            line += "  COUNT CHANGED"
        lines.append(line)
    return lines, counts_same


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)

    with open(os.path.join(args.old_root, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(seconds), "--trace", "1"]
    try:
        old, new = (run_bench(root, contract["command"], bench_args)["metrics"]
                    for root in (args.old_root, args.new_root))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{'metric':<36} {'old':>12} {'new':>12} {'new/old':>8}  unit")
    lines, counts_same = compare(contract["per_layer"], old, new)
    print("\n".join(lines))
    return 0 if counts_same else 1


if __name__ == "__main__":
    raise SystemExit(main())
