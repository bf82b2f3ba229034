"""Compare the benchmark's end-to-end metrics between two checkouts over
alternating pairs of runs.

    python tools/ab_pairs.py OLD_ROOT NEW_ROOT --workload W --pairs N --seed S
        [--seconds T] [--claim METRIC ...]

Runs the command of OLD_ROOT's ``BENCHMARK.json`` (``bench/run.py``) with
``--workload W --seed S --seconds T --trace 0`` in each checkout, N times
each, in pairs: the old side runs first in the odd pairs and second in the
even ones.  Each run's last line of stdout is its JSON summary.  Prints one
line per pair, then, for every end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles and the number of pairs the new side won,
and the verdict:

- a claimed metric (``--claim``) holds if the new side wins at least 9 of
  every 10 pairs and the medians differ, in the new side's favour, by more
  than the old side's interquartile range;
- every other metric holds if the new median is worse than the old one by
  at most its ``bound``, read as a fraction of the old median;
- the share of checks that failed is no larger on the new side.

Exits 0 if everything holds, 1 if not and 2 if a run fails.  Standard
library only.  It edits neither ``bench/`` nor ``BENCHMARK.json``; the runs
write their records to each checkout's ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(metric: dict, old: list[float], new: list[float],
              claimed: bool) -> tuple[str, bool]:
    """One line on ``metric`` (an ``end_to_end`` entry of ``BENCHMARK.json``)
    over paired runs ``old[i]``, ``new[i]``, and whether it holds."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
    (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
    gain = sign * (om - nm)
    if claimed:
        holds = wins * 10 >= 9 * len(old) and gain > o3 - o1
        verdict = (f"claim {'holds' if holds else 'fails'}: gain {gain:.4g} "
                   f"against old IQR {o3 - o1:.4g}")
    else:
        allowed = metric["bound"] * abs(om)
        holds = -gain <= allowed
        verdict = (f"{'within' if holds else 'beyond'} bound: worse by {-gain:.4g}, "
                   f"allowed {allowed:.4g}")
    return (f"{metric['name']} ({metric['unit']}, {metric['better']} is better): "
            f"old {om:.4g} [{o1:.4g}, {o3:.4g}], new {nm:.4g} [{n1:.4g}, {n3:.4g}]; "
            f"new won {wins}/{len(old)}; {verdict}"), holds


def run_bench(root: str, command: list[str], args: list[str]) -> dict:
    """The JSON summary of one benchmark run in ``root``."""
    proc = subprocess.run([*command, *args], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{root}: {' '.join(command)} exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--claim", action="append", default=[])
    args = parser.parse_args(argv)

    with open(os.path.join(args.old_root, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    metrics = contract["end_to_end"]
    unknown = set(args.claim) - {m["name"] for m in metrics}
    if unknown or args.pairs < 1:
        parser.error(f"unknown claimed metric {sorted(unknown)}" if unknown
                     else "--pairs must be at least 1")
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(seconds), "--trace", "0"]
    roots = {"old": args.old_root, "new": args.new_root}
    runs: dict[str, list[dict]] = {"old": [], "new": []}
    try:
        for pair in range(args.pairs):
            order = ("old", "new") if pair % 2 == 0 else ("new", "old")
            for side in order:
                runs[side].append(run_bench(roots[side], contract["command"], bench_args))
            values = "; ".join(
                f"{m['name']} {runs['old'][-1]['metrics'][m['name']]['value']:.4g} -> "
                f"{runs['new'][-1]['metrics'][m['name']]['value']:.4g}" for m in metrics)
            print(f"pair {pair + 1} ({order[0]} first): {values}", flush=True)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    ok = True
    for metric in metrics:
        line, holds = summarize(
            metric, *([run["metrics"][metric["name"]]["value"] for run in runs[side]]
                      for side in ("old", "new")), metric["name"] in args.claim)
        print(line)
        ok &= holds
    failed = {side: sum(r["failed"] for r in runs[side])
              / max(1, sum(r["attempted"] for r in runs[side])) for side in runs}
    print(f"failed checks: old {failed['old']:.3g}, new {failed['new']:.3g}")
    ok &= failed["new"] <= failed["old"]
    print(f"verdict: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
