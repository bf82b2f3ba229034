"""Time one command line in fresh interpreters against two checkouts.

    python tools/cold_runs.py OLD_ROOT NEW_ROOT --runs N -- ARGV...

Runs ``python ARGV...`` N times against each checkout's ``src/`` (as
``PYTHONPATH``), from an empty temporary directory, in pairs: the old side
first in the odd pairs and second in the even ones, so that a drift of the
host's speed falls on both sides alike.  Every run is a fresh process and
pays the interpreter's start and every import, as a user's command does.
Prints each side's median and quartiles of the wall times, and the number
of pairs the new side ran faster.  Exits 2 if a run exits nonzero, and 0
otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import time

from ab_pairs import quartiles


def time_run(root: str, argv: list[str], cwd: str) -> float:
    """Wall seconds of ``python argv`` against ``root``'s ``src/``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = (proc.stderr.decode(errors="replace").strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"{root}: python {shlex.join(argv)} exited {proc.returncode}: {tail}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     usage="%(prog)s OLD_ROOT NEW_ROOT --runs N -- ARGV...")
    parser.add_argument("old_root")
    parser.add_argument("new_root")
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("argv", nargs="+", help="the python arguments, after --")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    roots = {"old": args.old_root, "new": args.new_root}
    times: dict[str, list[float]] = {"old": [], "new": []}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for pair in range(args.runs):
                for side in ("old", "new") if pair % 2 == 0 else ("new", "old"):
                    times[side].append(time_run(roots[side], args.argv, tmp))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    print(f"python {shlex.join(args.argv)}")
    for side in ("old", "new"):
        q1, median, q3 = quartiles(times[side])
        print(f"{side}: median {median:.4f} s [{q1:.4f}, {q3:.4f}] over {args.runs} runs")
    faster = sum(new < old for old, new in zip(times["old"], times["new"]))
    print(f"new faster in {faster}/{args.runs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
