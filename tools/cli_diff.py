"""Report the byte changes of the CLI between two checkouts.

    python tools/cli_diff.py OLD_ROOT NEW_ROOT

Runs each command line of ``ARGVS`` as ``python -m cavitybic`` against
each checkout's ``src/``, once to stdout and once with ``--out``, and
prints one line per input: the exit codes, whether stderr matches (and
whether ``--out`` holds what stdout held), the ``key=value`` lines that
only one side printed (the ``#`` echo and footer lines among them), and,
for each CSV column and ``key=value`` field of both, how many values
changed and the largest absolute change.  Exits 1 if anything differs and
0 otherwise.  Standard library only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from typing import NamedTuple

_EVOLVE = [
    [],
    ["--set", "m_atoms=3"],
    ["--set", "n_chain=4"],
    # both fall back to RK45: an exceptional point and a rate resonance
    ["--set", "n_chain=2", "--set", "m_atoms=1", "--set", "g=0.25"],
    ["--set", "g=0", "--set", "gamma_a=0.05"],
    ["--set", "initial=bic", "--set", "initial_k=2", "--set", "m_atoms=3"],
    ["--set", "initial_k=0"],
    ["--set", "initial_k=1"],
    ["--set", "gamma_c=0", "--set", "t_end=50"],
    ["--set", "delta=0.2"],
    ["--set", "gamma_a=0.05", "--set", "g=0.3"],
    ["--set", "detect_steady=false", "--set", "t_end=100"],
    ["--set", "snapshot_dt=0.5", "--set", "t_end=300", "--set", "g=0.3"],
]

# The README's four examples (without their --out), the evolve inputs above,
# the benchmark's cli-scan commands at seeds 1, 2 and 3, two bic runs at a
# coupling small enough to test the null-space route's conditioning, four
# runs where chi^K times the closed form's chi-free factor overflows a
# float, two bic runs near the float maximum, where the conditions'
# couplings are scaled below 2^1000, and five evolve runs at its input
# bounds: an undamped run whose reach is its own block, a reach above
# MAX_REACHED_ENTRIES, a grid too fine, a negative t_end and a trapped
# start above m_atoms.
ARGVS = [
    ["bic", "--set", "m_atoms=2", "--set", "k_excitations=2", "--set", "g=0.1"],
    ["sweep-chi", "--set", "chi_min=0.05", "--set", "chi_max=20", "--set", "chi_points=41"],
    ["evolve", "--set", "g=0.1", "--set", "gamma_c=1", "--set", "t_end=2000"],
    ["qfactor", "--set", "g=10", "--set", "gamma_a=0.01", "--set", "delta_points=61"],
    *(["evolve", *argv] for argv in _EVOLVE),
    ["bic", "--seed", "1"],
    ["sweep-chi", "--set", "chi_points=2001", "--set", "chi_min=0.0307", "--set", "chi_max=26.949"],
    ["qfactor", "--set", "delta_points=2001", "--set", "g=11.528", "--set", "gamma_a=0.01255"],
    ["bic", "--seed", "2"],
    ["sweep-chi", "--set", "chi_points=2001", "--set", "chi_min=0.0965", "--set", "chi_max=28.957"],
    ["qfactor", "--set", "delta_points=2001", "--set", "g=10.113", "--set", "gamma_a=0.01085"],
    ["bic", "--seed", "3"],
    ["sweep-chi", "--set", "chi_points=2001", "--set", "chi_min=0.039", "--set", "chi_max=20.885"],
    ["qfactor", "--set", "delta_points=2001", "--set", "g=10.74", "--set", "gamma_a=0.01604"],
    ["bic", "--set", "g=1e-12", "--set", "m_atoms=30", "--set", "k_excitations=30"],
    ["bic", "--set", "g=3e-14", "--set", "m_atoms=3", "--set", "k_excitations=3"],
    ["sweep-chi", "--set", "m_atoms=100", "--set", "k_excitations=100", "--set", "chi_min=1",
     "--set", "chi_max=100", "--set", "chi_points=3"],
    ["sweep-chi", "--set", "m_atoms=301", "--set", "k_excitations=301", "--set", "chi_min=0.001",
     "--set", "chi_max=0.01", "--set", "chi_points=3"],
    ["bic", "--set", "g=1e160"],
    ["bic", "--set", "m_atoms=30", "--set", "k_excitations=30", "--set", "g=1e6"],
    ["bic", "--set", "g=1e308"],
    ["bic", "--set", "g=1e308", "--set", "m_atoms=5", "--set", "k_excitations=1"],
    ["evolve", "--set", "m_atoms=6", "--set", "gamma_c=0", "--set", "g=0", "--set", "t_end=1200"],
    ["evolve", "--set", "n_chain=60", "--set", "m_atoms=2"],
    ["evolve", "--set", "t_end=1e300"],
    ["evolve", "--set", "t_end=-5"],
    ["evolve", "--set", "initial=bic", "--set", "initial_k=3"],
]


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str
    out_matches: bool  # the --out run exited alike and its file held this stdout


def run(root: str, argv: list[str], tmp: str) -> Run:
    """``argv`` run against ``root``'s ``src/``, once to stdout and once
    with ``--out``, from the directory ``tmp``."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(root), "src")}
    out = os.path.join(tmp, "out")
    plain, to_file = (subprocess.run([sys.executable, "-m", "cavitybic", *argv, *extra],
                                     capture_output=True, env=env, cwd=tmp)
                      for extra in ([], ["--out", out]))
    written = b""
    if os.path.exists(out):
        with open(out, "rb") as handle:
            written = handle.read()
        os.remove(out)
    same = ((to_file.returncode, to_file.stderr, to_file.stdout, written)
            == (plain.returncode, plain.stderr, b"", plain.stdout))
    return Run(plain.returncode, plain.stdout.decode(), plain.stderr.decode(), same)


def parse(text: str) -> dict[str, list[str]]:
    """Every value of one output by name: a ``key=value`` line's under its
    key (``# key`` on a comment line), a CSV row's cells under the names of
    the header, the first line that is neither."""
    fields: dict[str, list[str]] = {}
    header = None
    for line in text.splitlines():
        if line.startswith("#") or "=" in line:
            key, _, value = line.partition("=")
            fields.setdefault(key, []).append(value)
        elif header is None:
            header = line.split(",")
            fields.update((name, []) for name in header)
        else:
            for name, value in zip(header, line.split(",")):
                fields[name].append(value)
    return fields


def _largest_change(pairs: list[tuple[str, str]]) -> str:
    try:
        return f"max |change| {max(abs(float(a) - float(b)) for a, b in pairs):.2g}"
    except ValueError:  # a value that is not a number
        return f"e.g. {pairs[0][0]!r} -> {pairs[0][1]!r}"


def compare(old: Run, new: Run) -> list[str]:
    """What two runs of one input show: their exit codes and whether stderr
    matches first, then one phrase per other difference."""
    out = [f"exit {old.code}" if old.code == new.code else f"exit {old.code} -> {new.code}",
           "stderr same" if old.stderr == new.stderr else "stderr differs"]
    if not (old.out_matches and new.out_matches):
        out.append("--out differs from stdout")
    before, after = parse(old.stdout), parse(new.stdout)
    changes = []
    for sign, fields, other in (("-", before, after), ("+", after, before)):
        for key in [key for key in fields if key not in other]:
            values = fields[key]
            changes.append(f"{sign}{key}={values[0]}" if len(values) == 1
                           else f"{sign}{key} ({len(values)} values)")
    for key in [key for key in before if key in after]:
        old_values, new_values = before[key], after[key]
        if len(old_values) != len(new_values):
            changes.append(f"{key}: {len(old_values)} -> {len(new_values)} values")
        changed = [(a, b) for a, b in zip(old_values, new_values) if a != b]
        if changed:
            changes.append(f"{key} {len(changed)}/{len(old_values)} changed, "
                           + _largest_change(changed))
    if not changes and old.stdout != new.stdout:
        changes.append("stdout differs in layout")
    return out + changes


def main(argv: list[str] | None = None) -> int:
    roots = sys.argv[1:] if argv is None else argv
    if len(roots) != 2:
        print("usage: python tools/cli_diff.py OLD_ROOT NEW_ROOT", file=sys.stderr)
        return 2
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        for args in ARGVS:
            old, new = (run(root, args, tmp) for root in roots)
            differs |= not (old == new and old.out_matches)
            print(f"{' '.join(args)}: {'; '.join(compare(old, new))}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
