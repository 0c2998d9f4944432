"""Compare two run trees of ``scripts/compare_cli.sh``.

    PYTHONPATH=src python3 scripts/compare_lifts.py RUNS_A RUNS_B

RUNS_A and RUNS_B are the ``runs-rev`` and ``runs-tree`` directories that
``compare_cli.sh`` keeps when the two sides differ: one directory per run,
each with ``stdout``, ``exit`` and the files under ``out/``.  For every run
that wrote ``out/composed.json`` on both sides it prints the Hausdorff
distance of the two composed curves in the character embedding
(``curves.hausdorff_r3``), then the largest of them.  Then it lists every
integer of a run's ``stdout`` or ``exit`` that differs between the sides,
in order of appearance; a run whose two outputs hold different numbers of
integers is listed whole.  Exits 0.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from pillowcase.curves import ImmersedCurve, hausdorff_r3

# a number as the CLI prints it; an integer is one with no point or exponent
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def integers(path: Path) -> list[int]:
    if not path.exists():
        return []
    return [int(x) for x in NUMBER.findall(path.read_text())
            if x.lstrip("-").isdigit()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    runs = sorted(d.name for d in a.iterdir()
                  if d.is_dir() and (b / d.name).is_dir())
    largest = None
    for run in runs:
        pa, pb = (root / run / "out" / "composed.json" for root in (a, b))
        if pa.exists() and pb.exists():
            hd = hausdorff_r3(ImmersedCurve.from_json(pa.read_text()),
                              ImmersedCurve.from_json(pb.read_text()))
            print(f"{run}: hausdorff_r3 {hd:.3e}")
            largest = hd if largest is None else max(largest, hd)
    if largest is not None:
        print(f"largest hausdorff_r3 {largest:.3e}")
    for run in runs:
        for name in ("stdout", "exit"):
            ia, ib = (integers(root / run / name) for root in (a, b))
            if len(ia) != len(ib):
                print(f"{run} {name}: {ia} -> {ib}")
                continue
            for k, (x, y) in enumerate(zip(ia, ib)):
                if x != y:
                    print(f"{run} {name} integer {k}: {x} -> {y}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
