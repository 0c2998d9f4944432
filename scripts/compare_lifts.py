"""Compare two run trees of ``scripts/compare_cli.sh``.

    PYTHONPATH=src python3 scripts/compare_lifts.py RUNS_A RUNS_B

RUNS_A and RUNS_B are the ``runs-rev`` and ``runs-tree`` directories that
``compare_cli.sh`` keeps when the two sides differ: one directory per run,
each with ``stdout``, ``exit`` and the files under ``out/``.  For every run
that wrote ``out/composed.json`` on both sides it prints the Hausdorff
distance of the two composed curves in the character embedding
(``curves.hausdorff_r3``), then the largest of them.  For every other
output of ``OUTPUTS`` that differs between the sides it prints the largest
difference of its numbers, taken in order; the angle columns of a CSV
(``ANGLES``) are compared mod 2 pi, so a sample printed on either side of
the 0/2 pi seam reads as its rounding.  A file whose two versions hold
different counts of numbers prints both counts.  Then it lists every
integer of a run's ``stdout`` or ``exit`` that differs between the sides,
in order of appearance; a run whose two outputs hold different numbers of
integers is listed whole.  Exits 0.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

from pillowcase.curves import ImmersedCurve, hausdorff_r3

# a number as the CLI prints it; an integer is one with no point or exponent
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
OUTPUTS = ("fold_circles.csv", "fibers.csv", "topology.json", "scene.json",
           "verify.json")
ANGLES = {"gamma", "theta", "tau"}


def integers(path: Path) -> list[int]:
    if not path.exists():
        return []
    return [int(x) for x in NUMBER.findall(path.read_text())
            if x.lstrip("-").isdigit()]


def numbers(path: Path) -> list[tuple[float, bool]]:
    """The numbers of an output file in order, each with whether it is an
    angle, read from the columns of a CSV after its ``#`` comments."""
    text = path.read_text()
    if path.suffix != ".csv":
        return [(float(x), False) for x in NUMBER.findall(text)]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",") if lines else []
    return [(float(x), name in ANGLES) for ln in lines[1:]
            for name, field in zip(header, ln.split(","))
            for x in NUMBER.findall(field)]


def largest_difference(na, nb) -> float:
    """The largest difference of two equally long lists of ``numbers``,
    angles mod 2 pi."""
    return max((abs(math.remainder(x - y, 2 * math.pi)) if angle
                else abs(x - y) for (x, angle), (y, _) in zip(na, nb)),
               default=0.0)


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
        for name in OUTPUTS:
            pa, pb = (root / run / "out" / name for root in (a, b))
            if not (pa.exists() and pb.exists()) \
                    or pa.read_bytes() == pb.read_bytes():
                continue
            na, nb = numbers(pa), numbers(pb)
            if len(na) != len(nb):
                print(f"{run} {name}: {len(na)} numbers -> {len(nb)}")
            else:
                print(f"{run} {name}: largest difference "
                      f"{largest_difference(na, nb):.3e}")
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
