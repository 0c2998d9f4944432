#!/bin/sh
# Compare the CLI output of a git revision with the work tree's.
#
#   scripts/compare_cli.sh REV
#
# Runs the 47 commands of the matrix below twice: on `git archive REV` and
# on the work tree's src/ (committed or not), each command in a fresh
# directory with `--out out`.  Then `diff -r` compares every command's stdout,
# stderr, exit code and written files.  Prints "identical" and exits 0
# when every byte matches; otherwise prints the differences, keeps the
# runs for inspection and exits 1.  `scripts/compare_lifts.py` then
# measures the kept runs: how far apart the composed curves lie, the
# largest difference of every other differing output file's numbers, and
# which printed integers moved.
#
# A refactor must leave the matrix byte-identical against its parent; an
# intended output change, such as a bug fix, shows as a difference.  Run
# against HEAD on an unchanged tree, it runs the matrix twice on the same
# code, so any difference is nondeterminism: CI runs it that way.  The two
# sides run at once; on 2 CPUs the whole comparison takes about 25 s.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 REV" >&2; exit 2; }
repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
scratch=$(mktemp -d "${TMPDIR:-/tmp}/compare_cli.XXXXXX")
mkdir "$scratch/rev"
git -C "$repo" archive "$1" src | tar -x -C "$scratch/rev"
unset PILLOWCASE_OUT
# a circle that enters the fold disks at s = 0.05: gamma = 0.04, 721
# vertices with theta from 0.3 to 0.3 + 2 pi.  Both seeds of its fiber
# product lie on one loop, so these are the only runs in which a second
# seed lies on the path of a loop already traced.  Their output is the
# known-wrong one of ROADMAP item 11 (one loop twice, the other arc's loop
# missing); it is kept for the byte comparison only.
python3 -c 'import json, math
lift = [[0.04, 0.3 + 2 * math.pi * k / 720] for k in range(721)]
print(json.dumps({"components": [{"kind": "circle", "lift": lift}]}))' \
    > "$scratch/fold_disk.json"
# the circle of radius 0.08 about (1.2, 1.9), 200 vertices, of
# tests/test_compose.py: each sheet's loop over it is shorter than the ten
# coarse steps a trace runs before it may close, so each is traced at 0.064,
# then at 0.032 and 0.016
python3 -c 'import json
import numpy as np
lift = np.array([(1.2 + 0.08 * np.cos(t), 1.9 + 0.08 * np.sin(t))
                 for t in np.linspace(0, 2 * np.pi, 200)])
print(json.dumps({"components": [{"kind": "circle", "lift": lift.tolist()}]}))' \
    > "$scratch/small_circle.json"

# one run per line: a directory name, then the command's arguments
matrix() {
    for v in earring bypass; do
        echo "trace-$v trace --variant $v --s 0.05 --grid 64"
        echo "scene-$v scene --variant $v"
        for seed in 0 3; do
            echo "verify-$v-seed$seed verify --variant $v --seed $seed --json"
        done
        echo "verify-$v-s0.2 verify --variant $v --s 0.2 --json"
        for name in beta b_ver slope_one slope_two wavy dt_b_ver d_dt_b_ver; do
            echo "compose-$v-$name compose --variant $v --name $name --s 0.05"
        done
        for name in dt_b_ver d_dt_b_ver; do
            echo "compose-$v-$name-s0.2 compose --variant $v --name $name --s 0.2"
        done
        echo "compose-$v-fold-disk compose --variant $v --s 0.05" \
             "--curve-file $scratch/fold_disk.json"
        echo "compose-$v-small-circle compose --variant $v --s 0.05" \
             "--curve-file $scratch/small_circle.json"
    done
    echo "compose-fine compose --name beta --variant bypass --s 0.05 --max-step 2e-4"
    # the only run in which _prune_short drops vertices: 61,676 to 51,158
    echo "compose-fine-small-s compose --name beta --s 1e-3 --max-step 2e-4"
    echo "compose-retrace compose --name dt_b_ver --s 0.2 --max-step 0.5"
    echo "scene-huge-step scene --max-step 100"
    echo "verify-full verify --variant bypass --full"
    echo "verify-earring-full verify --variant earring --full --json"
    # the Newton edge runs of CI's smoke step: s near the accepted edge and
    # near the floor, and -0.45, where the scan's nu-Newton and the bracket
    # Newton matter; the smallest fold circles through verify
    echo "trace-edge-s trace --s 0.4999 --grid 16"
    echo "trace-bypass-edge-s trace --variant bypass --s=-0.4999 --grid 16"
    echo "trace-floor-s trace --s=1e-6 --grid 16"
    echo "trace-bypass-floor-s trace --variant bypass --s=-1e-6 --grid 16"
    echo "trace-negative-s trace --s=-0.45 --grid 16"
    echo "trace-bypass-negative-s trace --variant bypass --s=-0.45 --grid 16"
    # an odd grid, which classify_grid solves whole rather than by quarter
    echo "trace-odd-grid trace --s 0.05 --grid 33"
    # a small odd grid: one tile of side 3, whose nine fibers iota sorts
    # into four pairs and the fiber (0, 0) that it fixes
    echo "trace-tiny-grid trace --s 0.05 --grid 3"
    echo "verify-earring-s0.01 verify --variant earring --s 0.01 --json"
}

# run_side SRC OUT: the matrix on the package under SRC, into OUT
run_side() {
    matrix | while read -r name args; do
        mkdir -p "$2/$name"
        (cd "$2/$name" || exit
         rc=0
         # shellcheck disable=SC2086  # args is a word list
         PYTHONPATH="$1" python3 -m pillowcase.cli $args --out out \
             > stdout 2> stderr || rc=$?
         echo "$rc" > exit)
    done
}

run_side "$scratch/rev/src" "$scratch/runs-rev" &
run_side "$repo/src" "$scratch/runs-tree"
wait
if diff -r "$scratch/runs-rev" "$scratch/runs-tree"; then
    echo "identical: $(matrix | wc -l) runs"
    rm -rf "$scratch"
else
    echo "differences; the runs are kept in $scratch" >&2
    exit 1
fi
