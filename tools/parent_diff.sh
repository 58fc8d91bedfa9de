#!/bin/sh
# Compare the command-line output of a git ref with the working tree's.
#
# Usage: tools/parent_diff.sh [REF]    (REF defaults to HEAD~1)
#
# Extracts REF with `git archive` into a temporary directory, then, on
# that tree and on the working tree, runs `python -W error -m
# lzs_sim.cli` with that tree's src/ on PYTHONPATH for:
#   - `run` of every configs/*.cfg at --workers 1, 2 and 8;
#   - the default location: `run` of every configs/*.cfg at --workers 1
#     without --out, from a fresh empty working directory and with the
#     config's absolute path; the case records the tree it writes there;
#   - `probe configs/second_diamond.cfg --eps -6 --amp 3`;
#   - `boundaries` of every configs/*.cfg;
#   - a rerun: `run configs/frequency_batch.cfg` (six maps), then `run
#     configs/first_diamond.cfg` (one map) into the same directory,
#     which also holds a `notes.txt` the runs must leave alone;
#   - a failed write: `run configs/first_diamond.cfg` into a directory
#     that holds a directory `map_00.csv`, which stops the run with exit
#     1; the case records that directory's listing after the run.
# Each case records its stdout, its exit status and, for `run`, its
# output directory.  Prints the stderr of every case that exits nonzero,
# then `diff -r` of the two sides without the map CSVs, then one
# `diff -rq` line per map CSV that differs or exists on one side only, so
# a last-bit move in the maps takes a line per file, not one per row.
# Stderr is not diffed, since an error names a path inside its side's
# own output directory.  Prints `(no difference)` and exits 0 when the
# outputs are identical, and exits 1 when they differ.  A call takes about
# 20 s on two cores.  REF must be in the clone: a depth-1 checkout has
# only its own commit.
set -u

ref=${1:-HEAD~1}
repo=$(git rev-parse --show-toplevel) || exit 2
scratch=$(mktemp -d) || exit 2
trap 'rm -rf "$scratch"' EXIT
trap 'exit 130' INT TERM

mkdir "$scratch/ref"
git -C "$repo" archive "$ref" | tar -x -C "$scratch/ref" || exit 2

# one_case <name> <arguments...>: one CLI call in $cwd, or in $tree when
# $cwd is empty, recorded under $side.
cwd=
one_case() {
    out=$scratch/out/$side/$1
    shift
    mkdir -p "$out"
    status=0
    (cd "${cwd:-$tree}" && PYTHONPATH="$tree/src" python -W error -m lzs_sim.cli "$@") \
        > "$out/stdout" 2> "$scratch/stderr" || status=$?
    echo "$status" > "$out/status"
    if [ "$status" -ne 0 ]; then
        echo "== $side ${out##*/}: exit $status"
        cat "$scratch/stderr"
    fi
}

for side in ref work; do
    if [ "$side" = ref ]; then tree=$scratch/ref; else tree=$repo; fi
    for cfg in "$tree"/configs/*.cfg; do
        base=$(basename "$cfg" .cfg)
        for workers in 1 2 8; do
            one_case "run-$base-w$workers" run "configs/$base.cfg" --workers "$workers" \
                --out "$scratch/out/$side/run-$base-w$workers/maps"
        done
        one_case "boundaries-$base" boundaries "configs/$base.cfg"
        cwd=$scratch/out/$side/default-$base/cwd
        mkdir -p "$cwd"
        one_case "default-$base" run "$tree/configs/$base.cfg" --workers 1
        cwd=
    done
    one_case probe probe configs/second_diamond.cfg --eps -6 --amp 3
    rerun=$scratch/out/$side/rerun/maps
    mkdir -p "$rerun" && echo "not written by lzs-sim" > "$rerun/notes.txt"
    one_case rerun-batch run configs/frequency_batch.cfg --workers 1 --out "$rerun"
    one_case rerun run configs/first_diamond.cfg --workers 1 --out "$rerun"
    failed=$scratch/out/$side/failed-write/maps
    mkdir -p "$failed/map_00.csv"
    one_case failed-write run configs/first_diamond.cfg --workers 1 --out "$failed"
    ls -A "$failed" > "$scratch/out/$side/failed-write/listing"
done

echo "== diff -r $ref working-tree, map CSVs by name"
status=0
diff -r -x '*.csv' "$scratch/out/ref" "$scratch/out/work" || status=$?
if diff -rq "$scratch/out/ref" "$scratch/out/work" | grep -E '\.csv( differ)?$'; then
    [ "$status" -ne 0 ] || status=1
fi
[ "$status" -ne 0 ] || echo "(no difference)"
exit "$status"
