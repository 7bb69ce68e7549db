#!/bin/bash
# Compares the command-line reports of this checkout with those of the git
# commit BASE: the oracle of a refactor that must not change behaviour.
# Every README.md ```sh example that starts with `polybubble `, and the five
# CLI runs of the benchmark's certify workload (perfbench/workloads.py), runs
# at --seed 0 and at --seed 1 in both trees: BASE unpacked by `git archive`,
# and a copy of this checkout's src/.  The reports (every file but
# manifest.json, which holds a timestamp), stderr and exit codes must agree
# byte for byte; each difference is printed, and any exits 1.  Everything is
# made and removed in a temporary directory, outside the repository and .git.
# Run from the repository root: bash .github/compare_reports.sh BASE
set -euo pipefail
base=${1:?usage: bash .github/compare_reports.sh BASE}
root=$(mktemp -d "${TMPDIR:-/tmp}/compare_reports.XXXXXX")
trap 'rm -rf "$root"' EXIT
mkdir "$root/base" "$root/head"
git archive "$base" src | tar -x -C "$root/base"
cp -R src "$root/head/"

runs=()
while IFS= read -r line; do
    cmd=${line%%#*}
    runs+=("${cmd#polybubble }")
done < <(sed -n '/^```sh$/,/^```$/p' README.md | grep '^polybubble ')
runs+=("cayley-green --n 3 --k 1" "cayley-green --n 5 --k 2" \
    "tree src/polybubble/fixtures/tower.json" \
    "tree src/polybubble/fixtures/separated.json" "bubble-check")

for tree in base head; do
    mkdir "$root/$tree/reports"
    for i in "${!runs[@]}"; do
        read -ra args <<< "${runs[$i]}"
        for seed in 0 1; do
            out="reports/$i.seed$seed"
            status=0
            (cd "$root/$tree" && PYTHONPATH=src python -m polybubble --out "$out" \
                --seed "$seed" "${args[@]}" < /dev/null 2> "$out.stderr") || status=$?
            echo "polybubble --seed $seed ${runs[$i]}: exit $status" > "$root/$tree/$out.exit"
        done
    done
done

if ! diff -r -x manifest.json "$root/base/reports" "$root/head/reports"; then
    echo "reports, stderr or exit codes differ from $base (numbering: runs in order," \
         "README examples first)" >&2
    exit 1
fi
echo "${#runs[@]} runs at seeds 0 and 1 left the same reports, stderr and exit codes as $base"
