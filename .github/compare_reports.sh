#!/bin/bash
# Runs the documented command-line examples and compares their reports.
# Every README.md ```sh example that starts with `polybubble `, and the five
# CLI runs of the benchmark's certify workload (perfbench/workloads.py), runs
# at --seed 0 and at --seed 1 in two trees: a copy of this checkout's src/
# and a base tree.  The base is the git commit BASE, unpacked by
# `git archive`, when it is given: the oracle of a refactor that must not
# change behaviour.  Without BASE it is a second copy of this checkout, which
# checks that every run is byte-reproducible.  The reports (every file but
# manifest.json, which holds a timestamp), stderr and exit codes must agree
# byte for byte, and each README example must exit in this checkout with
# the N of its `# exit N` comment, or 0 when it has none; each difference is
# printed, and any exits 1.  Everything is made and removed in a temporary
# directory, outside the repository and .git.
# Run from the repository root: bash .github/compare_reports.sh [BASE]
set -euo pipefail
base=${1:-}
root=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/compare_reports.XXXXXX")
trap 'rm -rf "$root"' EXIT
mkdir "$root/base" "$root/head"
if [ -n "$base" ]; then
    git archive "$base" src | tar -x -C "$root/base"
else
    cp -R src "$root/base/"
fi
cp -R src "$root/head/"

runs=()
wants=()
while IFS= read -r line; do
    want=0
    if [[ $line =~ \#\ exit\ ([0-9]+) ]]; then
        want=${BASH_REMATCH[1]}
    fi
    cmd=${line%%#*}
    runs+=("${cmd#polybubble }")
    wants+=("$want")
done < <(sed -n '/^```sh$/,/^```$/p' README.md | grep '^polybubble ')
test "${#runs[@]}" -gt 0
runs+=("cayley-green --n 3 --k 1" "cayley-green --n 5 --k 2" \
    "tree src/polybubble/fixtures/tower.json" \
    "tree src/polybubble/fixtures/separated.json" "bubble-check")

failed=0
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
            if [ "$tree" = head ] && [ "$i" -lt "${#wants[@]}" ] \
                    && [ "$status" -ne "${wants[$i]}" ]; then
                cat "$root/head/$out.stderr" >&2
                echo "README example 'polybubble ${runs[$i]}' at --seed $seed exited" \
                     "$status, expected ${wants[$i]}" >&2
                failed=1
            fi
        done
    done
done

if ! diff -r -x manifest.json "$root/base/reports" "$root/head/reports"; then
    echo "reports, stderr or exit codes differ from ${base:-a second run of this checkout}" \
         "(numbering: runs in order, README examples first)" >&2
    exit 1
fi
test "$failed" -eq 0
echo "${#runs[@]} runs at seeds 0 and 1 left the same reports, stderr and exit codes as" \
     "${base:-a second run of this checkout}, and each README example exited as documented"
