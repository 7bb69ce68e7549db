#!/bin/bash
# Runs the command-line examples of README.md and checks their exit codes
# and their reproducibility.  Each line of a README ```sh block that starts
# with `polybubble ` runs twice, as `python -m polybubble --out "$out" ...`
# into two fresh directories.  Each run must exit with the N of its
# `# exit N` comment, or 0 when it has none, and the two runs must leave
# byte-identical reports (every file but manifest.json, which holds a
# timestamp) and byte-identical stderr.
# Run from the repository root: bash .github/readme_examples.sh
set -e
export PYTHONPATH=src
root=$(mktemp -d "${RUNNER_TEMP:-${TMPDIR:-/tmp}}/readme.XXXXXX")
ran=0
while IFS= read -r line; do
    want=0
    if [[ $line =~ \#\ exit\ ([0-9]+) ]]; then
        want=${BASH_REMATCH[1]}
    fi
    cmd=${line%%#*}
    read -ra args <<< "${cmd#polybubble }"
    for run in a b; do
        out="$root/$ran/$run"
        mkdir -p "$out"
        status=0
        python -m polybubble --out "$out" "${args[@]}" < /dev/null \
            2> "$out.stderr" || status=$?
        if [ "$status" -ne "$want" ]; then
            cat "$out.stderr" >&2
            echo "README example 'polybubble ${args[*]}' exited $status, expected $want" >&2
            exit 1
        fi
    done
    if ! diff -r -x manifest.json "$root/$ran/a" "$root/$ran/b" >&2 \
            || ! cmp "$root/$ran/a.stderr" "$root/$ran/b.stderr" >&2; then
        echo "README example 'polybubble ${args[*]}' is not byte-reproducible" >&2
        exit 1
    fi
    ran=$((ran + 1))
done < <(sed -n '/^```sh$/,/^```$/p' README.md | grep '^polybubble ')
echo "$ran README examples exited as documented, each twice with identical reports"
test "$ran" -gt 0
