#!/bin/bash
# Runs the command-line examples of README.md and checks their exit codes.
# Each line of a README ```sh block that starts with `polybubble ` runs as
# `python -m polybubble --out "$out" ...`; it must exit with the N of its
# `# exit N` comment, or 0 when it has none.
# Run from the repository root: bash .github/readme_examples.sh
set -e
export PYTHONPATH=src
out="${RUNNER_TEMP:-$(mktemp -d)}/readme"
ran=0
while IFS= read -r line; do
    want=0
    if [[ $line =~ \#\ exit\ ([0-9]+) ]]; then
        want=${BASH_REMATCH[1]}
    fi
    cmd=${line%%#*}
    read -ra args <<< "${cmd#polybubble }"
    status=0
    python -m polybubble --out "$out" "${args[@]}" < /dev/null || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "README example 'polybubble ${args[*]}' exited $status, expected $want" >&2
        exit 1
    fi
    ran=$((ran + 1))
done < <(sed -n '/^```sh$/,/^```$/p' README.md | grep '^polybubble ')
echo "$ran README examples exited as documented"
test "$ran" -gt 0
