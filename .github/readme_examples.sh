#!/bin/bash
# Runs the command-line examples of README.md and checks their exit codes.
# Run from the repository root: bash .github/readme_examples.sh
set -e
export PYTHONPATH=src
out="${RUNNER_TEMP:-$(mktemp -d)}/readme"
pb() { python -m polybubble --out "$out" "$@"; }
pb bubble-check
pb bubble-check --n 7 --k 1
pb cayley-green --n 3 --k 1 --pairs 100
pb cayley-green --n 5 --k 2 --pairs 20
pb cayley-green --n 7 --k 3 --pairs 20
pb tree src/polybubble/fixtures/tower.json
pb tree src/polybubble/fixtures/separated.json
pb pohozaev --k 2 --n 5 --suite manufactured
pb pohozaev --k 4 --n 12 --suite manufactured
pb pohozaev --k 2 --n 9 --suite bubble
pb pohozaev --k 3 --n 9 --suite bubble
pb solve --n 7 --k 1 --p 0 --mu-grid -0.5 -0.25 -0.1 -0.05 -0.02
status=0; pb solve --n 9 --k 2 --p 0 || status=$?
test "$status" -eq 3
status=0; pb solve --n 3 || status=$?
test "$status" -eq 3
status=0; pb solve --n 4 || status=$?
test "$status" -eq 0 -o "$status" -eq 3
