"""Record the golden report hashes of the certify workload's CLI runs.

    python3 perfbench/golden.py SEED [SEED ...]

Runs each CLI case of the ``certify`` workload once per seed and stores the
sha256 of every report file except ``manifest.json`` in
``perfbench/golden_hashes.json``, keyed by seed.  run.py compares each
certify run against this file and prints which reports differ, as a
no-behaviour-change oracle for refactors; it never gates on them.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PATH = os.path.join(HERE, "golden_hashes.json")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main(seeds) -> int:
    store = {}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            store = json.load(fh)
    tmp = os.path.join(ROOT, ".perfbench_out", f"golden-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        for seed in seeds:
            golden = {}
            for case in workloads.build("certify", seed, ROOT, tmp, golden):
                if case.golden and not case.run()[0]:
                    print(f"seed {seed}: {case.name} failed", file=sys.stderr)
                    return 1
            store[str(seed)] = golden
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(PATH, "w") as fh:
        json.dump(dict(sorted(store.items(), key=lambda kv: int(kv[0]))), fh,
                  indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main([int(s) for s in sys.argv[1:]]))
