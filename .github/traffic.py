"""Lines of src/polybubble that the documented traffic never runs.

The traffic is every README.md ```sh example that starts with `polybubble `,
the demos, tests/test_acceptance.py and one pass of the cases of each
benchmark workload in perfbench/workloads.py (certify's cases are its five
command-line runs and its verifiers), all at seed 0, in this process, under
sys.settrace restricted to the files of src/polybubble.  For each module
it prints the executable lines (code.co_lines() of the module and of every
code object in it) that none of them ran, as ranges: a-b means every
executable line from a to b.  Reports go to a temporary directory that is
removed at the end, no bytecode is written and perfbench/ is only read, so
nothing is left in the repository.  The output is a report, not a gate:
an unrun line is a candidate for removal or for a documented run.

Run from the repository root: python .github/traffic.py
"""

import contextlib
import glob
import io
import os
import runpy
import shlex
import shutil
import sys
import tempfile

sys.dont_write_bytecode = True
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "polybubble") + os.sep
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

ran = {}  # file -> line numbers run


def _line(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    path = frame.f_code.co_filename
    if not path.startswith(PKG):
        return None
    ran.setdefault(path, set()).add(frame.f_lineno)  # the def line
    return _line


def readme_examples():
    """The argument lists of README's `polybubble ...` examples."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = fh.read().splitlines()
    in_sh = False
    for line in lines:
        if line in ("```sh", "```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("polybubble "):
            yield shlex.split(line.split("#")[0])[1:]


def traffic(tmp):
    """Run every item of the traffic; one progress line per group."""
    from polybubble import cli
    import workloads

    with contextlib.redirect_stderr(io.StringIO()):
        codes = [cli.main(["--out", os.path.join(tmp, "readme"), "--seed", "0"] + args)
                 for args in readme_examples()]
    print(f"README examples: exit codes {codes}", file=sys.stderr)
    for path in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")
    print("demos: done", file=sys.stderr)
    import pytest
    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests", "test_acceptance.py")])
    print(f"acceptance suite: exit {int(code)}", file=sys.stderr)
    for name in workloads.WORKLOADS:
        scratch = tempfile.mkdtemp(dir=tmp)
        ok = [case.run()[0] for case in workloads.build(name, 0, ROOT, scratch, {})]
        print(f"workload {name}: {sum(ok)} of {len(ok)} cases correct", file=sys.stderr)


def executable_lines(path):
    def walk(code):
        out = {line for _, _, line in code.co_lines() if line}
        for c in code.co_consts:
            if hasattr(c, "co_lines"):
                out |= walk(c)
        return out
    with open(path) as fh:
        return sorted(walk(compile(fh.read(), path, "exec")))


def ranges(lines, unrun):
    """unrun as ranges of consecutive entries of the sorted list lines."""
    out, start, prev = [], None, None
    for line in lines + [None]:
        if line in unrun:
            start = line if start is None else start
            prev = line
        elif start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = None
    return out


def main():
    os.chdir(ROOT)
    tmp = tempfile.mkdtemp(prefix="traffic.")
    sys.settrace(_call)
    try:
        traffic(tmp)
    finally:
        sys.settrace(None)
        shutil.rmtree(tmp, ignore_errors=True)
    for path in sorted(glob.glob(PKG + "*.py")):
        lines = executable_lines(path)
        unrun = set(lines) - ran.get(path, set())
        print(f"{os.path.basename(path)}: {len(unrun)} of {len(lines)} lines unrun"
              + (": " + ", ".join(ranges(lines, unrun)) if unrun else ""))


if __name__ == "__main__":
    main()
