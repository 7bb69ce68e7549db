"""The package namespace: every public name of the eager package is still
there, resolved on first use, and what each entry point imports stays within
its budget (checked in fresh interpreters, one for all entry points)."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import polybubble

# The names the package re-exported when it imported every submodule eagerly,
# with the submodule that defines each.
PUBLIC = {
    "radial": ["RadialFunction", "ExactCheckResult", "bubble_constant",
               "bubble_constant_product", "critical_exponent", "make_bubble",
               "laplacian", "radial_derivative", "power_reduce",
               "check_bubble_identity"],
    "quadrature": ["Ball", "HalfBall", "SphereSurface", "BallMinusBalls",
                   "Singularity", "QuadratureResult", "AccuracyError",
                   "integrate_radial", "integrate_volume", "integrate_surface",
                   "integrate_axisymmetric", "sphere_area", "ball_volume"],
    "bubbles": ["BubbleSpec", "theta", "positive_bubble", "check_decay"],
    "conformal": ["CayleyMap", "HalfSpaceBump", "GaussianXPow",
                  "check_distance_identity", "check_norm_invariance",
                  "SingularPointError"],
    "green": ["psi_ball", "psi_half", "kernel_integral", "green_ball",
              "green_half", "check_conformal_relation"],
    "tree": ["TreeConfig", "FamilyLaw", "InfluenceData", "Region",
             "AmbiguousScalesError", "epsilon", "classify", "check_dominance",
             "interaction_sup"],
    "weights": ["psi_weight", "eta_sequences", "giraud_verify",
                "convolution_bound_verify", "ratio_table_csv"],
    "pohozaev": ["Jet", "MultiPoly", "PolynomialJet", "manufactured_dirichlet",
                 "e_operator", "x_grad_laplacian", "pohozaev_lhs",
                 "pohozaev_rhs", "pohozaev_residual", "PohozaevReport"],
    "solver": ["ProblemParams", "RadialSolution", "BranchPoint",
               "IntegrationBlowUp", "NewtonFailure", "shoot", "newton_solve",
               "continuation", "fit_bubble", "pohozaev_scaling",
               "synthetic_bubble_branch", "branch_csv"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)

# The scipy modules an interpreter has loaded, as an expression for fresh().
SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
FIXTURES = os.path.join(os.path.dirname(polybubble.__file__), "fixtures")


def fresh(code):
    """Run ``code`` in a new interpreter that finds this checkout's package;
    return its standard output, stripped."""
    src = os.path.dirname(os.path.dirname(polybubble.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


# -- the namespace -----------------------------------------------------------

def test_every_public_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        sub = importlib.import_module(f"polybubble.{module}")
        for name in names:
            assert getattr(polybubble, name) is getattr(sub, name), name


def test_all_lists_exactly_the_public_names():
    assert sorted(polybubble.__all__) == NAMES
    assert len(set(polybubble.__all__)) == len(NAMES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polybubble import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(polybubble, name) for name in NAMES)


def test_dir_lists_public_names_and_submodules():
    listed = dir(polybubble)
    assert set(NAMES) <= set(listed)
    assert {"solver", "quadrature", "fields", "jets", "cli"} <= set(listed)


def test_submodule_attribute_resolves_without_an_explicit_import():
    out = fresh("import polybubble; f = polybubble.solver.shoot; "
                "print(f.__module__, f is polybubble.shoot)")
    assert out == "polybubble.solver True"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polybubble.no_such_name


# -- the import budget -------------------------------------------------------

def test_package_import_loads_no_submodule_and_no_scipy():
    out = fresh("import sys, polybubble; print(sorted(m for m in sys.modules "
                "if m.startswith(('polybubble.', 'scipy'))))")
    assert out == "[]"


ENTRIES = ["cli", "pohozaev", "quadrature", "fields", "conformal", "green",
           "tree", "weights", "bubbles"]


@pytest.fixture(scope="module")
def scipy_after_import():
    """The scipy modules loaded after each entry point, imported in turn in
    one interpreter.  Imports only add modules, so an entry point that loads
    one alone shows it here at its own turn."""
    out = fresh("import importlib, json, sys\n"
                "seen = {}\n"
                f"for e in {ENTRIES!r}:\n"
                "    importlib.import_module('polybubble.' + e)\n"
                f"    seen[e] = {SCIPY_LOADED}\n"
                "print(json.dumps(seen))")
    return json.loads(out)


@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_point_leaves_integrate_optimize_and_stats_unloaded(
        entry, scipy_after_import):
    """No entry point loads any scipy module, scipy.integrate,
    scipy.optimize and scipy.stats among them."""
    assert scipy_after_import[entry] == [], entry


# Every command but solve, as the README and the benchmark run them.
COMMANDS = [["bubble-check"], ["cayley-green", "--n", "3", "--k", "1"],
            ["tree", os.path.join(FIXTURES, "tower.json")], ["pohozaev"]]


@pytest.fixture(scope="module")
def scipy_after_command(tmp_path_factory):
    """The exit code and the scipy modules loaded after each of COMMANDS,
    run in turn through cli.main in one interpreter."""
    out = str(tmp_path_factory.mktemp("runs"))
    code = ("import json, sys\n"
            "from polybubble.cli import main\n"
            "seen = []\n"
            f"for argv in {COMMANDS!r}:\n"
            f"    code = main(['--out', {out!r}] + argv)\n"
            f"    seen.append([code, {SCIPY_LOADED}])\n"
            "print(json.dumps(seen))")
    return dict(zip(map(tuple, COMMANDS), json.loads(fresh(code))))


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_command_finishes_with_no_scipy_loaded(argv, scipy_after_command):
    assert scipy_after_command[tuple(argv)] == [0, []]


def test_solver_loads_scipy_integrate():
    out = fresh("import sys, polybubble.solver; "
                "print('scipy.integrate' in sys.modules)")
    assert out == "True"


def test_integrate_radial_does_not_depend_on_import_order():
    call = ("r = integrate_radial(lambda r: np.exp(-r * r), np.inf, 5); "
            "print(r.value.hex(), r.error_estimate.hex())")
    alone = fresh("import sys, numpy as np; "
                  "from polybubble.quadrature import integrate_radial; "
                  f"{call}; assert 'polybubble.solver' not in sys.modules")
    after_solver = fresh("import numpy as np, polybubble.solver; "
                         f"from polybubble.quadrature import integrate_radial; {call}")
    assert alone == after_solver
    assert float.fromhex(alone.split()[0]) > 0


# -- imports ------------------------------------------------------------------

def _unused_imports(path):
    """(line, name) of each name a module imports and never reads, apart
    from __future__ imports and import lines marked # noqa."""
    with open(path) as fh:
        text = fh.read()
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def test_modules_use_every_name_they_import():
    src = os.path.dirname(polybubble.__file__)
    found = {f: _unused_imports(os.path.join(src, f))
             for f in sorted(os.listdir(src)) if f.endswith(".py")}
    assert {f: u for f, u in found.items() if u} == {}


# -- file writes --------------------------------------------------------------

_WRITER_CALLS = {"write_text", "write_bytes", "save", "savetxt", "savez",
                 "savez_compressed", "tofile"}


def _file_writes(path):
    """(line, what) of each place a module writes a file itself: an open
    call whose mode contains w, a, x or + (or is not a string constant; for
    x.open(...) a first argument made of mode letters is a mode too, as in
    Path.open), a call of a method named in _WRITER_CALLS (pathlib's and
    numpy's writers), and any use of os.fdopen, tempfile or shutil."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        name = (getattr(node.func, "id", getattr(node.func, "attr", None))
                if isinstance(node, ast.Call) else None)
        if name == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords
                                      if kw.arg == "mode"]
            first = node.args[0] if node.args else None
            if (isinstance(node.func, ast.Attribute) and isinstance(first, ast.Constant)
                    and set(str(first.value)) <= set("rwaxbt+")):
                modes.append(first)
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes):
                found.append((node.lineno, "open"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and name in _WRITER_CALLS:
            found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr == "fdopen":
            found.append((node.lineno, "os.fdopen"))
        else:
            for mod in ("tempfile", "shutil"):
                if ((isinstance(node, ast.Name) and node.id == mod)
                        or (isinstance(node, ast.alias) and node.name.split(".")[0] == mod)
                        or (isinstance(node, ast.ImportFrom) and node.module == mod)):
                    found.append((node.lineno, mod))
    return found


def test_file_write_guard_sees_each_writer(tmp_path):
    """_file_writes flags each form of a file write it names, one line
    each, and no read."""
    lines = ["open(p, 'w')", "open(p, mode='a')", "open(p, m)", "io.open(p, 'x')",
             "Path(p).open('w')", "Path(p).write_text(s)", "Path(p).write_bytes(b)",
             "np.save(p, a)", "np.savetxt(p, a)", "np.savez(p, a=a)",
             "np.savez_compressed(p, a=a)", "a.tofile(p)", "os.fdopen(fd, 'w')",
             "import tempfile", "from shutil import copyfile",
             "open(p)", "open(p, 'rb')", "Path(p).open()", "Path(p).read_text()"]
    f = tmp_path / "mod.py"
    f.write_text("\n".join(lines) + "\n")
    assert sorted({ln for ln, _ in _file_writes(str(f))}) == list(range(1, 16))


def test_only_cli_writes_files():
    """No module but cli writes a file: the others return text, and cli
    writes every report atomically (temp file + rename)."""
    src = os.path.dirname(polybubble.__file__)
    found = {f: _file_writes(os.path.join(src, f)) for f in sorted(os.listdir(src))
             if f.endswith(".py") and f != "cli.py"}
    assert {f: w for f, w in found.items() if w} == {}
    assert _file_writes(os.path.join(src, "cli.py"))  # the guard sees cli's writer


# -- definitions --------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reads(nodes):
    """The names the nodes read, as a name or an attribute, annotations
    aside."""
    out, stack = set(), list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        for field, child in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                stack += [c for c in (child if isinstance(child, list) else [child])
                          if isinstance(c, ast.AST)]
    return out


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _unreached(pkg, root_files):
    """(file, line, name) of each def or class of the modules in pkg, dunders
    aside, that no chain of def bodies reaches by name from the roots: the
    names read in root_files and in the module-level code of pkg, imports
    and __all__ aside.  A reached def leads on to the names its body reads;
    a reached class to those of its class body and its dunder methods (the
    ones Python calls), while its other methods are reached by name."""
    roots, defs = set(), []
    for f in root_files:
        with open(f) as fh:
            roots |= _reads([ast.parse(fh.read())])
    for f in sorted(os.listdir(pkg)):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(pkg, f)) as fh:
            tree = ast.parse(fh.read())
        for stmt in tree.body:
            if not (isinstance(stmt, (ast.Import, ast.ImportFrom, ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.ClassDef))
                    or (isinstance(stmt, ast.Assign)
                        and [getattr(t, "id", None) for t in stmt.targets] == ["__all__"])):
                roots |= _reads([stmt])
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                body = [b for b in node.body
                        if not isinstance(b, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or _is_dunder(b.name)]
                reads = _reads(node.decorator_list + node.bases + node.keywords + body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads = _reads([node])
            else:
                continue
            defs.append((f, node.lineno, node.name, reads))
    reached, todo = set(), set(roots)
    while todo:
        name = todo.pop()
        reached.add(name)
        for *_, defname, reads in defs:
            if defname == name:
                todo |= reads - reached
    return [(f, line, name) for f, line, name, _ in defs
            if not _is_dunder(name) and name not in reached]


def test_reachability_flags_a_def_only_a_test_reaches(tmp_path):
    """_unreached follows module-level code, def bodies, class bodies and
    dunder methods from the roots, and flags the defs that only a test, an
    import, __all__ or another unreached def reads."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "from os import path as only_imported\n"
        "__all__ = ['tested_only', 'only_imported']\n"
        "TABLE = {'x': from_module_code}\n"
        "def from_module_code():\n    return Thing()\n"
        "class Thing:\n"
        "    def __init__(self):\n        self.v = from_init()\n"
        "    def method(self):\n        return 1\n"
        "def from_init():\n    return 1\n"
        "def from_cli():\n    def nested():\n        return 2\n"
        "    return nested() + Thing().method()\n"
        "def tested_only():\n    return from_dead()\n"
        "def from_dead():\n    return 3\n"
        "def annotated_only():\n    return 4\n"
        "def uses_annotation(x: annotated_only) -> annotated_only:\n    return x\n")
    (pkg / "cli.py").write_text("from .mod import from_cli\nfrom_cli()\n"
                                "print(uses_annotation(1))\n")
    tests = tmp_path / "test_mod.py"
    tests.write_text("from pkg.mod import tested_only\ntested_only()\n")
    flagged = {name for _, _, name in _unreached(str(pkg), [str(pkg / "cli.py")])}
    assert flagged == {"tested_only", "from_dead", "annotated_only"}


def test_every_definition_is_reached():
    """Each def and class of the package, dunders aside, is reached from a
    command (cli.py), from an acceptance criterion or from module-level
    code: a def that only tests, demos or the benchmark call is flagged."""
    pkg = os.path.join(ROOT, "src", "polybubble")
    roots = [os.path.join(pkg, "cli.py"),
             os.path.join(ROOT, "tests", "test_acceptance.py")]
    assert _unreached(pkg, roots) == []
