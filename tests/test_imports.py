"""What importing the package loads: cold commands import only what they run.

The closed-form commands (`variance`, `budget`, `jc-sweep` and
`window-sweep`) run without numpy in either output format; `import
atomsqueeze` loads no submodule until a public name is used.  The
import-graph test pins which modules load numpy at import time, so that
one stray top-level import cannot silently undo that.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomsqueeze
import oracles

SRC = Path(atomsqueeze.__file__).resolve().parent
# each function and constant that tests/oracles.py defines
ORACLE_NAMES = sorted(
    name for name, obj in vars(oracles).items()
    if not name.startswith("_") and (getattr(obj, "__module__", None) == oracles.__name__ or name.isupper())
)

# the modules that load numpy when imported, directly or through another module
LOADS_NUMPY = {"fock", "homodyne", "jaynes_cummings", "superposition", "wigner"}
# the functions outside cli.py that may import: the lazy package namespace,
# and the two modes functions that are the only numpy users in `budget`'s module
FUNCTION_IMPORTS = {
    "__init__": {"__getattr__"},
    "modes": {"TemporalMode.amplitude", "window_tradeoff"},
}


def _child(*args: str, returncode: int = 0) -> subprocess.CompletedProcess:
    """Run this interpreter on args with the package's src/ first on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == returncode, proc.stderr
    return proc


def _loaded_after(code: str) -> dict:
    """Run code in a fresh interpreter; report the package modules it loaded and whether numpy is one."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps({'package': sorted(m for m in sys.modules if m.split('.')[0] == 'atomsqueeze'),"
        " 'numpy': 'numpy' in sys.modules}), file=sys.stderr)"
    )
    return json.loads(_child("-c", code + report).stderr.strip().splitlines()[-1])


def _run_cli(argv: list, returncode: int = 0) -> tuple[str, dict]:
    """Run `python -X importtime -m atomsqueeze.cli argv`; return its stdout, or on
    failure its stderr without the import lines, and what it loaded.

    -X importtime lists every module the process imports, one line each, on stderr.
    """
    proc = _child("-X", "importtime", "-m", "atomsqueeze.cli", *argv, returncode=returncode)
    lines = proc.stderr.splitlines()
    names = {ln.rsplit("|", 1)[1].strip() for ln in lines if ln.startswith("import time:")}
    package = sorted(n for n in names if n.split(".")[0] == "atomsqueeze")
    errors = "".join(f"{ln}\n" for ln in lines if not ln.startswith("import time:"))
    return proc.stdout if returncode == 0 else errors, {"package": package, "numpy": "numpy" in names}


NUMPY_FREE_RUN = ["atomsqueeze", "atomsqueeze.closed_forms", "atomsqueeze.errors"]


def test_variance_json_runs_without_numpy():
    out, loaded = _run_cli(["variance", "--beta", "0.5", "--phi", "0"])
    assert loaded == {"package": NUMPY_FREE_RUN, "numpy": False}
    assert json.loads(out)["result"]["min_variance"] == 3.0 / 16.0


def test_budget_runs_without_numpy():
    out, loaded = _run_cli(["budget", "--collection", "0.94", "--lifetime-ns", "230", "--window-lifetimes", "5"])
    assert loaded == {"package": [*NUMPY_FREE_RUN, "atomsqueeze.modes"], "numpy": False}
    assert math.isclose(json.loads(out)["result"]["eta_overlap"], -math.expm1(-5.0), rel_tol=1e-15)



def test_jc_sweep_runs_without_numpy():
    argv = ["jc-sweep", "--theta", "2.0944", "--phi", "1.5708", "--t-max", "6.2832", "--steps", "200"]
    out, loaded = _run_cli(argv)
    assert loaded == {"package": NUMPY_FREE_RUN, "numpy": False}
    lines = out.splitlines()
    assert len(lines) == 7 + 200 and lines[7] == "0.0,0.25,0.25,0.0,0.0"


def test_window_sweep_runs_without_numpy():
    argv = ["window-sweep", "--collection", "0.94", "--min-lifetimes", "0.5", "--max-lifetimes", "10", "--steps", "20"]
    out, loaded = _run_cli(argv)
    assert loaded == {"package": [*NUMPY_FREE_RUN, "atomsqueeze.modes"], "numpy": False}
    lines = out.splitlines()
    assert len(lines) == 7 + 20 and lines[7] == "1.1500000000000001e-07,0.5,0.3934693402873667,-0.4213675812005512"


CLOSED_FORM_RUNS = {
    "variance": (["variance", "--beta", "0.5"], NUMPY_FREE_RUN),
    "budget": (["budget", "--collection", "0.94"], [*NUMPY_FREE_RUN, "atomsqueeze.modes"]),
    "jc-sweep": (["jc-sweep", "--theta", "2.0944", "--t-max", "6.2832"], NUMPY_FREE_RUN),
    "window-sweep": (["window-sweep", "--collection", "0.94"], [*NUMPY_FREE_RUN, "atomsqueeze.modes"]),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", list(CLOSED_FORM_RUNS))
def test_closed_form_commands_run_without_numpy_in_either_format(command, fmt):
    argv, package = CLOSED_FORM_RUNS[command]
    _, loaded = _run_cli([*argv, "--format", fmt])
    assert loaded == {"package": package, "numpy": False}


@pytest.mark.parametrize(("argv", "message"), [
    (["homodyne", "--beta", "0.5", "--samples", "5", "--seed", "1"], "samples must be an integer >= 100, got 5"),
    (["wigner", "--beta", "0.5", "--res", "3"], "res must be an integer >= 16, got 3"),
    (["phase-scan", "--beta", "0.5", "--seed", "1", "--n-phases", "2"], "n-phases must be an integer >= 4, got 2"),
])
def test_a_flag_outside_its_domain_exits_2_before_numpy_loads(argv, message):
    # the numpy commands import their modules in the handler, which never runs
    err, loaded = _run_cli(argv, returncode=2)
    assert loaded == {"package": NUMPY_FREE_RUN, "numpy": False}
    assert err == f"error: parameter: {message}\n"


def test_variance_csv_runs_without_numpy():
    out, loaded = _run_cli(["variance", "--beta", "0.5", "--format", "csv"])
    assert loaded == {"package": NUMPY_FREE_RUN, "numpy": False}
    assert out.splitlines()[-1] == "0.1875,-1.2493873660829993,0.375,1.7609125905568124,0.1875,-1.2493873660829993,true"


def test_import_atomsqueeze_loads_no_submodule():
    assert _loaded_after("import atomsqueeze") == {"package": ["atomsqueeze"], "numpy": False}


def test_a_submodule_name_imports_nothing_else():
    # `from . import x` asks hasattr(package, x) first; answering it must not load the library
    code = "import atomsqueeze\nassert not hasattr(atomsqueeze, 'fock') and not hasattr(atomsqueeze, 'cli')"
    assert _loaded_after(code) == {"package": ["atomsqueeze"], "numpy": False}
    assert _loaded_after("from atomsqueeze import closed_forms") == {"package": NUMPY_FREE_RUN, "numpy": False}


def test_star_import_binds_every_public_name():
    code = (
        "from atomsqueeze import *\n"
        "import atomsqueeze\n"
        "missing = [n for n in atomsqueeze.__all__ if globals().get(n) is not getattr(atomsqueeze, n)]\n"
        "print(len(atomsqueeze.__all__), missing)"
    )
    assert _child("-c", code).stdout.split() == ["61", "[]"]


def test_a_public_name_loads_the_seven_library_modules():
    loaded = _loaded_after("import atomsqueeze\natomsqueeze.variance_to_db")
    library = {"errors", "fock", "homodyne", "jaynes_cummings", "modes", "superposition", "wigner", "closed_forms"}
    assert loaded == {"package": sorted(["atomsqueeze", *(f"atomsqueeze.{m}" for m in library)]), "numpy": True}


def _imports(tree: ast.Module):
    """(function qualname or None, import node) for each import; None marks one that runs at import time."""
    found = []

    def walk(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((scope if in_function else None, child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                walk(child, name, in_function or not isinstance(child, ast.ClassDef))
            else:
                walk(child, scope, in_function)

    walk(tree, "", False)
    return found


def _targets(node, modules: set) -> set:
    """The package modules and top-level packages an import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return {n.split(".")[1] if n.startswith("atomsqueeze.") else n.split(".")[0] for n in names}
    if node.level == 0:
        return {node.module.split(".")[0]}
    if node.module is not None:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names if alias.name in modules}


def test_import_graph_pins_which_modules_load_numpy():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    edges, function_imports = {}, {}
    for module, tree in trees.items():
        found = _imports(tree)
        edges[module] = set().union(*(_targets(node, set(trees)) for scope, node in found if scope is None))
        function_imports[module] = {scope for scope, _ in found if scope is not None}

    def loads_numpy(module, seen=()):
        targets = edges.get(module, set())
        return "numpy" in targets or any(loads_numpy(t, (*seen, module)) for t in targets - {*seen, module})

    assert {m for m in trees if loads_numpy(m)} == LOADS_NUMPY
    assert {m: f for m, f in function_imports.items() if f and m != "cli"} == FUNCTION_IMPORTS


def _callers(tree: ast.Module, attrs: set) -> set:
    """(name called, qualname of the function that calls it) for each call of a name or attribute in attrs."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in attrs:
                    found.add((name, scope))
            walk(child, scope)

    walk(tree, "")
    return found


def test_arrays_are_admitted_and_frozen_in_one_place_each():
    # fock._numbers is the one cast of an input array, and fock._freeze the one
    # store of a read-only array on a record, so a new record cannot bring back its own
    found = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = _callers(tree, {"asarray", "setflags", "__setattr__"})
        found |= {(name, f"{path.stem}{scope}") for name, scope in calls}
    assert found == {("asarray", "fock._numbers"), ("setflags", "fock._freeze"), ("__setattr__", "fock._freeze")}


def _defined(tree: ast.Module) -> set:
    """Every name a module binds by def, class or assignment, at any depth."""
    return {
        node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else node.id
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    }


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_no_test_oracle_is_defined_in_the_package(name):
    # one runtime implementation per quantity: the numerical cross-checks live in the tests
    for path in SRC.glob("*.py"):
        assert name not in _defined(ast.parse(path.read_text(encoding="utf-8"))), path.name


def test_the_package_imports_nothing_from_the_tests():
    tests = {path.stem for path in Path(oracles.__file__).parent.glob("*.py")}
    for path in SRC.glob("*.py"):
        found = _imports(ast.parse(path.read_text(encoding="utf-8")))
        assert not set().union(*(_targets(node, set()) for _, node in found)) & tests, path.name


def _patches_and_calls_of_oracles(function: ast.FunctionDef) -> tuple[list, list]:
    """Line numbers of the monkeypatch.setattr calls on `oracles` in a test, and of its calls of an oracle."""
    patches, calls = [], []
    for node in ast.walk(function):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        owner = node.func.value
        if node.func.attr == "setattr" and isinstance(owner, ast.Name) and owner.id == "monkeypatch" and node.args:
            target = node.args[0]
            if (isinstance(target, ast.Name) and target.id == "oracles") or (
                isinstance(target, ast.Constant) and str(target.value).startswith("oracles.")
            ):
                patches.append(node.lineno)
        elif isinstance(owner, ast.Name) and owner.id == "oracles":
            calls.append(node.lineno)
    return patches, calls


def test_a_test_patches_an_oracle_only_to_call_one():
    # the package never reaches tests/oracles.py, so a patched oracle guards
    # something only where the test itself then calls an oracle
    for path in sorted(Path(oracles.__file__).parent.glob("*.py")):
        for function in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(function, ast.FunctionDef):
                patches, calls = _patches_and_calls_of_oracles(function)
                for line in patches:
                    assert any(call > line for call in calls), f"{path.name}:{line} patches an oracle no call reaches"
