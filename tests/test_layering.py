"""Import layering of the package, read from the source with ``ast``: the kernels
module depends on nothing in odlearn, and the data layer only on errors and
kernels, so that recovery, regression or the operator never enter it. Also read
from the source: the regressor factorizes S + gamma*I at one call site and solves
against a fitted factor at one other, the variance's ``dtrtrs``; recovery solves
against a map's cached factor at one call site and inverts it at one other; the
operator builds recovery weights only for off-grid UQ and keeps one module-level
cache, the last load, which only ``load_model`` sets; only the kernels module imports
``scipy.spatial``, so every stationary Gram gets its distances from
``kernels.distances``; binaries have one reader and one writer, in the data
container, and no object is built around its constructor's checks."""

import ast
from pathlib import Path

import pytest

import odlearn

PACKAGE = Path(odlearn.__file__).parent


def odlearn_imports(path: Path) -> set[str]:
    """Absolute names of everything the file imports from odlearn: for
    ``from ..errors import E`` both ``odlearn.errors`` and ``odlearn.errors.E``."""
    module = path.relative_to(PACKAGE.parent).with_suffix("").parts
    package = module[:-1]  # for __init__.py, the package itself
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            parts = list(package[: len(package) - node.level + 1]) if node.level else []
            base = ".".join(parts + ([node.module] if node.module else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return {name for name in found if name == "odlearn" or name.startswith("odlearn.")}


def outside(names: set[str], allowed: tuple[str, ...]) -> set[str]:
    return {n for n in names if not any(n == a or n.startswith(a + ".") for a in allowed)}


def calls_to(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_kernels_imports_nothing_from_odlearn():
    assert odlearn_imports(PACKAGE / "kernels.py") == set()


@pytest.mark.parametrize("path", sorted((PACKAGE / "data").glob("*.py")), ids=lambda p: p.name)
def test_data_layer_imports_only_errors_and_kernels(path):
    names = odlearn_imports(path)
    assert outside(names, ("odlearn.data", "odlearn.errors", "odlearn.kernels")) == set()


def test_relative_imports_resolve():
    # the reader itself: the data layer's known edges, and the CLI's package imports
    assert {"odlearn.errors", "odlearn.kernels"} <= odlearn_imports(PACKAGE / "data" / "container.py")
    assert "odlearn.data.container" in odlearn_imports(PACKAGE / "data" / "__init__.py")
    assert {"odlearn.operator", "odlearn.regression"} <= odlearn_imports(PACKAGE / "cli.py")


def test_regression_factorizes_at_one_call_site():
    tree = ast.parse((PACKAGE / "regression.py").read_text())
    assert len(calls_to(tree, "cho_factor")) == 1


def test_regression_solves_against_a_fitted_factor_at_one_call_site():
    tree = ast.parse((PACKAGE / "regression.py").read_text())
    # the fitted factor's readers: the check at construction, which solves nothing, and the variance
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "chol"]
    readers = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for read in reads if read in ast.walk(f)}
    assert readers.keys() == {"__post_init__", "_variance"}
    solves = [call for name in ("dtrtrs", "solve_triangular", "cho_solve") for call in calls_to(tree, name)]
    fitted = [call for call in solves if any(read in ast.walk(call) for read in reads)]
    assert fitted == calls_to(readers["_variance"], "dtrtrs") == calls_to(tree, "dtrtrs") and len(fitted) == 1
    assert calls_to(readers["_variance"], "solve_triangular") == []


def test_recovery_solves_against_its_factor_at_one_call_site():
    tree = ast.parse((PACKAGE / "recovery.py").read_text())
    # the factor's readers: the solver, with both triangular solves, and the closed-form
    # on-grid norms, with the one inversion
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_factor"]
    readers = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for read in reads if read in ast.walk(f)}
    assert len(reads) == 2 and readers.keys() == {"_gram_solve", "on_grid_norms"}
    assert len(calls_to(readers["_gram_solve"], "dtrtrs")) == len(calls_to(tree, "dtrtrs")) == 2
    assert len(calls_to(readers["on_grid_norms"], "dpotri")) == len(calls_to(tree, "dpotri")) == 1
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "cho_solve" not in names


def test_operator_builds_weights_at_one_call_site_and_holds_one_global():
    tree = ast.parse((PACKAGE / "operator.py").read_text())
    assert len(calls_to(tree, "recovery_weights")) == 1  # off-grid UQ
    assert [node.names for node in ast.walk(tree) if isinstance(node, ast.Global)] == [["_last_load"]]
    assigners = [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for node in ast.walk(f)
                 if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_last_load" for t in node.targets)]
    assert assigners == ["load_model"]


def imported_modules(tree: ast.AST) -> set[str]:
    found = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    return found | {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}


def test_stationary_grams_get_their_distances_from_one_function():
    spatial = [path.relative_to(PACKAGE).as_posix() for path in sorted(PACKAGE.rglob("*.py"))
               if any(m.split(".")[:2] == ["scipy", "spatial"] for m in imported_modules(ast.parse(path.read_text())))]
    assert spatial == ["kernels.py"]
    reg = ast.parse((PACKAGE / "regression.py").read_text())
    assert calls_to(reg, "cdist") == [] and len(calls_to(reg, "distances")) == 1  # the LML search
    kernels = ast.parse((PACKAGE / "kernels.py").read_text())
    fns = {f.name: f for f in ast.walk(kernels) if isinstance(f, ast.FunctionDef)}
    assert len(calls_to(fns["gram"], "distances")) == 1 and calls_to(fns["gram"], "cdist") == []
    assert len(calls_to(kernels, "cdist")) == len(calls_to(fns["distances"], "cdist")) == 1


def binary_io(tree: ast.AST) -> set[str]:
    """The ways the file reads or writes a binary: ``fromfile``, ``tofile``, ``mmap``
    (attribute or import) and ``os.replace``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("fromfile", "tofile", "mmap"):
            found.add(node.attr)
        elif isinstance(node, ast.Attribute) and node.attr == "replace" and getattr(node.value, "id", None) == "os":
            found.add("os.replace")
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name == "mmap")
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "mmap", "numpy"):
            found.update(f"{node.module}.{a.name}" for a in node.names if a.name in ("replace", "mmap", "fromfile"))
    return found


def test_binaries_have_one_reader_and_one_writer():
    uses = {path.relative_to(PACKAGE).as_posix(): binary_io(ast.parse(path.read_text()))
            for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: found for path, found in uses.items() if found} == {
        "data/container.py": {"mmap", "tofile", "os.replace"},
    }


def test_no_object_skips_its_constructor_checks():
    # a TrainedRegressor is made only through __post_init__'s factor check: nothing
    # calls object.__new__ or touches an instance's __dict__
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            new = (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__"
                   and getattr(node.func.value, "id", None) == "object")
            if new or (isinstance(node, ast.Attribute) and node.attr == "__dict__"):
                found.append(f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno}")
    assert found == []
