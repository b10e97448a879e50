"""Every name a package module imports is used in that module's body, and
every name it exports in ``__all__`` is bound in it; every script imports,
and run_canonical.py's chain lines pass."""

import ast
import importlib
import importlib.util
import re
import types
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "besselmp"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((PACKAGE.parent.parent / "scripts").glob("*.py"))


def _imported_names(tree):
    """(bound name, line) for each import in the module, __future__ excluded."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # names listed in __all__ count as used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return used


def test_modules_found():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_names_are_bound(path):
    name = "besselmp" if path.name == "__init__.py" else f"besselmp.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{path.name}: __all__ lists unbound names: " + ", ".join(missing)


def test_star_import_binds_no_module():
    # besselmp.__all__ lists the re-exported names, not the submodules, so a
    # star import leaves a caller's own ``grid`` as it was
    namespace = {"grid": "the caller's"}
    exec("from besselmp import *", namespace)
    assert namespace["grid"] == "the caller's"
    modules = [name for name, value in namespace.items()
               if isinstance(value, types.ModuleType) and not name.startswith("__")]
    assert not modules, "from besselmp import * binds modules: " + ", ".join(modules)


def _private_functions(tree):
    """Module-level functions whose names start with one underscore."""
    return [node for node in tree.body if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") and not node.name.startswith("__")]


def _name_counts(tree):
    """How often the tree mentions each name, as a Name id or an Attribute attr."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def test_private_functions_are_referenced():
    # a helper that only the tests call is dead package code; mentions inside
    # its own definition (recursion) do not count
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    total = sum((_name_counts(tree) for tree in trees.values()), Counter())
    unused = [f"{name}:{fn.lineno} {fn.name}" for name, tree in sorted(trees.items())
              for fn in _private_functions(tree)
              if total[fn.name] - _name_counts(fn)[fn.name] <= 0]
    assert not unused, "private functions no module references: " + ", ".join(unused)


FFT_TRANSFORMS = {"fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"}


def test_fft_transforms_only_in_the_grid_entry_points():
    # one transform path: grid._rfft and grid._irfft, plus kernels.py, the
    # independent oracle; fftfreq is not a transform and may appear anywhere
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        entry_points = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                        and path.name == "grid.py" and node.name in ("_rfft", "_irfft")]
        skipped = {id(n) for node in entry_points for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Attribute) and node.attr in FFT_TRANSFORMS:
                # np.fft.rfft, numpy.fft.rfft or a bare fft.rfft
                owner = node.value
                if getattr(owner, "attr", getattr(owner, "id", None)) == "fft":
                    found.append(f"{path.name}:{node.lineno} {node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fft"):
                found += [f"{path.name}:{node.lineno} import {a.name}" for a in node.names
                          if a.name in FFT_TRANSFORMS]
    assert not found, "numpy FFT calls outside grid._rfft / _irfft: " + ", ".join(found)


def _is_abs_call(node):
    """np.abs(...), numpy.abs(...) or the builtin abs(...)."""
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (getattr(func, "attr", None) == "abs"
                                           or getattr(func, "id", None) == "abs")


def test_abs_powers_only_in_the_grid_power_kernels():
    # one kernel for |u|^k, grid._abs_power (underflow-safe, whole powers
    # multiplied out); ``**`` or np.power on an abs elsewhere pays pow's
    # subnormal slow path again
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        kernels = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and path.name == "grid.py" and node.name == "_abs_power"]
        skipped = {id(n) for node in kernels for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                base = node.left
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "power":
                base = node.args[0] if node.args else None
            else:
                continue
            if _is_abs_call(base):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "|u|^k outside grid._abs_power: " + ", ".join(found)


# the solvers' energies scored in closed form along a ray, from its pieces;
# mountain_pass_solve scores e's ray once and hands the pieces to _fibering
_RAY_SCORES = ("_fibering", "_extremal_mu", "probe_geometry", "mountain_pass_solve")


def test_solver_points_scored_only_by_residual():
    # one scoring of a solver point: ``solvers._residual`` is the one caller
    # of the transform pair and the residual kernel, and every energy but a
    # ray's closed-form score is built on the bessel norm it returned
    tree = ast.parse((PACKAGE / "solvers.py").read_text())
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("_multiply_and_norm", "_residual_values") and owner != "_residual":
                found.append(f"{owner}:{node.lineno} {name}")
            elif (name == "_energy_parts" and owner not in _RAY_SCORES
                  and len(node.args) + len(node.keywords) < 3):
                found.append(f"{owner}:{node.lineno} _energy_parts without bessel")
    assert not found, "a solver point scored outside _residual: " + ", ".join(found)


def test_full_lattice_read_only_in_the_symbol_build():
    # every lattice sum reads the cached ``Grid.symbol`` through
    # ``Grid.lattice_weights``; a read of ``freq_sq`` anywhere else rebuilds
    # a symbol on every call
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        builds = [item for node in tree.body if isinstance(node, ast.ClassDef)
                  and path.name == "grid.py" and node.name == "Grid"
                  for item in node.body
                  if isinstance(item, ast.FunctionDef) and item.name == "symbol"]
        skipped = {id(n) for node in builds for n in ast.walk(node)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "freq_sq"
                  and id(node) not in skipped]
    assert not found, "freq_sq read outside Grid.symbol: " + ", ".join(found)


def test_linalg_errors_caught_only_where_k_is_inverted():
    # one failure rule for the linear solves: ProblemSpec._riesz_inverse reads
    # a K that LAPACK refuses as None, and _minres alone turns that into a
    # failed solve, so no other module names LinAlgError
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "problem.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if getattr(node, "attr", getattr(node, "id", None)) == "LinAlgError"]
    assert not found, "LinAlgError named outside problem.py: " + ", ".join(found)


def _call_sites(name):
    """(module file, top-level owner, line) of each call of ``name`` in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            found += [(path.name, getattr(top, "name", None), node.lineno)
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    return found


def test_minres_called_only_by_the_newton_direction():
    # one Krylov loop and one caller: the descent's gradient is one
    # preconditioner product, so only solvers._newton_direction runs _minres
    found = _call_sites("_minres")
    assert {site[:2] for site in found} == {("solvers.py", "_newton_direction")}, found


def test_one_owner_of_the_dense_1d_rule_and_the_power_law():
    # the rule "a 1-D half grid stores its operators dense" is read by the
    # grid and by the problem, which builds both solves' preconditioner with
    # its route; the power law's |u|^k lives in the problem's residual and
    # Hessian diagonal, so the solvers name neither kernel
    assert {site[0] for site in _call_sites("_direct")} == {"grid.py", "problem.py"}
    names = _name_counts(ast.parse((PACKAGE / "solvers.py").read_text()))
    found = [name for name in ("_direct", "_filter", "_abs_power") if names[name]]
    assert not found, "solvers.py names " + ", ".join(found)


def test_armijo_step_called_once_by_the_descent():
    # a descent row makes one line search, and a refused one hands over to
    # the polish: one call site, in solvers._nehari_solve
    found = _call_sites("_armijo_step")
    assert [site[:2] for site in found] == [("solvers.py", "_nehari_solve")], found


def test_dct1_matrix_built_only_in_its_cached_build():
    # each EvenGrid builds its cosine matrix once, in grid._dct1_matrix, and
    # derives the backward one from it; no other grid function calls np.cos
    tree = ast.parse((PACKAGE / "grid.py").read_text())
    (build,) = [top for top in tree.body
                if isinstance(top, ast.FunctionDef) and top.name == "_dct1_matrix"]
    inside = {id(node) for node in ast.walk(build)}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "cos"]
    found = [f"grid.py:{node.lineno}" for node in calls if id(node) not in inside]
    assert not found, "np.cos outside grid._dct1_matrix: " + ", ".join(found)
    assert any(id(node) in inside for node in calls)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # loaded under its own name, not "__main__", so main() does not run; a
    # library rename that breaks a script's imports fails here
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_run_canonical_prints_a_passing_chain(capsys):
    # the script runs both canonical problems and checks the Palais-Smale
    # bound on each solve's descent rows: two chain lines per problem
    path = next(p for p in SCRIPTS if p.name == "run_canonical.py")
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    problems = capsys.readouterr().out.split("=== ")[1:]
    assert len(problems) == 2
    for text in problems:
        chains = [line for line in text.splitlines() if "bounded descent:" in line]
        assert len(chains) == 2 and all("pass=True" in line for line in chains), text
        (levels,) = [line for line in text.splitlines() if line.startswith("levels")]
        assert levels.endswith("ok=True")


def test_scripts_found():
    # README's "Scripts" section lists every script, and only those
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"`scripts/([\w.]+\.py)`", section)) == {p.name for p in SCRIPTS}
