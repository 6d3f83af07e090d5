"""Import hygiene: every module uses each name it imports, and scipy is
loaded only by the code paths that call it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foambounds"


def unused_imports(path: Path) -> list[str]:
    """'module:line name' for each imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [hit for path in modules for hit in unused_imports(path)] == []


def private_names(path: Path) -> dict[str, int]:
    """Each module-level _private name the module defines, with its line."""
    names = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in found for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def test_no_orphaned_private_names():
    # A helper that nothing in the package reads any more is dead code.
    modules = sorted(PACKAGE.glob("*.py"))
    read = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    orphans = [
        f"{path.name}:{line} {name}"
        for path in modules
        for name, line in private_names(path).items()
        if name not in read
    ]
    assert orphans == []


def module_level_scipy_imports(path: Path) -> list[str]:
    """'module:line' for each scipy import outside a function body."""
    hits = []

    def visit(node, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function = True
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        if not in_function and any(n == "scipy" or n.startswith("scipy.") for n in names):
            hits.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return hits


def test_scipy_is_imported_only_inside_functions():
    # Start-up cost: importing scipy dominates a process that never calls
    # it (the mesh and bounds subcommands), so each use imports it locally.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in module_level_scipy_imports(path)] == []


def test_module_level_scipy_import_is_flagged(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import scipy\n"
        "from scipy.spatial import cKDTree\n"
        "class C:\n"
        "    import scipy.optimize\n"
        "def f():\n"
        "    from scipy.optimize import minimize\n"
        "    return minimize\n"
        "if True:\n"
        "    import scipy.linalg as la\n",
        encoding="utf-8",
    )
    assert module_level_scipy_imports(path) == ["mod.py:1", "mod.py:2", "mod.py:4", "mod.py:9"]


def scipy_modules_after(code: str) -> set[str]:
    """The scipy modules loaded once code has run in a fresh interpreter."""
    script = (
        "import json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_mesh_and_bounds_commands_load_no_scipy(tmp_path):
    mesh = tmp_path / "sphere.off"
    code = (
        "import contextlib, io\n"
        "import foambounds\n"
        "from foambounds import cli, meshes\n"
        f"mesh = {str(mesh)!r}\n"
        "foambounds.save_off(meshes.icosphere(2), mesh)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['mesh-verify', '--input', mesh, '--center', '1,0,0',\n"
        "                     '--radius', '0.3']) == 0\n"
        "    assert cli.main(['mesh-angles', '--input', mesh]) == 0\n"
        "    assert cli.main(['bounds-main', '--radius', '0.5', '--h', '1']) == 0\n"
    )
    assert scipy_modules_after(code) == set()


def test_dual_route_loads_scipy_spatial():
    code = (
        "import numpy as np\n"
        "from foambounds import ReducedDistanceMatrix, build_h_polytope, enumerate_vertices\n"
        "entries = np.full((6, 6), 1.0) - np.eye(6)\n"
        "poly = build_h_polytope(ReducedDistanceMatrix(entries, 0.0))\n"
        "assert len(enumerate_vertices(poly)) > 0\n"
    )
    loaded = scipy_modules_after(code)
    assert "scipy.spatial" in loaded and "scipy.optimize" not in loaded


def test_uncertified_four_point_eva_loads_scipy_optimize():
    # Far-apart points at h = 0.3 leave the certified regime, so the
    # four-point solve runs the local ascent.
    code = (
        "import numpy as np\n"
        "from foambounds import (Ball, PointSet, build_distance_matrix, maximize_eva,\n"
        "                        reduce_distance_matrix)\n"
        "points = PointSet(np.array([[5.0, 0, 0], [-5.0, 0, 0], [0, 5.0, 0], [0, 0, 5.0]]))\n"
        "matrix = build_distance_matrix(points, Ball(np.zeros(3), 10.0))\n"
        "assert not maximize_eva(reduce_distance_matrix(matrix, 0.3)).convexity_certified\n"
    )
    assert "scipy.optimize" in scipy_modules_after(code)
