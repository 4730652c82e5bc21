"""Static reach checks over the source tree, in place of a linter.

Every public kit function, class and method must be reached from code
that runs outside the unit tests: the kit itself, the acceptance
criteria or the benchmark.  A name that only unit tests call is library
code that no scenario runs.  And no module under src/ or tests/ may
import a name it never uses.  These checks read names only, through the
standard ast module, so a name counts as reached wherever it appears.
The solvers take the model from the geometry layer, never from the
comparison pipeline built on top of them.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
KIT = sorted((ROOT / "src" / "talenti_kit").glob("*.py"))
REACHING = KIT + [ROOT / "tests" / "test_acceptance.py"] + \
    sorted((ROOT / "bench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_defs(path: Path) -> list[tuple[str, int]]:
    """Public top-level functions and classes, and the public methods of
    every top-level class, as (qualified name, line)."""
    out = []
    for node in _tree(path).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{m.name}", m.lineno) for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
    return out


def _referenced(path: Path) -> set[str]:
    """Every name, attribute and imported name that appears in a file."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _unused_imports(path: Path) -> list[str]:
    tree = _tree(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in bound.items()
            if name not in used]


def test_every_public_kit_name_is_reached():
    reached = set().union(*(_referenced(p) for p in REACHING))
    unreached = [f"{p.name}:{line} {name}" for p in KIT
                 for name, line in _public_defs(p)
                 if name.rsplit(".", 1)[-1] not in reached]
    assert unreached == []


def test_no_unused_imports():
    files = KIT + sorted((ROOT / "tests").glob("*.py"))
    assert [u for p in files for u in _unused_imports(p)] == []


def _kit_imports(path: Path) -> set[str]:
    """Kit modules a kit module imports, by their own names."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module] if node.module
                       else [a.name for a in node.names])
    return out


@pytest.mark.parametrize("solver", ["eigen", "sobolev_embed"])
def test_solvers_do_not_import_the_pipeline(solver):
    path = ROOT / "src" / "talenti_kit" / f"{solver}.py"
    assert "talenti_check" not in _kit_imports(path)
