"""The runtime depends on numpy alone: every module of the package imports
only the standard library, numpy and geodisc itself, and uses every name
it imports.  No module reads the environment: settings come only through
NewtonConfig and the command-line flags."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "geodisc").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "geodisc"}


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside the package
            yield "geodisc" if node.level else node.module.split(".")[0]


def test_the_package_sources_are_found():
    assert {"cli.py", "stationary.py", "metrics.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_geodisc(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert set(imported_roots(tree)) <= ALLOWED


def unused_imports(tree):
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """os.environ or os.getenv, as an attribute or as an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return sorted(names & ENVIRONMENT_NAMES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert environment_reads(tree) == []
