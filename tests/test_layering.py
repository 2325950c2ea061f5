"""Layering: the analysis package never imports the rewriter core.

``repro.analysis`` (CFG construction, pointer analysis, failure
injection) sits below ``repro.core`` (the nine-stage rewriter, its
modes, relocation and trampolines).  The check reads every module's
syntax tree, so imports inside functions count as much as top-level
ones.
"""

import ast
import pathlib

import repro.analysis

ANALYSIS_DIR = pathlib.Path(repro.analysis.__file__).parent
PACKAGE = ("repro", "analysis")


def imported_modules(tree, package=PACKAGE):
    """``(line, dotted module)`` for every import in ``tree``, with
    relative imports resolved against ``package`` and each name of
    a ``from X import name`` also reported as ``X.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[:len(package) + 1 - node.level]
                        if node.level else [])
            module = ".".join(base + ([node.module] if node.module
                                      else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _within(module, package):
    return module == package or module.startswith(package + ".")


def _is_core(module):
    return _within(module, "repro.core")


def _offending(paths, package, banned):
    return [
        f"{path.name}:{line} imports {module}"
        for path in paths
        for line, module in imported_modules(ast.parse(path.read_text()),
                                             package)
        if banned(module)
    ]


def test_walker_sees_local_and_relative_imports():
    tree = ast.parse(
        "def f():\n"
        "    from repro.core.modes import MODE_SKIP\n"
        "from .. import core\n"
        "import repro.obs\n")
    found = [m for _, m in imported_modules(tree)]
    assert "repro.core.modes" in found
    assert "repro.core" in found
    assert "repro.obs" in found


def test_analysis_never_imports_core():
    paths = sorted(ANALYSIS_DIR.rglob("*.py"))
    assert len(paths) > 5
    assert _offending(paths, PACKAGE, _is_core) == []
