"""scipy and sympy are test-only oracles: no module of the package imports them.
The exact modules import no cmath either, so no float decides an exact check."""

import ast
from pathlib import Path

import weilforms

ORACLES = {"scipy", "sympy"}
EXACT = ("arith", "cyclo", "discform", "metaplectic", "weilrep")


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_imported_roots_sees_every_import_form():
    tree = ast.parse(
        "import os, scipy.special\n"
        "def f():\n    from sympy.ntheory import totient\n"
        "from . import cyclo\n"
    )
    assert set(_imported_roots(tree)) == {"os", "scipy", "sympy"}


def test_package_does_not_import_test_oracles():
    sources = sorted(Path(weilforms.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        found = ORACLES & set(_imported_roots(ast.parse(path.read_text(), str(path))))
        assert not found, f"{path.name} imports {sorted(found)}"


def test_exact_modules_do_not_import_cmath():
    package = Path(weilforms.__file__).parent
    for name in EXACT:
        path = package / f"{name}.py"
        roots = set(_imported_roots(ast.parse(path.read_text(), str(path))))
        assert "cmath" not in roots, f"{name}.py imports cmath"
