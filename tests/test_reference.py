"""The reference oracles stay off the production path."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qupitcube

PACKAGE = Path(qupitcube.__file__).resolve().parent


def _imported_names(path):
    """Every module and name the import statements of a file mention."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [getattr(node, "module", None) or "", *(a.name for a in node.names)]
    return names


def test_no_production_module_imports_reference():
    production = sorted(p for p in PACKAGE.glob("*.py") if p.name != "reference.py")
    assert {p.stem for p in production} >= {
        "__init__", "cli", "codes", "conditions", "oracle", "classify",
        "logical", "algebra", "fp"}
    for path in production:
        hits = [n for n in _imported_names(path) if "reference" in n.split(".")]
        assert hits == [], (path.name, hits)


def test_cli_run_does_not_load_reference():
    script = (
        "import sys, contextlib, io\n"
        "import qupitcube.cli as cli\n"
        "d5 = ['--p', '5', '--alpha', '1,0', '--beta', '0,1', '--gamma', '1,1',\n"
        "      '--delta', '3,2']\n"
        "for argv in (['check', *d5], ['strings', *d5, '--wmax', '2'],\n"
        "             ['scan', '--p', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "print('qupitcube.reference' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
