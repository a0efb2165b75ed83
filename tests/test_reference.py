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


MOVED = ("OperatorSum", "inversion_conjugate", "base_matrix", "rel_transition",
         "PrerequisiteError", "generator_config", "build_generator", "PhasedPauli",
         "generator_pauli", "_inversion_perm", "CUBE_CENTER", "doubled_center",
         "InvalidCenterError", "SingularMatrixError")
DELETED = ("check_deformability", "minimal_string_determinants", "check_no_minimal_string",
           "pairing_squares", "check_pairing_squares", "verify_projector_identities",
           "verify_inversion_action", "scale_pair", "_CUBE_INVERSION", "scan_width",
           "_left_kernel_dim", "_layer_relation", "translation_exponents_by_shift")


def _defined_names(path):
    """Every top-level function, class and assignment target of a file."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_one_route_per_verdict_in_production():
    # the operator sums, the 2x2 matrices, the phased monomials and the
    # generator as a dict or a configuration are oracles; no wrapper
    # re-reads a field of theorem1_report or PowerTable, no function takes
    # the test-only inversion scale, and k is not read back off a rank
    production = sorted(p for p in PACKAGE.glob("*.py") if p.name != "reference.py")
    for path in production:
        names = _defined_names(path) | set(_imported_names(path))
        assert names.isdisjoint(MOVED + DELETED), (path.name, names & set(MOVED + DELETED))
        arguments = {a.arg for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.arguments)
                     for a in node.posonlyargs + node.args + node.kwonlyargs}
        assert "scale_override" not in arguments, path.name
    assert _defined_names(PACKAGE / "reference.py") >= set(MOVED)
    assert "translation_exponents_by_shift" not in _defined_names(PACKAGE / "reference.py")
    assert not any(hasattr(qupitcube, name) for name in MOVED + DELETED)
    assert not hasattr(qupitcube.TorusCode, "rank")
