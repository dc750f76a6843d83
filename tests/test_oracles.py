"""The oracles stay independent of the code they check."""

import ast
from pathlib import Path

# The only package names oracles.py may import: plain data types, no computation.
ALLOWED = {"medtriplet.extraction": {"DiseaseEntry", "MetaEntities", "Report"}}


def test_oracles_import_no_package_code():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    offending = [
        (module, name)
        for module, name in imported
        if module.split(".")[0] == "medtriplet" and name not in ALLOWED.get(module, ())
    ]
    assert offending == []
