"""Library code that no scenario reaches is deleted: a name-level guard.

Every function that analytic, certify, numlin, opbuild or spaces defines must
be named somewhere in src/ outside its own def, as a name or an attribute.
This is a proxy: it checks names, not reach. A function named only by another
function that nothing calls still passes, and a dunder method, which Python
calls without naming it, is not checked.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "univcert"
LIBRARY = ("analytic", "certify", "numlin", "opbuild", "spaces")

# entry points that only the benchmark (perfbench/workloads.py) calls: the API
# surface perfbench/ depends on besides cli.run_scenario
BENCHMARK_ONLY = {"certify.spectral_falsifier", "certify.CertificateReport.to_json"}


def _names(tree) -> list[str]:
    return [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def _defs(node, prefix):
    """(qualified name, def node) for every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{child.name}", child
            yield from _defs(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}.{child.name}")
        else:
            yield from _defs(child, prefix)


def test_every_library_function_is_named_outside_its_own_def():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in SRC.glob("*.py")}
    everywhere = Counter(name for tree in trees.values() for name in _names(tree))
    defined, unnamed = set(), set()
    for module in LIBRARY:
        for qualname, node in _defs(trees[module], module):
            defined.add(qualname)
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if everywhere[node.name] == Counter(_names(node))[node.name]:
                unnamed.add(qualname)
    assert BENCHMARK_ONLY <= defined
    assert unnamed - BENCHMARK_ONLY == set()
