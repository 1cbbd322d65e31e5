"""Every function and method under src/mergedjohnson is named by the
library, the CLI or perfbench/ outside its own definition (as a name, an
attribute, an import, or part of a dotted string like perfbench/tracing.py's
"perms.orbit"), or is documented API that README.md names.  An import in
the package's __init__.py, which builds __all__, is not a caller.  Code
only tests call lives in tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mergedjohnson").glob("*.py"))

# documented names that nothing under src/ or perfbench/ calls, with where
DOCUMENTED = {
    "cayley_deficiency": "README: the Cayley deficiency d(J) of one graph",
    "graph_stats": "README: degree, edge count and connected components",
    "has_edges": "README: a graph's edge lookup, checked; verify calls _has_edges "
                 "only to name a broken edge",
    "is_commutative": "README: NearField.is_commutative reads the tables",
    "neighbors": "README: a graph's neighbour query, materialized or not",
    "only_an_sn": "README: whether A_n and S_n are the only transitive Aut groups",
}


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"[A-Za-z_][\w.]*", node.value):
            yield from node.value.split(".")


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def test_every_function_under_src_has_a_caller():
    used, defined = set(), []
    for path in SOURCES + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name != "__init__.py":
            used.update(_names_used(tree))
        if path in SOURCES:
            defined += [(path.name, node) for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)]
    exempt = used | set(DOCUMENTED)
    uncalled = ["%s:%d %s" % (name, node.lineno, node.name) for name, node in defined
                if node.name not in exempt and not _is_click_command(node)
                and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert not uncalled, "no caller outside tests:\n" + "\n".join(uncalled)


def test_documented_names_are_in_the_readme():
    readme = (ROOT / "README.md").read_text()
    # in code spans: `name`, `name(...)` or `Owner.name`
    missing = [name for name in DOCUMENTED
               if not re.search(r"`(?:\w+\.)*%s\b" % name, readme)]
    assert not missing, "not named in README.md: " + ", ".join(missing)
