"""Every top-level definition in ``src/edgering`` is reached from the CLI
entry point ``cli.main``, from an ``er.<name>`` of README's Library
section, or from a name the benchmark harness holds.  A helper that only
the tests call belongs in ``tests/helpers.py``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Held until ROADMAP item 7 re-records the benchmark: perfbench/tracer.py
# wraps facets.integer_rank (span linalg.integer_rank) and
# facets.delete_vertex (span graph.delete_vertex), and _gap_direct is the
# only numpy user, which perfbench/run.py's import.numpy.ms needs loaded.
HELD = [("facets", "integer_rank"), ("graph", "delete_vertex"), ("semigroup", "_gap_direct")]


def unreached() -> list[str]:
    """The definitions, dunders aside, that no root reaches through the
    names read in the bodies it reaches.  Statements that are neither
    definitions nor imports run at import, so they count as roots."""
    defs, imports, stack = {}, {}, []
    for path in (ROOT / "src" / "edgering").glob("*.py"):
        mod = path.stem
        defs[mod], imports[mod] = {}, {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod][node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs[mod].update((t.id, node) for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                imports[mod].update((a.asname or a.name, (node.module, a.name)) for a in node.names)
            elif not isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr)):
                stack.append((mod, node))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = re.search(r"^## Library\n(.*?)(?=^## |\Z)", readme, re.M | re.S).group(1)
    roots = [("__init__", name) for name in re.findall(r"\ber\.(\w+)", library)] + [("cli", "main"), *HELD]
    reached = set()

    def visit(mod, name):
        """Reach the definition of ``name`` as seen from ``mod``, if any."""
        while name not in defs[mod]:
            if name not in imports[mod]:
                return None
            mod, name = imports[mod][name]
        if (mod, name) not in reached:
            reached.add((mod, name))
            stack.append((mod, defs[mod][name]))
        return mod, name

    for mod, name in roots:
        assert visit(mod, name), f"root {name} is not defined in edgering (from {mod})"
    while stack:
        mod, node = stack.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                visit(mod, sub.id)
    return sorted(f"{m}.{n}" for m in defs for n in defs[m] if (m, n) not in reached and not n.startswith("__"))


def test_every_library_definition_is_reached():
    missing = unreached()
    assert not missing, f"defined in src/edgering, reached by neither cli.main nor README's Library: {missing}"
