"""The README "Library" example runs and gives the results its comments
state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block_values() -> dict[str, object]:
    """Run the ```python block under "## Library" statement by statement;
    return the value of each expression statement, keyed by its source."""
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert match, "README has no python block under ## Library"
    source = match.group(1)
    scope: dict = {}
    values = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            values[ast.get_source_segment(source, node)] = eval(
                compile(ast.Expression(node.value), "README.md", "eval"), scope
            )
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), scope)
    return values


def test_readme_library_block():
    values = library_block_values()
    pairs = values["er.exceptional_pairs(g)"]
    assert [(p.first, p.second) for p in pairs] == [((1, 2, 3), (5, 6, 7))]
    assert values["er.satisfies_odd_cycle_condition(g)"] is False
    assert values["er.in_sbar(g, alpha), er.in_S(g, alpha)"] == (True, None)
    assert values["er.in_S(g, tuple(2 * x for x in alpha))"].total_edges() == 6
    assert values["report.verdict, report.gap_count, report.exhaustive"] == ("NonNormalS2Verified", 462, True)
